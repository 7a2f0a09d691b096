#!/usr/bin/env python3
"""Tests of tools/perf_compare.py, the perf-regression gate. ctest runs
each case on its own; `python3 tests/perf_compare_test.py` runs them all."""

import json
import math
import pathlib
import random
import re
import subprocess
import sys
import tempfile
import unittest

REPO = pathlib.Path(__file__).resolve().parent.parent
SCRIPT = REPO / "tools" / "perf_compare.py"
sys.path.insert(0, str(SCRIPT.parent))
from perf_compare import ReportError, parse_report  # noqa: E402

MICRO = REPO / "bench" / "BENCH_micro.json"
DEGRADATION = REPO / "bench" / "BENCH_degradation.json"

# A trimmed --benchmark_format=json report: a context block whose keys the
# reader must skip, and entries in three time units.
RAW_REPORT = b"""{
  "context": {"date": "2026-01-01T00:00:00+00:00", "num_cpus": 4,
              "caches": [{"type": "Data", "level": 1, "size": 49152}],
              "load_avg": [2.7, 1.9, 1.4], "library_build_type": "release"},
  "benchmarks": [
    {"name": "BM_SlackMaintenance/100", "run_name": "BM_SlackMaintenance/100",
     "iterations": 60841, "real_time": 2.2594267023687959e+02,
     "cpu_time": 2.2600341874722639e+02, "time_unit": "ns"},
    {"name": "BM_SnapshotFork", "iterations": 5120, "real_time": 1.3412e+02,
     "cpu_time": 1.3398e+02, "time_unit": "us"},
    {"name": "BM_ParallelPlan/2/process_time/real_time", "iterations": 9,
     "real_time": 1.4998123333245732e+00, "cpu_time": 2.6162141111111112e+00,
     "time_unit": "ms", "peak_rss_bytes": 5021700}
  ]
}
"""

# A string (quotes included), a whitespace run, a number-ish run, a byte.
TOKEN = re.compile(rb'"[^"]*"?|\s+|[A-Za-z0-9+\-.]+|.', re.S)
# Tokens and values on the reader's edges: odd units, the keys it reads,
# bad, huge and non-finite numbers, escapes, bad UTF-8 and structure.
EDGE_TOKENS = [
    b'"min"', b'""', b'"NS"', b'"name"', b'"cpu_time"', b'"cpu_time_ns"',
    b'"time_unit"', b'"value"', b'"peak_rss_bytes"', b'"benchmarks"',
    b'"a\\"b"', b'"\\u0000"', b'"\\ud800"', b"-0", b"-1", b"1e999", b"1e-320",
    b"1" * 400, b"nan", b"NaN", b"-Infinity", b"0x1p3", b"1e", b"null",
    b"true", b"{", b"]", b":", b",", b'"', b"\x00", b"\xff"]
EDGE_VALUES = [0, -1, 1e-320, 1e308, 2**80, math.inf, math.nan, "min", "",
               'a"b', "\x01", None, True, [], {}]
READ_KEYS = ["name", "cpu_time", "cpu_time_ns", "time_unit", "value",
             "peak_rss_bytes"]


def mutate(rng, text):
    """One or two random edits of `text`: a strict JSON reader rejects
    nearly every mutant that takes more, and the test needs both outcomes."""
    for _ in range(rng.randint(1, 2)):
        at, edit = rng.randrange(len(text) + 1), rng.randrange(5)
        tokens = TOKEN.findall(text)
        if edit == 0 and at < len(text):  # flip a bit
            flipped = text[at] ^ (1 << rng.randrange(8))
            text = text[:at] + bytes([flipped]) + text[at + 1:]
        elif edit == 1:  # drop a few bytes, or all the rest
            text = text[:at] + text[at + rng.choice([1, 2, 8, len(text)]):]
        elif edit == 2:  # splice in a piece of itself
            start = rng.randrange(len(text) + 1)
            text = text[:at] + text[start:start + rng.randint(1, 40)] + text[at:]
        elif edit == 3 and tokens:  # an edge token, none, two or another
            i = rng.randrange(len(tokens))
            tokens[i:i + 1] = rng.choice([[rng.choice(EDGE_TOKENS)], [],
                                          [tokens[i]] * 2, [rng.choice(tokens)]])
            text = b"".join(tokens)
        elif edit == 4:  # an edge value under a key the reader reads
            try:
                doc = json.loads(text)
                entry = rng.choice(doc["benchmarks"])
                entry[rng.choice(READ_KEYS)] = rng.choice(EDGE_VALUES)
                text = json.dumps(doc).encode()
            except (ValueError, TypeError, KeyError, IndexError):
                pass
    return text


def reject_reason(text):
    try:
        parse_report(text.encode())
    except ReportError as e:
        return str(e)
    return "accepted"


def run_script(*args):
    return subprocess.run([sys.executable, str(SCRIPT), *map(str, args)],
                          capture_output=True, text=True, check=False)


class PerfReportTest(unittest.TestCase):
    def assertSoundRows(self, rows, source):
        for r in rows:
            self.assertTrue(r.name.isprintable() and r.name != ""
                            and '"' not in r.name and "\\" not in r.name
                            and 0.0 < r.amount < math.inf
                            and 0.0 <= r.peak_rss_bytes < math.inf,
                            f"{r}\n{source!r}")

    def testReadsTheCommittedBaselineAndARawReport(self):
        baseline = parse_report(MICRO.read_bytes())
        self.assertGreaterEqual(len(baseline), 39)
        self.assertSoundRows(baseline, "baseline")
        self.assertFalse(any(r.is_value for r in baseline))
        # Every committed baseline (time, RSS and value rows) is emitted
        # back byte for byte.
        for committed in (MICRO, REPO / "bench" / "BENCH_scale.json",
                          DEGRADATION):
            with tempfile.TemporaryDirectory() as tmp:
                out = pathlib.Path(tmp) / "baseline.json"
                result = run_script("emit", committed, out)
                self.assertEqual(result.returncode, 0, result.stderr)
                self.assertEqual(out.read_bytes(), committed.read_bytes())
        self.assertEqual(parse_report(RAW_REPORT), [
            ("BM_SlackMaintenance/100", False, 2.2600341874722639e+02, 0.0),
            ("BM_SnapshotFork", False, 1.3398e+02 * 1e3, 0.0),
            ("BM_ParallelPlan/2/process_time/real_time", False,
             2.6162141111111112e+00 * 1e6, 5021700.0)])
        matrix = parse_report(DEGRADATION.read_bytes())
        self.assertEqual(len(matrix), 32)
        self.assertTrue(all(r.is_value for r in matrix))

    def testRejectsWhatItCannotReadWithANamedError(self):
        def report(fields, name='"BM_X"'):
            return f'{{"benchmarks": [{{"name": {name}, {fields}}}]}}'
        cases = {
            report('"cpu_time": 3, "time_unit": "min"'):
                "unknown time_unit 'min' in entry 'BM_X'",
            report('"cpu_time": 3, "time_unit": 7'):
                "bad time_unit in entry 'BM_X': not a string",
            report('"cpu_time": 1e300, "time_unit": "s"'):
                "cpu_time of entry 'BM_X' overflows in nanoseconds",
            report('"cpu_time_ns": 5, "peak_rss_bytes": -1'):
                "bad peak_rss_bytes in entry 'BM_X': not a finite number >= 0",
            report('"cpu_time_ns": 5, "value": 5'):
                "entry 'BM_X' has both a time and a value",
            # A zero time cannot be gated on: the entry is skipped.
            report('"cpu_time_ns": 0'): "accepted",
            '{"benchmark": []}': 'no "benchmarks" key',
            '{"benchmarks": {}}': '"benchmarks" is not an array',
            '{"benchmarks": [':
                "not valid JSON: Expecting value at line 1 column 17",
            "[" * 100000: "not valid JSON: nested too deeply",
        }
        for key in ("cpu_time_ns", "cpu_time", "value"):
            for value in ('"abc"', "-5", "1e999", "-1e999", "true", "null"):
                cases[report(f'"{key}": {value}')] = \
                    f"bad {key} in entry 'BM_X': not a finite number >= 0"
        for value in ("NaN", "Infinity", "-Infinity"):
            cases[report(f'"cpu_time_ns": {value}')] = \
                f"non-finite constant {value} is not a JSON number"
        for name in (r'"a\"b"', r'"a\\b"', r'"a\u0001"', r'"\ud800"', '""', "7"):
            cases[report('"cpu_time_ns": 1', name)] = \
                'entry 1: "name" is not a non-empty string without escapes'
        for text, reason in cases.items():
            self.assertEqual(reject_reason(text), reason)
        # Not JSON numbers at all: the reader names the place.
        for value in ("nan", "inf", "12abc", "0x10", "", "1e"):
            self.assertRegex(reject_reason(report(f'"cpu_time_ns": {value}')),
                             r"^not valid JSON: .* at line 1 column \d+$")
        with self.assertRaisesRegex(ReportError, "^not UTF-8 text at byte 2$"):
            parse_report(b'{"\xff": 1}')

    def testMutantsParseToSoundRowsOrAreRejectedByName(self):
        """Seeded byte, token and value damage to both reports: each mutant
        parses to sound rows or is rejected by name, never otherwise."""
        rng = random.Random(20107)
        sources = [MICRO.read_bytes(), RAW_REPORT]
        outcomes = {"accepted": 0, "rejected": 0}
        for i in range(4000):
            mutant = mutate(rng, sources[i % 2])
            try:
                rows = parse_report(mutant)
            except ReportError as e:
                self.assertTrue(str(e), mutant)
                outcomes["rejected"] += 1
            else:
                self.assertSoundRows(rows, mutant)
                outcomes["accepted"] += 1
        # Each outcome covers more than 10 % of the mutants, so the run
        # tests the checks, not just one branch.
        self.assertGreater(min(outcomes.values()), 400, outcomes)


class PerfCompareTest(unittest.TestCase):
    def compare_scaled(self, source, factor, threshold):
        """Exit code of `compare` of `source` against a copy whose first
        row's number is scaled by `factor`."""
        doc = json.loads(source.read_text())
        row = doc["benchmarks"][0]
        row["value" if "value" in row else "cpu_time_ns"] *= factor
        with tempfile.TemporaryDirectory() as tmp:
            current = pathlib.Path(tmp) / "current.json"
            current.write_text(json.dumps(doc))
            result = run_script("compare", source, current,
                                "--threshold", threshold)
        self.assertEqual(result.stderr, "")
        return result.returncode

    def testValueRowsArePinnedBothWays(self):
        for factor, code in ((1, 0), (1.04, 0), (0.5, 1), (2, 1)):
            self.assertEqual(
                self.compare_scaled(DEGRADATION, factor, 0.05), code)
        # A time row fails only when it is slower.
        for factor, code in ((1, 0), (0.5, 0), (2, 1)):
            self.assertEqual(self.compare_scaled(MICRO, factor, 0.30), code)


if __name__ == "__main__":
    unittest.main()
