#!/usr/bin/env python3
"""perf_compare - the perf-regression gate over google-benchmark JSON.

`emit RAW OUT` distills a report into {"name", "cpu_time_ns"} rows, in ns
whatever the time_unit; "value" rows and "peak_rss_bytes" keys pass through.
`compare BASE CUR [--threshold T]` exits 1 when a row on both sides moves
past T (default 0.30): a time or RSS row when it grows by more, a value row
(a simulated quantity, not a time) when it moves either way by more. Rows
on one side only never fail the gate; a zero time is skipped. A report it
cannot trust, a bad --threshold or an unknown argument exits 2, named.
"""

import collections
import json
import math
import re
import sys

NS_PER_UNIT = {"ns": 1.0, "us": 1.0e3, "ms": 1.0e6, "s": 1.0e9}
Row = collections.namedtuple("Row", "name is_value amount peak_rss_bytes")
USAGE = """usage:
  perf_compare emit <raw_benchmark.json> <baseline.json>
  perf_compare compare <baseline.json> <current.json> [--threshold 0.30]"""


class ReportError(Exception):
    """A report the gate cannot trust; the message names the defect."""


def _reject_constant(token):
    raise ReportError(f"non-finite constant {token} is not a JSON number")


def _number(entry, key, name):
    """The finite number >= 0 under `key`, or None when the key is absent."""
    value = entry.get(key)
    if key not in entry or (isinstance(value, float) and value >= 0.0
                            and math.isfinite(value)):
        return value
    raise ReportError(f"bad {key} in entry '{name}': not a finite number >= 0")


def _row(index, entry):
    name = entry.get("name") if isinstance(entry, dict) else None
    if (not isinstance(name, str) or not name or not name.isprintable()
            or '"' in name or "\\" in name):
        raise ReportError(
            f'entry {index}: "name" is not a non-empty string without escapes')
    value = _number(entry, "value", name)
    time_ns = _number(entry, "cpu_time_ns", name)
    cpu_time = _number(entry, "cpu_time", name) if time_ns is None else None
    if cpu_time is not None:
        unit = entry.get("time_unit", "ns")
        if not isinstance(unit, str):
            raise ReportError(f"bad time_unit in entry '{name}': not a string")
        if unit not in NS_PER_UNIT:
            raise ReportError(f"unknown time_unit '{unit}' in entry '{name}'")
        time_ns = cpu_time * NS_PER_UNIT[unit]
        if math.isinf(time_ns):
            raise ReportError(
                f"cpu_time of entry '{name}' overflows in nanoseconds")
    if value is not None and time_ns is not None:
        raise ReportError(f"entry '{name}' has both a time and a value")
    rss = _number(entry, "peak_rss_bytes", name) or 0.0
    return Row(name, value is not None, value or time_ns or 0.0, rss)


def parse_report(data):
    """The rows of a report given as bytes, in file order."""
    try:
        doc = json.loads(data.decode("utf-8"), parse_int=float,
                         parse_constant=_reject_constant)
    except UnicodeDecodeError as e:
        raise ReportError(f"not UTF-8 text at byte {e.start}") from None
    except json.JSONDecodeError as e:
        raise ReportError(f"not valid JSON: {e.msg} at line {e.lineno}"
                          f" column {e.colno}") from None
    except RecursionError:
        raise ReportError("not valid JSON: nested too deeply") from None
    if not isinstance(doc, dict) or "benchmarks" not in doc:
        raise ReportError('no "benchmarks" key')
    if not isinstance(doc["benchmarks"], list):
        raise ReportError('"benchmarks" is not an array')
    rows = [_row(i, e) for i, e in enumerate(doc["benchmarks"], start=1)]
    return [r for r in rows if r.amount > 0.0]


def read_rows(path):
    try:
        with open(path, "rb") as f:
            return parse_report(f.read())
    except OSError:
        raise ReportError(f"cannot read {path}") from None
    except ReportError as e:
        raise ReportError(f"{path}: {e}") from None


def emit(in_path, out_path):
    rows = read_rows(in_path)
    if not rows:
        raise ReportError(f"no benchmarks found in {in_path}")
    lines = []
    for r in rows:
        key = "value" if r.is_value else "cpu_time_ns"
        rss = f', "peak_rss_bytes": {r.peak_rss_bytes:.0f}' \
            if r.peak_rss_bytes > 0.0 else ""
        lines.append(f'    {{"name": "{r.name}", "{key}": {r.amount:.1f}{rss}}}')
    try:
        with open(out_path, "w", encoding="utf-8") as f:
            f.write('{\n  "benchmarks": [\n' + ",\n".join(lines) + "\n  ]\n}\n")
    except OSError:
        raise ReportError(f"cannot write {out_path}") from None
    print(f"perf_compare: wrote {len(rows)} baselines to {out_path}")
    return 0


def _print_row(regressed, name, base, cur, fmt, unit):
    """Prints one gated row; returns `regressed`."""
    print(f"  [{'REGRESS' if regressed else 'ok     '}] {name:<55} "
          f"{base:12{fmt}} -> {cur:12{fmt}} {unit:<3} "
          f"({(cur / base - 1.0) * 100.0:+.1f}%)")
    return regressed


def compare(base_path, cur_path, threshold):
    base, cur = read_rows(base_path), read_rows(cur_path)
    if not base or not cur:
        raise ReportError(
            f"empty benchmark set ({cur_path if base else base_path})")
    base_names = {r.name for r in base}
    cur_by_name = {r.name: r for r in reversed(cur)}  # a repeat: its first
    compared = regressions = 0
    for b in base:
        c = cur_by_name.get(b.name)
        if c is None:
            print(f"  [gone]   {b.name} (in baseline only)")
            continue
        compared += 1
        regressions += _print_row(
            abs(c.amount / b.amount - 1.0) > threshold if b.is_value
            else c.amount > b.amount * (1.0 + threshold),
            b.name, b.amount, c.amount, ".1f", "" if b.is_value else "ns")
        # Gated only when both sides report one, so a row gaining (or
        # dropping) RSS instrumentation never fails the gate.
        if b.peak_rss_bytes > 0.0 and c.peak_rss_bytes > 0.0:
            compared += 1
            regressions += _print_row(
                c.peak_rss_bytes > b.peak_rss_bytes * (1.0 + threshold),
                b.name + " [rss]", b.peak_rss_bytes, c.peak_rss_bytes, ".0f",
                "B")
        elif b.peak_rss_bytes > 0.0 or c.peak_rss_bytes > 0.0:
            print(f"  [info]   {b.name} [rss] reported on one side only"
                  " — not gated")
    additions = [c.name for c in cur if c.name not in base_names]
    for name in additions:
        print(f"  [new]    {name} (addition — not in baseline, not gated)")
    if additions:
        print(f"perf_compare: warning: {len(additions)} new benchmark(s)"
              " without a baseline; re-run `perf_compare emit` to pin them")
    print(f"perf_compare: {compared} compared, {regressions} regression(s)"
          f" beyond {threshold * 100.0:g}%, {len(additions)} addition(s)")
    return 1 if regressions else 0


def main(args):
    sys.stdout.reconfigure(encoding="utf-8")
    if len(args) == 3 and args[0] == "emit":
        return emit(args[1], args[2])
    if len(args) < 3 or args[0] != "compare":
        sys.stderr.write(USAGE + "\n")
        return 2
    threshold = 0.30
    for i in range(3, len(args), 2):
        if args[i] != "--threshold":
            raise ReportError(f"unknown argument '{args[i]}'\n{USAGE}")
        if i + 1 == len(args):
            raise ReportError("--threshold needs a value")
        try:  # a whole decimal number: no inf, nan, hex or spaces
            threshold = float(args[i + 1]) if re.fullmatch(
                r"[0-9+\-.eE]+", args[i + 1]) else math.nan
        except ValueError:
            threshold = math.nan
        if not 0.0 <= threshold < math.inf:
            raise ReportError(f"bad number for --threshold: '{args[i + 1]}'"
                              " (want a finite number >= 0)")
    return compare(args[1], args[2], threshold)


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except ReportError as e:
        sys.stdout.flush()
        sys.stderr.write(f"perf_compare: {e}\n")
        sys.exit(2)
