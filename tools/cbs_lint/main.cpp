// cbs_lint entry point: file walk, per-file scan, whole-program structural
// pass, report emission.
//
// Usage:
//   cbs_lint [--root <dir>] [--format text|json]
//            [--list-waivers | --fix-waivers] [--quiet]
//
// Files are scanned (load, strip, token rules, declaration parse) in
// sorted-path order and every report is sorted by (file, line, rule), so
// the output is a function of the tree alone.

#include <algorithm>
#include <cstddef>
#include <deque>
#include <filesystem>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "decl_index.hpp"
#include "lint.hpp"

namespace fs = std::filesystem;

namespace cbslint {
namespace {

struct Options {
  fs::path root = ".";
  bool list_waivers = false;
  bool quiet = false;
  bool json = false;
};

bool should_scan(const fs::path& rel) {
  const std::string s = rel.generic_string();
  // The negative-lint fixtures deliberately violate every rule; they are
  // scanned only when a fixture directory is passed as --root directly.
  if (s.find("tests/lint/fixtures") != std::string::npos) return false;
  // The checker documents the waiver grammar in its own comments (and the
  // parser self-test embeds declaration fragments), which would parse as
  // malformed/stale waivers.
  if (s.find("tools/cbs_lint") != std::string::npos) return false;
  if (s.find("tests/lint/decl_parser_test") != std::string::npos) return false;
  if (path_starts_with(s, "build")) return false;
  const std::string ext = rel.extension().string();
  return ext == ".cpp" || ext == ".hpp" || ext == ".cc" || ext == ".h";
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static constexpr char kHex[] = "0123456789abcdef";
          out += "\\u00";
          out += kHex[(static_cast<unsigned char>(c) >> 4) & 0xF];
          out += kHex[static_cast<unsigned char>(c) & 0xF];
        } else {
          out += c;
        }
    }
  }
  return out;
}

void print_json(const std::vector<Finding>& findings,
                const std::vector<std::string>& errors,
                const std::vector<SourceFile*>& files, std::size_t scanned) {
  std::cout << "{\n  \"tool\": \"cbs_lint\",\n";
  std::cout << "  \"files_scanned\": " << scanned << ",\n";
  std::cout << "  \"violations\": [";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& v = findings[i];
    std::cout << (i == 0 ? "\n" : ",\n");
    std::cout << "    {\"file\": \"" << json_escape(v.rel)
              << "\", \"line\": " << v.line << ", \"rule\": \""
              << json_escape(v.rule) << "\", \"message\": \""
              << json_escape(v.message) << "\", \"snippet\": \""
              << json_escape(v.snippet) << "\"}";
  }
  std::cout << (findings.empty() ? "],\n" : "\n  ],\n");
  std::cout << "  \"errors\": [";
  for (std::size_t i = 0; i < errors.size(); ++i) {
    std::cout << (i == 0 ? "\n" : ",\n");
    std::cout << "    \"" << json_escape(errors[i]) << "\"";
  }
  std::cout << (errors.empty() ? "],\n" : "\n  ],\n");
  std::cout << "  \"active_waivers\": [";
  bool first = true;
  for (const SourceFile* f : files) {
    for (const Waiver& w : f->waivers) {
      if (!w.used) continue;
      std::cout << (first ? "\n" : ",\n");
      first = false;
      std::cout << "    {\"file\": \"" << json_escape(f->path.generic_string())
                << "\", \"line\": " << w.line << ", \"rule\": \""
                << json_escape(w.token) << "\", \"reason\": \""
                << json_escape(w.reason) << "\"}";
    }
  }
  std::cout << (first ? "]\n" : "\n  ]\n");
  std::cout << "}\n";
}

int run(const Options& opt) {
  std::vector<std::string> errors;

  const std::vector<std::string> top_dirs = {"src", "tools", "bench", "tests",
                                             "examples"};
  std::vector<fs::path> paths;
  for (const auto& dir : top_dirs) {
    const fs::path base = opt.root / dir;
    std::error_code ec;
    if (!fs::is_directory(base, ec)) continue;
    for (auto it = fs::recursive_directory_iterator(base, ec);
         it != fs::recursive_directory_iterator(); it.increment(ec)) {
      if (ec) {
        errors.push_back("walk failed under " + base.string() + ": " +
                         ec.message());
        break;
      }
      if (!it->is_regular_file()) continue;
      const fs::path rel = fs::relative(it->path(), opt.root, ec);
      if (!ec && should_scan(rel)) paths.push_back(rel);
    }
  }
  std::sort(paths.begin(), paths.end());  // deterministic scan order

  std::deque<SourceFile> loaded;  // stable addresses for the tables below
  std::vector<Finding> findings;
  std::vector<SourceFile*> files;
  std::map<std::string, SourceFile*> files_by_rel;
  std::vector<ParsedFile> parsed;
  for (const fs::path& rel : paths) {
    std::optional<SourceFile> file = load_file(opt.root / rel, rel, &errors);
    if (!file) continue;
    SourceFile& f = loaded.emplace_back(std::move(*file));
    scan_token_rules(f, &findings);
    parsed.push_back(parse_file(f));
    files.push_back(&f);
    files_by_rel[f.path.generic_string()] = &f;
  }

  // Waivers naming a rule that does not exist are stale by definition — a
  // renamed rule must not leave waivers behind that silently re-authorize
  // nothing (or, worse, wait for a future rule to adopt the name).
  std::set<std::pair<std::string, std::size_t>> unknown_waivers;
  for (const SourceFile* f : files) {
    for (const Waiver& w : f->waivers) {
      const auto& known = known_waiver_tokens();
      if (std::find(known.begin(), known.end(), w.token) != known.end()) {
        continue;
      }
      const std::string rel = f->path.generic_string();
      unknown_waivers.emplace(rel, w.line);
      findings.push_back(
          {rel, w.line, "stale-waiver",
           "waiver '" + w.token + "-ok(" + w.reason +
               ")' names a rule that does not exist (renamed or removed?) "
               "— delete it or update the rule name",
           f->raw[w.line - 1]});
    }
  }

  // Whole-program pass: member tables + include graph, then the three
  // structural rule families.
  DeclIndex index;
  index.build(std::move(parsed));
  run_structural_rules(index, files_by_rel, &findings);

  // Stale waivers: a waiver that suppressed nothing is dead weight that
  // would silently re-authorize a future violation — treat it as an
  // error. (Must run after the structural pass, which consumes waivers.)
  for (const SourceFile* f : files) {
    for (const Waiver& w : f->waivers) {
      if (w.used) continue;
      const std::string rel = f->path.generic_string();
      if (unknown_waivers.count({rel, w.line}) != 0) continue;
      findings.push_back({rel, w.line, "stale-waiver",
                          "waiver '" + w.token + "-ok(" + w.reason +
                              ")' suppresses nothing — delete it",
                          f->raw[w.line - 1]});
    }
  }

  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.rel, a.line, a.rule) <
                     std::tie(b.rel, b.line, b.rule);
            });

  if (opt.json) {
    print_json(findings, errors, files, files.size());
    return findings.empty() && errors.empty() ? 0 : 1;
  }

  if (opt.list_waivers) {
    std::size_t count = 0;
    for (const SourceFile* f : files) {
      for (const Waiver& w : f->waivers) {
        if (!w.used) continue;
        std::cout << f->path.generic_string() << ":" << w.line << ": ["
                  << w.token << "-ok] " << w.reason << "\n";
        ++count;
      }
    }
    std::cout << "cbs_lint: " << count << " active waiver(s)\n";
  }

  for (const Finding& v : findings) {
    std::cout << v.rel << ":" << v.line << ": [" << v.rule << "] "
              << v.message << "\n";
    if (!opt.quiet && !v.snippet.empty()) {
      std::cout << "    " << v.snippet << "\n";
    }
  }
  for (const std::string& e : errors) std::cout << e << "\n";

  if (!findings.empty() || !errors.empty()) {
    std::cout << "cbs_lint: FAILED — " << findings.size()
              << " violation(s), " << errors.size() << " error(s) across "
              << files.size() << " scanned file(s)\n";
    return 1;
  }
  if (!opt.list_waivers) {
    std::cout << "cbs_lint: OK — " << files.size() << " file(s) clean\n";
  }
  return 0;
}

}  // namespace
}  // namespace cbslint

int main(int argc, char** argv) {
  cbslint::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--root" && i + 1 < argc) {
      opt.root = argv[++i];
    } else if (arg == "--list-waivers" || arg == "--fix-waivers") {
      // --fix-waivers is the review spelling: print every active waiver
      // (file, line, rule, reason) so they can be re-justified or removed.
      opt.list_waivers = true;
    } else if (arg == "--quiet") {
      opt.quiet = true;
    } else if (arg == "--format" && i + 1 < argc) {
      const std::string_view v = argv[++i];
      if (v == "json") {
        opt.json = true;
      } else if (v != "text") {
        std::cerr << "cbs_lint: --format expects 'text' or 'json'\n";
        return 2;
      }
    } else if (arg.rfind("--format=", 0) == 0) {
      const std::string_view v =
          arg.substr(std::string_view("--format=").size());
      if (v == "json") {
        opt.json = true;
      } else if (v != "text") {
        std::cerr << "cbs_lint: --format expects 'text' or 'json'\n";
        return 2;
      }
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: cbs_lint [--root <dir>] [--format text|json] "
                   "[--list-waivers|--fix-waivers] [--quiet]\n";
      return 0;
    } else {
      std::cerr << "cbs_lint: unknown argument '" << arg << "'\n";
      return 2;
    }
  }
  std::error_code ec;
  if (!std::filesystem::is_directory(opt.root, ec)) {
    std::cerr << "cbs_lint: --root " << opt.root << " is not a directory\n";
    return 2;
  }
  return cbslint::run(opt);
}
