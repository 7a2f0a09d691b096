// cbs_lint — shared source model for the cloudburst invariant checker.
//
// The simulator's SLA numbers are only reproducible because every run is
// bit-deterministic at a fixed seed, and several PRs made that determinism
// rest on conventions a compiler cannot see: deterministic-order containers
// in sim state, seeded randomness only, components that report to an owner
// interface instead of a stored `std::function`, `double` for time/size
// arithmetic, opaque generation-checked `EventId` handles — and, since the
// fork work, the clone-constructor contracts that make a world
// deep-copyable mid-run.
// clang-tidy covers the generic bug classes; this tool turns the
// project-specific rules into machine checks so they survive refactors
// without hand auditing.
//
// Design constraints: no libclang (the container only ships a GCC
// toolchain). The per-line rules are a comment/string-aware token scanner;
// the structural rules (decl_index.hpp) sit on a deliberately lightweight
// declaration front-end that understands just enough C++ — namespaces,
// (nested/templated) classes, data members with default initializers,
// method bodies, include directives — to check whole-program contracts.
// Anything subtler is left to clang-tidy or review.
//
// Waiver syntax, on the offending line or the line directly above:
//   // cbs-lint: <token>-ok(reason)
// The reason is mandatory; a waiver that suppresses nothing, or that names
// a rule that no longer exists, is itself an error (rule `stale-waiver`),
// so waivers cannot outlive their code or their rule.
//
// Exit codes: 0 clean, 1 violations found, 2 usage/filesystem error.

#pragma once

#include <cstddef>
#include <filesystem>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace cbslint {

// ---------------------------------------------------------------------
// Source model: one file, split into lines, each with a "code view" in
// which comments and string/character literals are blanked out so token
// searches cannot match inside them. Waivers are parsed from the comment
// text that the code view discards.
// ---------------------------------------------------------------------

struct Waiver {
  std::size_t line = 0;  ///< 1-based line the waiver comment sits on
  std::string token;     ///< e.g. "nondeterministic" for ...-ok(...)
  std::string reason;
  bool used = false;  ///< consumed by at least one suppression
};

struct SourceFile {
  std::filesystem::path path;     ///< as reported (relative to root)
  std::vector<std::string> raw;   ///< original lines
  std::vector<std::string> code;  ///< comment/string-blanked lines
  std::vector<Waiver> waivers;
};

/// One reported finding. `rule` is the bracketed id; `snippet` is the raw
/// source line it anchors to (empty for file/class-level findings).
struct Finding {
  std::string rel;
  std::size_t line = 0;
  std::string rule;
  std::string message;
  std::string snippet;
};

// --- source_model.cpp --------------------------------------------------

/// Blanks comments and string/char literals, preserving line structure.
/// `in_block_comment` carries /* ... */ state across lines.
std::string strip_line(const std::string& line, bool& in_block_comment);

/// Parses `cbs-lint: <token>-ok(reason)` out of a raw line (typically a
/// comment). Returns nullopt when the line carries no waiver; a malformed
/// marker sets *error instead.
std::optional<Waiver> parse_waiver(const std::string& raw, std::size_t lineno,
                                   std::string* error);

/// Loads and strips one file. Waiver-syntax errors are appended to
/// *errors; an unreadable file returns nullopt.
std::optional<SourceFile> load_file(const std::filesystem::path& abs,
                                    const std::filesystem::path& rel,
                                    std::vector<std::string>* errors);

/// A violation on line N is suppressed by a matching waiver on line N or
/// N-1 (comment directly above).
bool try_waive(SourceFile& f, std::size_t lineno, const std::string& token);

// --- Token matching helpers (code view only) ---------------------------

bool is_ident_char(char c);

/// True when `token` occurs in `code` as a whole identifier (neighbours
/// are not identifier characters).
bool has_token(const std::string& code, std::string_view token);

/// True when `token` occurs as an identifier immediately followed by `(`
/// (optionally spaced) and is NOT a member access (`.token(` /
/// `->token(`), so free/std calls like `rand()` match but `obj.time()`
/// does not.
bool has_call(const std::string& code, std::string_view token);

/// True when `token` occurs followed by `(` (optionally spaced),
/// including member calls (`sim_.cancel(`), which `has_call` deliberately
/// excludes. Used by the event-churn scan.
bool has_member_or_free_call(const std::string& code, std::string_view token);

bool path_starts_with(const std::string& rel, std::string_view prefix);

// --- token_rules.cpp ---------------------------------------------------

/// One per-line rule: `applies` scopes it by path, `matches` fires on a
/// stripped code line.
struct Rule {
  std::string id;            ///< printed as [id]
  std::string waiver_token;  ///< waived via `// cbs-lint: <token>-ok(...)`
  std::string message;
  bool (*applies)(const std::string& rel);
  bool (*matches)(const std::string& code);
};

const std::vector<Rule>& token_rules();

/// Runs every per-line rule (including the file-level event-churn scan)
/// over one file, appending unwaived violations to *out.
void scan_token_rules(SourceFile& f, std::vector<Finding>* out);

/// Every waiver token any rule (per-line or structural) accepts. A waiver
/// naming anything else is reported as [stale-waiver].
const std::vector<std::string>& known_waiver_tokens();

}  // namespace cbslint
