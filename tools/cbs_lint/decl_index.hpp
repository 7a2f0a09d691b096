// Lightweight, dependency-free C++ declaration front-end for cbs_lint.
//
// This is NOT a C++ parser. It is a scope-tracking token scanner that
// extracts exactly what the whole-program structural rules need:
//
//   * every class/struct in the tree (including nested classes and class
//     templates), with a per-class member table — name, type text and
//     static-ness — and every method's parameter list, constructor
//     init-list and body text;
//   * out-of-line member definitions (`X::Y::f(...) { ... }`), attached
//     back to their class so "does this class call schedule_at?" and
//     "does the clone constructor copy this member?" are whole-program
//     questions, not per-header ones;
//   * the project include graph (quoted includes only).
//
// Parsing philosophy, same as the rest of the checker: deliberately dumb
// and conservative. Constructs it cannot classify (function pointers,
// exotic declarators, macro-generated members) fall out of the member
// table rather than producing wrong entries, so structural rules can miss
// a member but will not hallucinate one.

#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "lint.hpp"

namespace cbslint {

/// One non-function declaration inside a class body.
struct MemberDecl {
  std::string name;
  std::string type_text;  ///< tokens left of the name, space-joined
  std::size_t line = 0;   ///< 1-based, in the declaring file
  bool is_static = false;
};

/// One method declaration or definition (in-class or out-of-line). An
/// in-class pure declaration has `has_body == false`; its out-of-line
/// definition appears as a second record carrying the body.
struct MethodDecl {
  std::string name;       ///< `Link` for ctors, `~Link` for dtors
  std::string params;     ///< parameter-list tokens, space-joined
  std::string init_list;  ///< ctor init-list tokens (may be empty)
  std::string body;       ///< body tokens (empty when !has_body)
  std::size_t line = 0;
  bool has_body = false;
  bool is_deleted = false;
  bool is_defaulted = false;
};

struct ClassDecl {
  std::string qualified;  ///< e.g. "cbs::net::Link::Cold"
  std::string simple;     ///< e.g. "Cold"
  std::string rel;        ///< file declaring the class body
  std::size_t line = 0;
  std::vector<MemberDecl> members;
  std::vector<MethodDecl> methods;
};

/// One quoted `#include "target"` directive.
struct IncludeEdge {
  std::string rel;  ///< including file
  std::size_t line = 0;
  std::string target;  ///< include path as written
};

/// An out-of-line definition not yet attached to its class.
struct OutOfLineDef {
  std::string ns;                       ///< enclosing namespace, "a::b"
  std::vector<std::string> class_path;  ///< qualifier chain before the name
  MethodDecl method;
  std::string rel;
};

/// Everything the front-end extracted from one file. Produced per file,
/// merged into a DeclIndex afterwards.
struct ParsedFile {
  std::vector<ClassDecl> classes;
  std::vector<OutOfLineDef> defs;
  std::vector<IncludeEdge> includes;
};

ParsedFile parse_file(const SourceFile& f);

/// The whole-program view: classes keyed by qualified name, with
/// out-of-line bodies folded into their class's method list.
class DeclIndex {
 public:
  /// Merges per-file results. Files must be added in deterministic order;
  /// unresolvable out-of-line definitions are dropped silently (free
  /// functions, template specializations — nothing the rules need).
  void build(std::vector<ParsedFile> parsed);

  [[nodiscard]] const std::map<std::string, ClassDecl>& classes() const {
    return classes_;
  }
  [[nodiscard]] const std::vector<IncludeEdge>& includes() const {
    return includes_;
  }

  /// The enclosing class of `qualified`, or nullptr (for bubble-up rules
  /// on nested classes).
  [[nodiscard]] const ClassDecl* enclosing(const std::string& qualified) const;

 private:
  std::map<std::string, ClassDecl> classes_;
  std::vector<IncludeEdge> includes_;
};

// --- structural_rules.cpp ----------------------------------------------

/// The three whole-program rule families (DESIGN.md §15):
///   snapshot-complete — every non-static data member of a class with a
///     clone constructor must be mentioned in that constructor;
///   restore-coverage — every stored EventId of a scheduling class (or the
///     member holding a nested struct that stores one) must be copied by
///     the class's clone constructor;
///   layering — the include DAG `util → simcore → {stats, linalg} →
///     {net, compute, workload, sla} → models → core → harness →
///     tools/tests/bench/examples` admits no back-edges.
/// Waivers are consumed from `files` (keyed by generic rel path) at the
/// line each finding anchors to.
void run_structural_rules(const DeclIndex& idx,
                          std::map<std::string, SourceFile*>& files,
                          std::vector<Finding>* out);

}  // namespace cbslint
