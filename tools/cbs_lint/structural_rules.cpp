// Whole-program structural rules over the declaration index.
//
// These are the contracts the fork machinery rests on, promoted from
// golden-pin-after-the-fact to machine checks (DESIGN.md §15): a silently
// missed member in a clone constructor diverges a fork without any local
// test failing, and a stored EventId that a clone constructor does not copy
// leaves the fork's copy of that event without a handle — it can no longer
// be cancelled, which only the fork-equivalence suite would catch, at a
// distance. The layering rule hardens the module DAG.

#include <cstddef>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "decl_index.hpp"
#include "lint.hpp"

namespace cbslint {

namespace {

constexpr std::string_view kSnapshotRule = "snapshot-complete";
constexpr std::string_view kRestoreRule = "restore-coverage";
constexpr std::string_view kLayeringRule = "layering";

/// Emits `finding` unless a matching waiver sits on its line (or directly
/// above) in the anchoring file.
void emit(std::map<std::string, SourceFile*>& files, Finding finding,
          const std::string& waiver_token, std::vector<Finding>* out) {
  const auto it = files.find(finding.rel);
  if (it != files.end()) {
    if (try_waive(*it->second, finding.line, waiver_token)) return;
    if (finding.snippet.empty() && finding.line >= 1 &&
        finding.line <= it->second->raw.size()) {
      finding.snippet = it->second->raw[finding.line - 1];
    }
  }
  out->push_back(std::move(finding));
}

/// True when `params` (space-joined tokens) contains `const <simple> &` —
/// the own-type const reference that marks a clone constructor. Joined
/// token text guarantees single spaces, so a plain substring search with
/// the leading `const ` and trailing ` &` is already whole-word.
bool takes_const_self_ref(const std::string& params,
                          const std::string& simple) {
  return params.find("const " + simple + " &") != std::string::npos;
}

/// A clone constructor: named like the class, takes `const X&` (alongside
/// the destination engine or estimator rebinds), and actually has a body
/// (an `= delete` copy ctor is the opposite of a clone ctor).
bool is_clone_ctor(const ClassDecl& cls, const MethodDecl& m) {
  return m.name == cls.simple && m.has_body && !m.is_deleted &&
         !m.is_defaulted && takes_const_self_ref(m.params, cls.simple);
}

std::string clone_mention_text(const ClassDecl& cls) {
  std::string text;
  for (const MethodDecl& m : cls.methods) {
    if (!is_clone_ctor(cls, m)) continue;
    text += m.init_list;
    text += ' ';
    text += m.body;
    text += ' ';
  }
  return text;
}

bool class_schedules(const ClassDecl& cls) {
  for (const MethodDecl& m : cls.methods) {
    if (!m.has_body) continue;
    if (has_token(m.body, "schedule_at") || has_token(m.body, "schedule_in") ||
        has_token(m.init_list, "schedule_at") ||
        has_token(m.init_list, "schedule_in")) {
      return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------------
// snapshot-complete
// ---------------------------------------------------------------------

void check_snapshot_completeness(const DeclIndex& idx,
                                 std::map<std::string, SourceFile*>& files,
                                 std::vector<Finding>* out) {
  for (const auto& [qualified, cls] : idx.classes()) {
    if (!path_starts_with(cls.rel, "src/")) continue;
    for (const MethodDecl& ctor : cls.methods) {
      if (!is_clone_ctor(cls, ctor)) continue;
      const std::string mentions = ctor.init_list + ' ' + ctor.body;
      for (const MemberDecl& member : cls.members) {
        if (member.is_static) continue;
        if (has_token(mentions, member.name)) continue;
        emit(files,
             {cls.rel, member.line, std::string(kSnapshotRule),
              "data member '" + member.name + "' of '" + qualified +
                  "' is never mentioned in the clone constructor (" +
                  std::to_string(ctor.line) +
                  "): a fork silently diverges when a value member is "
                  "neither copied nor deliberately reset — copy it, or "
                  "waive per-member with the reason it must not cross a "
                  "fork",
              ""},
             std::string(kSnapshotRule), out);
      }
      break;  // one ctor per class is the convention; avoid double reports
    }
  }
}

// ---------------------------------------------------------------------
// restore-coverage
// ---------------------------------------------------------------------

void check_restore_coverage(const DeclIndex& idx,
                            std::map<std::string, SourceFile*>& files,
                            std::vector<Finding>* out) {
  for (const auto& [qualified, cls] : idx.classes()) {
    if (!path_starts_with(cls.rel, "src/")) continue;
    std::vector<const MemberDecl*> event_members;
    for (const MemberDecl& member : cls.members) {
      if (member.is_static) continue;
      if (has_token(member.type_text, "EventId")) {
        event_members.push_back(&member);
      }
    }
    if (event_members.empty()) continue;

    if (class_schedules(cls)) {
      const std::string coverage = clone_mention_text(cls);
      if (coverage.empty()) {
        emit(files,
             {cls.rel, cls.line, std::string(kRestoreRule),
              "'" + qualified +
                  "' stores EventId members and schedules events but "
                  "defines no clone constructor copying them: a fork would "
                  "carry its pending events with no handle to cancel them",
              ""},
             std::string(kRestoreRule), out);
        continue;
      }
      for (const MemberDecl* member : event_members) {
        if (has_token(coverage, member->name)) continue;
        emit(files,
             {cls.rel, member->line, std::string(kRestoreRule),
              "stored event id '" + member->name + "' of '" + qualified +
                  "' is never mentioned in the clone constructor: the "
                  "fork's copy of the event it names keeps firing with no "
                  "handle to cancel it — copy the id as is",
              ""},
             std::string(kRestoreRule), out);
      }
      continue;
    }

    // A non-scheduling holder (Link::Cold, Cluster::Running): its ids are
    // copied with the enclosing component's member that holds it, so the
    // enclosing clone constructor must copy that member.
    const ClassDecl* outer = idx.enclosing(qualified);
    if (outer == nullptr) continue;
    const std::string coverage = clone_mention_text(*outer);
    if (coverage.empty()) continue;  // outer is not forkable
    for (const MemberDecl& holder : outer->members) {
      if (holder.is_static || !has_token(holder.type_text, cls.simple)) {
        continue;
      }
      if (has_token(coverage, holder.name)) continue;
      for (const MemberDecl* member : event_members) {
        emit(files,
             {cls.rel, member->line, std::string(kRestoreRule),
              "stored event id '" + member->name + "' of nested '" +
                  qualified + "' sits in '" + holder.name +
                  "', which the clone constructor of '" + outer->qualified +
                  "' does not copy: the fork's copy of the event it names "
                  "keeps firing with no handle to cancel it",
              ""},
             std::string(kRestoreRule), out);
      }
    }
  }
}

// ---------------------------------------------------------------------
// layering
// ---------------------------------------------------------------------

/// Module ranks encode the DAG. Equal ranks are unrelated siblings (an
/// include between them is a back-edge too); gaps leave room for future
/// layers.
int module_rank(std::string_view module) {
  if (module == "util") return 0;
  if (module == "simcore") return 10;
  if (module == "stats" || module == "linalg") return 20;
  if (module == "net" || module == "compute" || module == "workload" ||
      module == "sla") {
    return 30;
  }
  if (module == "models") return 40;
  if (module == "core") return 50;
  if (module == "harness") return 60;
  return -1;
}

std::string_view first_component(std::string_view path) {
  const std::size_t slash = path.find('/');
  return slash == std::string_view::npos ? path : path.substr(0, slash);
}

void check_layering(const DeclIndex& idx,
                    std::map<std::string, SourceFile*>& files,
                    std::vector<Finding>* out) {
  for (const IncludeEdge& edge : idx.includes()) {
    if (!path_starts_with(edge.rel, "src/")) continue;  // top layer: free
    const std::string_view from =
        first_component(std::string_view(edge.rel).substr(4));
    const std::string_view to = first_component(edge.target);
    const int from_rank = module_rank(from);
    const int to_rank = module_rank(to);
    if (from_rank < 0 || to_rank < 0) continue;  // not a project module
    if (from == to || to_rank < from_rank) continue;
    emit(files,
         {edge.rel, edge.line, std::string(kLayeringRule),
          "include of '" + edge.target + "' is a back-edge in the module "
          "DAG (" + std::string(from) + " may not depend on " +
              std::string(to) +
              "): util -> simcore -> {stats, linalg} -> {net, compute, "
              "workload, sla} -> models -> core -> harness -> "
              "tools/tests/bench/examples",
          ""},
         std::string(kLayeringRule), out);
  }
}

}  // namespace

void run_structural_rules(const DeclIndex& idx,
                          std::map<std::string, SourceFile*>& files,
                          std::vector<Finding>* out) {
  check_snapshot_completeness(idx, files, out);
  check_restore_coverage(idx, files, out);
  check_layering(idx, files, out);
}

}  // namespace cbslint
