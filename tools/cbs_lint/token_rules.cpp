// Per-line (and per-loop) rules: written so that a token match IS a
// violation; anything subtler lives in the structural rules or clang-tidy.

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "lint.hpp"

namespace cbslint {

namespace {

bool in_engine_layers(const std::string& rel) {
  return path_starts_with(rel, "src/simcore/") ||
         path_starts_with(rel, "src/core/");
}
/// The container-determinism rule also covers src/models/: estimator state
/// (QRSM, hazard) is iterated when scoring and cloned across forks, so it
/// must be deterministic-order just like engine state.
bool in_deterministic_state_layers(const std::string& rel) {
  return in_engine_layers(rel) || path_starts_with(rel, "src/models/");
}
bool in_src_outside_harness(const std::string& rel) {
  return path_starts_with(rel, "src/") &&
         !path_starts_with(rel, "src/harness/");
}
bool in_src(const std::string& rel) { return path_starts_with(rel, "src/"); }
/// The event-churn rule watches the layers that own per-item timers: the
/// link/transfer core and the scheduler/controller layer above it.
bool in_event_hot_layers(const std::string& rel) {
  return path_starts_with(rel, "src/net/") ||
         path_starts_with(rel, "src/core/");
}
/// The std-function rule watches every layer whose components report to an
/// owner: the engine, the link and compute substrates, and the controller.
bool in_component_layers(const std::string& rel) {
  return in_engine_layers(rel) || path_starts_with(rel, "src/net/") ||
         path_starts_with(rel, "src/compute/");
}
bool in_src_outside_simcore(const std::string& rel) {
  return path_starts_with(rel, "src/") &&
         !path_starts_with(rel, "src/simcore/");
}

/// `std::function` specifically — not members or locals named `function`,
/// and not `<functional>` includes (the header is fine when every use is
/// waived).
bool matches_std_function(const std::string& code) {
  std::size_t at = 0;
  while ((at = code.find("function", at)) != std::string::npos) {
    const bool qualified = at >= 5 && code.compare(at - 5, 5, "std::") == 0;
    const std::size_t after = at + std::string_view("function").size();
    const bool right_ok = after >= code.size() || !is_ident_char(code[after]);
    if (qualified && right_ok) return true;
    at = after;
  }
  return false;
}

/// True when the line constructs an EventId from a raw value: the token
/// `EventId` directly followed by a brace initializer with non-empty
/// contents. `EventId id{}` (named variable) and `EventId{}` (null handle)
/// are fine; `EventId{42}` forges a handle and bypasses the generation
/// check that makes cancellation safe.
bool has_raw_eventid(const std::string& code) {
  static constexpr std::string_view kToken = "EventId";
  std::size_t at = 0;
  while ((at = code.find(kToken, at)) != std::string::npos) {
    const std::size_t after = at + kToken.size();
    const bool left_ok = at == 0 || !is_ident_char(code[at - 1]);
    std::size_t j = after;
    while (j < code.size() && code[j] == ' ') ++j;
    if (left_ok && j < code.size() && code[j] == '{') {
      const std::size_t close = code.find('}', j);
      const std::string_view inside =
          close == std::string::npos
              ? std::string_view(code).substr(j + 1)
              : std::string_view(code).substr(j + 1, close - j - 1);
      const bool nonempty =
          std::any_of(inside.begin(), inside.end(), [](unsigned char c) {
            return !std::isspace(c);
          });
      if (nonempty) return true;
    }
    at = after;
  }
  return false;
}

/// True when a sim-component type name is followed by `*` (optionally
/// spaced / const-qualified): a raw component pointer. Pointer identity
/// does not survive a fork — a fork copies value state, so components must
/// hold rebindable references, owned value state, or id/slot handles,
/// never raw peer pointers.
bool has_component_pointer(const std::string& code) {
  static constexpr std::string_view kComponents[] = {
      "Simulation",        "EventQueue",     "Link",
      "Cluster",           "JobStore",       "FaultPlan",
      "BeliefState",       "TransferQueueSet", "BandwidthEstimator",
      "ThreadTuner",       "SchedulerState", "ProcessingTimeEstimator",
  };
  for (const std::string_view token : kComponents) {
    std::size_t at = 0;
    while ((at = code.find(token, at)) != std::string::npos) {
      const std::size_t after = at + token.size();
      const bool left_ok = at == 0 || !is_ident_char(code[at - 1]);
      const bool right_ok = after >= code.size() || !is_ident_char(code[after]);
      if (!left_ok || !right_ok) {
        at = after;
        continue;
      }
      std::size_t j = after;
      while (j < code.size() && code[j] == ' ') ++j;
      if (code.compare(j, 5, "const") == 0 &&
          (j + 5 >= code.size() || !is_ident_char(code[j + 5]))) {
        j += 5;
        while (j < code.size() && code[j] == ' ') ++j;
      }
      if (j < code.size() && code[j] == '*') return true;
      at = after;
    }
  }
  return false;
}

/// File-level scan for the event-churn rule: a `for`/`while` body that
/// both cancels an event and schedules one, or reschedules one, is
/// re-arming timers per item —
/// the pattern batched water-filling exists to avoid. Tracks brace depth
/// across lines; a loop frame opens at the `{` following a loop keyword
/// and closes when depth returns to its entry level. The violation is
/// reported at the line where the pair completes (second half observed),
/// once per loop, and is waivable there like any per-line rule.
///
/// Deliberately dumb, like the rest of the checker: brace-less loop
/// bodies are not tracked, and a `;` at paren depth zero clears a pending
/// loop header so `do { ... } while (cond);` tails and empty `while`
/// statements do not open phantom frames.
void scan_event_churn(SourceFile& f, const Rule& rule,
                      std::vector<Finding>* out) {
  struct LoopFrame {
    int entry_depth = 0;          ///< brace depth inside the loop body
    std::size_t cancel_line = 0;  ///< first cancel seen (1-based), 0 = none
    std::size_t schedule_line = 0;
    bool reported = false;
  };
  std::vector<LoopFrame> frames;
  int depth = 0;
  int parens = 0;
  bool pending_loop = false;  // loop keyword seen, body `{` not yet
  for (std::size_t li = 0; li < f.code.size(); ++li) {
    const std::string& code = f.code[li];
    if (has_token(code, "for") || has_token(code, "while")) {
      pending_loop = true;
    }
    for (const char c : code) {
      if (c == '{') {
        ++depth;
        if (pending_loop) {
          LoopFrame fr;
          fr.entry_depth = depth;
          frames.push_back(fr);
          pending_loop = false;
        }
      } else if (c == '}') {
        --depth;
        while (!frames.empty() && depth < frames.back().entry_depth) {
          frames.pop_back();
        }
      } else if (c == '(') {
        ++parens;
      } else if (c == ')') {
        --parens;
      } else if (c == ';' && parens == 0) {
        pending_loop = false;
      }
    }
    if (frames.empty()) continue;
    // A reschedule() is a cancel and a schedule in one call.
    const bool reschedules = has_member_or_free_call(code, "reschedule");
    const bool cancels =
        reschedules || has_member_or_free_call(code, "cancel");
    const bool schedules = reschedules ||
                           has_member_or_free_call(code, "schedule_in") ||
                           has_member_or_free_call(code, "schedule_at");
    if (!cancels && !schedules) continue;
    for (LoopFrame& fr : frames) {
      if (cancels && fr.cancel_line == 0) fr.cancel_line = li + 1;
      if (schedules && fr.schedule_line == 0) fr.schedule_line = li + 1;
      if (!fr.reported && fr.cancel_line != 0 && fr.schedule_line != 0) {
        fr.reported = true;
        if (!try_waive(f, li + 1, rule.waiver_token)) {
          out->push_back({f.path.generic_string(), li + 1, rule.id,
                          rule.message, f.raw[li]});
        }
      }
    }
  }
}

}  // namespace

const std::vector<Rule>& token_rules() {
  static const std::vector<Rule> kRules = {
      {"nondeterministic-container", "nondeterministic",
       "hash-ordered container in sim state: simcore/core/models iterate "
       "their tables, so only deterministic-order containers (SeqTable, "
       "std::map, vector) are allowed",
       in_deterministic_state_layers,
       [](const std::string& code) {
         return has_token(code, "unordered_map") ||
                has_token(code, "unordered_set") ||
                has_token(code, "unordered_multimap") ||
                has_token(code, "unordered_multiset");
       }},
      {"wall-clock", "wall-clock",
       "ambient randomness / wall-clock read inside the model: all "
       "stochastic inputs must flow from the seeded RngStream and all time "
       "from Simulation::now()",
       in_src_outside_harness,
       [](const std::string& code) {
         return has_call(code, "rand") || has_call(code, "srand") ||
                has_call(code, "time") || has_call(code, "clock") ||
                has_call(code, "gettimeofday") ||
                has_call(code, "clock_gettime") ||
                has_token(code, "random_device") ||
                has_token(code, "system_clock") ||
                has_token(code, "steady_clock") ||
                has_token(code, "high_resolution_clock");
       }},
      {"std-function", "std-function",
       "std::function in a component layer: a component reports to an "
       "owner interface it takes by reference at construction (e.g. "
       "net::LinkOwner), never to a stored callable, so a fork re-wires "
       "nothing",
       in_component_layers, matches_std_function},
      {"float-arithmetic", "float",
       "float in model arithmetic: times and sizes are double end-to-end; "
       "float rounding drifts fixed-seed outputs across compilers",
       in_src,
       [](const std::string& code) { return has_token(code, "float"); }},
      {"eventid-raw", "eventid",
       "EventId constructed from a raw value: handles must come from "
       "schedule_at/schedule_in so cancel()'s generation check stays sound",
       in_src_outside_simcore, has_raw_eventid},
      {"event-churn", "event-churn",
       "cancel + schedule pair (or a reschedule) inside a loop body: N "
       "cancels + N schedules per pass is the per-item timer churn the "
       "data-oriented link core "
       "removed (DESIGN.md §14) — batch the pass and re-arm ONE timer "
       "after the loop, or waive with the reason it cannot be batched",
       in_event_hot_layers,
       // File-level rule: matched by scan_event_churn (loop-body tracking
       // needs cross-line state), not per line. This entry registers the
       // id, message, scope and waiver token.
       [](const std::string&) { return false; }},
      {"snapshot-unsafe", "snapshot",
       "raw pointer to a sim component in the engine layers: pointer "
       "identity does not survive a fork — hold a rebindable reference, "
       "owned value state, or an id/slot handle that a fork copies as is",
       in_engine_layers, has_component_pointer},
  };
  return kRules;
}

void scan_token_rules(SourceFile& f, std::vector<Finding>* out) {
  const std::string rel = f.path.generic_string();
  for (const Rule& rule : token_rules()) {
    if (!rule.applies(rel)) continue;
    if (rule.id == "event-churn") {
      scan_event_churn(f, rule, out);
      continue;
    }
    for (std::size_t i = 0; i < f.code.size(); ++i) {
      if (!rule.matches(f.code[i])) continue;
      if (try_waive(f, i + 1, rule.waiver_token)) continue;
      out->push_back({rel, i + 1, rule.id, rule.message, f.raw[i]});
    }
  }
}

const std::vector<std::string>& known_waiver_tokens() {
  static const std::vector<std::string> kTokens = [] {
    std::vector<std::string> tokens;
    for (const Rule& r : token_rules()) tokens.push_back(r.waiver_token);
    // Structural rule families (structural_rules.cpp).
    tokens.emplace_back("snapshot-complete");
    tokens.emplace_back("restore-coverage");
    tokens.emplace_back("layering");
    return tokens;
  }();
  return kTokens;
}

}  // namespace cbslint
