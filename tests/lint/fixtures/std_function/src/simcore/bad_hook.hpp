// Negative fixture: std::function in an engine layer. cbs_lint must
// report [std-function]; the fix is an owner interface (net::LinkOwner).
#pragma once

#include <functional>

namespace cbs::sim {

struct BadHook {
  std::function<void(int)> on_fire;
};

}  // namespace cbs::sim
