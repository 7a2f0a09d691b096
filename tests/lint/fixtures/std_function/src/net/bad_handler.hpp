// Negative fixture: a completion handler stored as std::function in a
// component layer. cbs_lint must report [std-function]; the fix is an owner
// interface the component takes by reference at construction.
#pragma once

#include <cstdint>
#include <functional>

namespace cbs::net {

struct BadHandlerLink {
  std::function<void(std::uint64_t tag)> on_done;
};

}  // namespace cbs::net
