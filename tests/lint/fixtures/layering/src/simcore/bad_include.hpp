// Negative fixture for [layering]: simcore sits below core in the module
// DAG, so this include is a back-edge and must be reported.
#pragma once

#include "core/controller.hpp"
#include "util/seq_table.hpp"

namespace cbs::sim {}  // namespace cbs::sim
