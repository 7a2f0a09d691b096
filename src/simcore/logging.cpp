#include "simcore/logging.hpp"

#include <cstdio>

namespace cbs::sim {

std::string_view to_string(LogLevel level) noexcept {
  switch (level) {
    case LogLevel::kTrace: return "TRACE";
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF";
  }
  return "?";
}

void Logger::emit(LogLevel level, SimTime t, std::string_view msg) {
  if (sink_ != nullptr) {
    sink_->write(level, t, msg);
    return;
  }
  std::fprintf(stderr, "%-5s t=%10.2f %.*s\n", to_string(level).data(), t,
               static_cast<int>(msg.size()), msg.data());
}

}  // namespace cbs::sim
