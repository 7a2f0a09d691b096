#pragma once

#include <sstream>
#include <string>
#include <string_view>
#include <utility>

#include "simcore/time.hpp"

namespace cbs::sim {

enum class LogLevel { kTrace, kDebug, kInfo, kWarn, kError, kOff };

[[nodiscard]] std::string_view to_string(LogLevel level) noexcept;

/// Where a Logger writes its formatted messages instead of stderr.
class LogSink {
 public:
  virtual void write(LogLevel level, SimTime t, std::string_view msg) = 0;

 protected:
  ~LogSink() = default;
};

/// Minimal leveled logger stamped with simulated time.
///
/// The sink is injectable so tests can capture output; without one the
/// logger writes to stderr. Logging below the threshold costs one branch —
/// message formatting is skipped entirely.
///
/// Thread-safety: a Logger instance is not internally synchronized — give
/// each simulation run its own Logger (ControllerConfig::log_threshold
/// sets this per run). Loggers share no state, so building and using
/// distinct ones on many threads is safe.
class Logger {
 public:
  explicit Logger(std::string component, LogLevel threshold = LogLevel::kWarn)
      : component_(std::move(component)), threshold_(threshold) {}

  void set_threshold(LogLevel level) noexcept { threshold_ = level; }
  [[nodiscard]] LogLevel threshold() const noexcept { return threshold_; }
  /// Routes messages to `sink` (not owned; it must outlive the logger), or
  /// back to stderr when null.
  void set_sink(LogSink* sink) noexcept { sink_ = sink; }

  [[nodiscard]] bool enabled(LogLevel level) const noexcept {
    return level >= threshold_ && threshold_ != LogLevel::kOff;
  }

  template <typename... Args>
  void log(LogLevel level, SimTime t, Args&&... args) {
    if (!enabled(level)) return;
    std::ostringstream oss;
    oss << "[" << component_ << "] ";
    (oss << ... << std::forward<Args>(args));
    emit(level, t, oss.str());
  }

  template <typename... Args>
  void debug(SimTime t, Args&&... args) {
    log(LogLevel::kDebug, t, std::forward<Args>(args)...);
  }
  template <typename... Args>
  void info(SimTime t, Args&&... args) {
    log(LogLevel::kInfo, t, std::forward<Args>(args)...);
  }
  template <typename... Args>
  void warn(SimTime t, Args&&... args) {
    log(LogLevel::kWarn, t, std::forward<Args>(args)...);
  }

 private:
  void emit(LogLevel level, SimTime t, std::string_view msg);

  std::string component_;
  LogLevel threshold_;
  LogSink* sink_ = nullptr;
};

}  // namespace cbs::sim
