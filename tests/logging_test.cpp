#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "simcore/logging.hpp"

namespace {

using cbs::sim::Logger;
using cbs::sim::LogLevel;

struct Captured {
  LogLevel level;
  double time;
  std::string message;
};

struct CapturingSink final : cbs::sim::LogSink {
  std::vector<Captured> lines;
  void write(LogLevel level, double t, std::string_view msg) override {
    lines.push_back({level, t, std::string(msg)});
  }
};

Logger capturing_logger(CapturingSink& sink,
                        LogLevel threshold = LogLevel::kDebug) {
  Logger logger("test", threshold);
  // The constructor floors the threshold at the process-wide default;
  // set_threshold afterwards expresses an explicit per-test choice.
  logger.set_threshold(threshold);
  logger.set_sink(&sink);
  return logger;
}

TEST(LoggerTest, MessagesBelowThresholdAreDropped) {
  CapturingSink capture;
  Logger logger = capturing_logger(capture, LogLevel::kWarn);
  logger.debug(1.0, "quiet");
  logger.info(2.0, "quiet");
  logger.warn(3.0, "loud");
  ASSERT_EQ(capture.lines.size(), 1u);
  EXPECT_EQ(capture.lines[0].level, LogLevel::kWarn);
  EXPECT_DOUBLE_EQ(capture.lines[0].time, 3.0);
}

TEST(LoggerTest, MessagesAreFormattedWithComponent) {
  CapturingSink capture;
  Logger logger = capturing_logger(capture);
  logger.info(5.0, "job ", 42, " done in ", 1.5, "s");
  ASSERT_EQ(capture.lines.size(), 1u);
  EXPECT_EQ(capture.lines[0].message, "[test] job 42 done in 1.5s");
}

TEST(LoggerTest, ThresholdCanBeRaisedAtRuntime) {
  CapturingSink capture;
  Logger logger = capturing_logger(capture, LogLevel::kDebug);
  logger.set_threshold(LogLevel::kError);
  logger.warn(1.0, "dropped");
  EXPECT_TRUE(capture.lines.empty());
  EXPECT_FALSE(logger.enabled(LogLevel::kWarn));
  EXPECT_TRUE(logger.enabled(LogLevel::kError));
}

TEST(LoggerTest, OffSilencesEverything) {
  CapturingSink capture;
  Logger logger = capturing_logger(capture, LogLevel::kOff);
  logger.log(LogLevel::kError, 1.0, "nope");
  EXPECT_TRUE(capture.lines.empty());
}

TEST(LoggerTest, LevelNames) {
  EXPECT_EQ(cbs::sim::to_string(LogLevel::kDebug), "DEBUG");
  EXPECT_EQ(cbs::sim::to_string(LogLevel::kError), "ERROR");
  EXPECT_EQ(cbs::sim::to_string(LogLevel::kOff), "OFF");
}

}  // namespace
