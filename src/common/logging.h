// Minimal leveled logger. Single translation-unit state, thread-safe writes.
//
// Lines carry the source location and a monotonic timestamp on the same
// epoch clock as trace spans (src/obs/clock.h), so log output and an
// exported trace line up on one time axis:
//
//   [   1.042315s] [INFO ] server.cpp:159] server ready: 4 lanes x max_batch 1
//
// The initial level comes from the PC_LOG_LEVEL environment variable
// ("debug" | "info" | "warn" | "error", or the numeric 0-3), defaulting to
// warn; set_log_level() overrides at runtime.
#pragma once

#include <iostream>
#include <mutex>
#include <sstream>
#include <string>

namespace pc {

enum class LogLevel : int { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

// Global log level; messages below it are discarded.
LogLevel log_level();
void set_log_level(LogLevel level);

namespace detail {

void write_log_line(LogLevel level, const char* file, int line,
                    const std::string& message);

class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line)
      : level_(level), file_(file), line_(line) {}
  ~LogMessage() { write_log_line(level_, file_, line_, os_.str()); }
  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  template <typename T>
  LogMessage& operator<<(const T& value) {
    os_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  const char* file_;
  int line_;
  std::ostringstream os_;
};

}  // namespace detail
}  // namespace pc

#define PC_LOG(level)                                  \
  if (static_cast<int>(::pc::log_level()) <=           \
      static_cast<int>(::pc::LogLevel::level))         \
  ::pc::detail::LogMessage(::pc::LogLevel::level, __FILE__, __LINE__)

#define PC_LOG_DEBUG PC_LOG(kDebug)
#define PC_LOG_INFO PC_LOG(kInfo)
#define PC_LOG_WARN PC_LOG(kWarn)
#define PC_LOG_ERROR PC_LOG(kError)
