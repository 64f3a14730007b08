// Minimal leveled logger.
//
// The library itself logs sparingly (managers log placement decisions at
// Info); benches/tests set the level via set_level or the DUST_LOG env var
// (trace|debug|info|warn|error|off).
#pragma once

#include <sstream>
#include <string>

namespace dust::util {

enum class LogLevel { kTrace = 0, kDebug, kInfo, kWarn, kError, kOff };

void set_log_level(LogLevel level) noexcept;
LogLevel log_level() noexcept;

/// Parse "trace"/"debug"/... (case-insensitive); unknown -> kInfo.
LogLevel parse_log_level(const std::string& name) noexcept;

/// Initialize the level from the DUST_LOG environment variable once.
void init_log_level_from_env();

namespace detail {
void emit(LogLevel level, const std::string& message);
}

/// Stream-style log statement: LOG_AT(LogLevel::kInfo) << "placed " << n;
class LogLine {
 public:
  explicit LogLine(LogLevel level) : level_(level) {}
  ~LogLine() {
    if (level_ >= log_level()) detail::emit(level_, stream_.str());
  }
  LogLine(const LogLine&) = delete;
  LogLine& operator=(const LogLine&) = delete;

  template <typename T>
  LogLine& operator<<(const T& value) {
    if (level_ >= log_level()) stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

}  // namespace dust::util

#define DUST_LOG(level) ::dust::util::LogLine(level)
#define DUST_LOG_TRACE DUST_LOG(::dust::util::LogLevel::kTrace)
#define DUST_LOG_DEBUG DUST_LOG(::dust::util::LogLevel::kDebug)
#define DUST_LOG_INFO DUST_LOG(::dust::util::LogLevel::kInfo)
#define DUST_LOG_WARN DUST_LOG(::dust::util::LogLevel::kWarn)
#define DUST_LOG_ERROR DUST_LOG(::dust::util::LogLevel::kError)
