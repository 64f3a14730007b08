#include "util/log.hpp"

#include <atomic>
#include <cstdlib>
#include <iostream>
#include <mutex>

namespace dust::util {

namespace {
std::atomic<LogLevel> g_level{LogLevel::kWarn};
std::mutex g_emit_mutex;

const char* level_name(LogLevel level) {
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
}  // namespace

void set_log_level(LogLevel level) noexcept { g_level.store(level); }
LogLevel log_level() noexcept { return g_level.load(); }

LogLevel parse_log_level(const std::string& name) noexcept {
  std::string lower;
  lower.reserve(name.size());
  for (char ch : name) lower.push_back(static_cast<char>(std::tolower(ch)));
  if (lower == "trace") return LogLevel::kTrace;
  if (lower == "debug") return LogLevel::kDebug;
  if (lower == "info") return LogLevel::kInfo;
  if (lower == "warn") return LogLevel::kWarn;
  if (lower == "error") return LogLevel::kError;
  if (lower == "off") return LogLevel::kOff;
  return LogLevel::kInfo;
}

void init_log_level_from_env() {
  if (const char* env = std::getenv("DUST_LOG")) set_log_level(parse_log_level(env));
}

namespace detail {
void emit(LogLevel level, const std::string& message) {
  std::lock_guard lock(g_emit_mutex);
  std::cerr << "[dust:" << level_name(level) << "] " << message << '\n';
}
}  // namespace detail

}  // namespace dust::util
