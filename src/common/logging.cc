#include "common/logging.h"

// The log level must stay readable from any thread a host-side tool or test
// harness starts while another mutates it; a relaxed atomic carries no
// event-ordering role, so this one-off sits outside the threading ban by
// design.
#include <atomic>  // fvcheck:allow=banned-api

namespace farview {
namespace {

// Process-wide log threshold: host-side, set once at startup, and an
// atomic precisely so concurrent reads are race-free.
// fvcheck:allow=banned-api,domain-confinement
std::atomic<LogLevel> g_log_level{LogLevel::kInfo};

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
    case LogLevel::kFatal:
      return "FATAL";
  }
  return "?";
}

}  // namespace

LogLevel GetLogLevel() { return g_log_level.load(std::memory_order_relaxed); }

void SetLogLevel(LogLevel level) {
  g_log_level.store(level, std::memory_order_relaxed);
}

namespace internal {

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : level_(level) {
  // Trim the path to the basename to keep records short.
  const char* base = file;
  for (const char* p = file; *p != '\0'; ++p) {
    if (*p == '/') base = p + 1;
  }
  stream_ << "[" << LevelName(level) << " " << base << ":" << line << "] ";
}

LogMessage::~LogMessage() {
  stream_ << "\n";
  std::cerr << stream_.str();
  if (level_ == LogLevel::kFatal) {
    std::cerr.flush();
    std::abort();
  }
}

}  // namespace internal
}  // namespace farview
