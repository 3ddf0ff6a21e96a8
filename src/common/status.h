#ifndef FARVIEW_COMMON_STATUS_H_
#define FARVIEW_COMMON_STATUS_H_

#include <cassert>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>

namespace farview {

/// Error category for a failed operation. Mirrors the RocksDB/Arrow idiom of
/// carrying a coarse machine-readable code plus a human-readable message.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kOutOfMemory,
  kOutOfRange,
  kUnavailable,
  kResourceExhausted,
  kDeadlineExceeded,
  kFailedPrecondition,
  kUnimplemented,
  kInternal,
};

/// Returns the canonical name of a status code (e.g. "InvalidArgument").
const char* StatusCodeToString(StatusCode code);

/// Outcome of a fallible operation that produces no value.
///
/// The library does not use exceptions on fallible paths (Google style);
/// every operation that can fail returns a `Status` or a `Result<T>`.
/// `[[nodiscard]]`: silently dropping a Status is exactly the failure mode
/// the error discipline exists to prevent — discard explicitly with
/// `FV_IGNORE_ERROR(expr, reason)` when a failure is genuinely benign.
class [[nodiscard]] Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  /// Constructs a status with the given code and message.
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status OutOfMemory(std::string msg) {
    return Status(StatusCode::kOutOfMemory, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  /// Admission-control rejection of a `RegionScheduler` job: the node is
  /// healthy but is shedding load (DESIGN.md §15). Distinct from
  /// `Unavailable` (down / faulted), which callers retry or fail over.
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  bool IsInvalidArgument() const {
    return code_ == StatusCode::kInvalidArgument;
  }
  bool IsNotFound() const { return code_ == StatusCode::kNotFound; }
  bool IsAlreadyExists() const { return code_ == StatusCode::kAlreadyExists; }
  bool IsOutOfMemory() const { return code_ == StatusCode::kOutOfMemory; }
  bool IsOutOfRange() const { return code_ == StatusCode::kOutOfRange; }
  bool IsUnavailable() const { return code_ == StatusCode::kUnavailable; }
  bool IsResourceExhausted() const {
    return code_ == StatusCode::kResourceExhausted;
  }
  bool IsDeadlineExceeded() const {
    return code_ == StatusCode::kDeadlineExceeded;
  }
  bool IsFailedPrecondition() const {
    return code_ == StatusCode::kFailedPrecondition;
  }
  bool IsUnimplemented() const { return code_ == StatusCode::kUnimplemented; }
  bool IsInternal() const { return code_ == StatusCode::kInternal; }

  /// Attaches a server-suggested retry delay (simulated picoseconds) to a
  /// `ResourceExhausted` rejection. Builder style so factory call sites
  /// read `Status::ResourceExhausted(...).WithRetryAfter(hint)`.
  Status&& WithRetryAfter(int64_t retry_after_ps) && {
    retry_after_ps_ = retry_after_ps;
    return std::move(*this);
  }

  /// Server-suggested retry delay in simulated picoseconds; 0 when the
  /// status carries no hint. Only `RegionScheduler` sheds produce one
  /// (DESIGN.md §15); its callers resubmit no sooner than the hint.
  int64_t retry_after_ps() const { return retry_after_ps_; }

  /// Renders "Code: message" for logs and test failure output.
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
  int64_t retry_after_ps_ = 0;
};

/// Outcome of a fallible operation that produces a `T` on success.
///
/// Usage:
///   Result<Table> r = LoadTable(...);
///   if (!r.ok()) return r.status();
///   Table t = std::move(r).value();
template <typename T>
class [[nodiscard]] Result {
 public:
  /// Implicit construction from a value: success.
  Result(T value)  // NOLINT(google-explicit-constructor)
      : value_(std::move(value)) {}

  /// Implicit construction from a non-OK status: failure. Constructing a
  /// Result from an OK status is a programming error.
  Result(Status status)  // NOLINT(google-explicit-constructor)
      : status_(std::move(status)) {
    assert(!status_.ok() && "Result constructed from OK status without value");
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  /// Returns the contained value. Must only be called when `ok()`.
  const T& value() const& {
    assert(ok());
    return *value_;
  }
  T& value() & {
    assert(ok());
    return *value_;
  }
  T&& value() && {
    assert(ok());
    return std::move(*value_);
  }

  /// Returns the value or `fallback` when the result is an error.
  T value_or(T fallback) const {
    return ok() ? *value_ : std::move(fallback);
  }

 private:
  Status status_;
  std::optional<T> value_;
};

/// Propagates a non-OK Status from an expression to the caller.
#define FV_RETURN_IF_ERROR(expr)                   \
  do {                                             \
    ::farview::Status _fv_status = (expr);         \
    if (!_fv_status.ok()) return _fv_status;       \
  } while (0)

/// Evaluates a Result-returning expression, assigning the value to `lhs` or
/// propagating the error status.
#define FV_ASSIGN_OR_RETURN(lhs, expr)            \
  auto FV_CONCAT_(_fv_result_, __LINE__) = (expr);               \
  if (!FV_CONCAT_(_fv_result_, __LINE__).ok())                   \
    return FV_CONCAT_(_fv_result_, __LINE__).status();           \
  lhs = std::move(FV_CONCAT_(_fv_result_, __LINE__)).value()

#define FV_CONCAT_INNER_(a, b) a##b
#define FV_CONCAT_(a, b) FV_CONCAT_INNER_(a, b)

/// Discards the error of a fallible expression ON PURPOSE, with a reason.
/// The reason must be a non-empty string literal; it documents at the call
/// site why ignoring the failure is sound (e.g. best-effort cleanup on a
/// path that is already failing). Satisfies both the compiler's
/// [[nodiscard]] warning and fvcheck's unchecked-status rule.
#define FV_IGNORE_ERROR(expr, reason)                                  \
  do {                                                                 \
    static_assert(sizeof(reason) > 1,                                  \
                  "FV_IGNORE_ERROR requires a non-empty reason");      \
    (void)(expr);                                                      \
  } while (0)

}  // namespace farview

#endif  // FARVIEW_COMMON_STATUS_H_
