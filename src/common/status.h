// Lightweight Status / StatusOr error-handling primitives.
//
// The project is built without exceptions (Google style); every fallible
// operation returns a Status or StatusOr<T>. Irrecoverable programming errors
// use the CHECK macros from common/logging.h instead.

#ifndef HYDRA_COMMON_STATUS_H_
#define HYDRA_COMMON_STATUS_H_

#include <optional>
#include <string>
#include <utility>

namespace hydra {

enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kFailedPrecondition,
  kOutOfRange,
  kResourceExhausted,
  kInternal,
  kUnimplemented,
  kIoError,
  kCancelled,          // the caller (or the server) revoked the work
  kDeadlineExceeded,   // the work's deadline passed before it finished
  kUnavailable,        // transient: retrying may succeed (I/O blip, shutdown)
};

// Human-readable name of a status code, e.g. "INVALID_ARGUMENT".
const char* StatusCodeName(StatusCode code);

// Inverse of StatusCodeName: true and sets *code when `name` is a known
// code name (used by the failpoint spec parser).
bool StatusCodeFromName(const std::string& name, StatusCode* code);

// A success-or-error result. Cheap to copy on the OK path (no allocation).
// [[nodiscard]]: silently dropping a Status is how failure paths rot; cast
// to void at the handful of sites where ignoring one is the intent.
class [[nodiscard]] Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  static Status Cancelled(std::string msg) {
    return Status(StatusCode::kCancelled, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  // "OK" or "CODE_NAME: message".
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

// A value-or-error result. The value is only accessible when ok().
template <typename T>
class [[nodiscard]] StatusOr {
 public:
  StatusOr(const T& value) : value_(value) {}  // NOLINT(runtime/explicit)
  StatusOr(T&& value)  // NOLINT(runtime/explicit)
      : value_(std::move(value)) {}
  StatusOr(Status status) : status_(std::move(status)) {}  // NOLINT

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const& { return *value_; }
  T& value() & { return *value_; }
  T&& value() && { return *std::move(value_); }

  const T& operator*() const& { return *value_; }
  T& operator*() & { return *value_; }
  T&& operator*() && { return *std::move(value_); }
  const T* operator->() const { return &*value_; }
  T* operator->() { return &*value_; }

 private:
  Status status_;
  std::optional<T> value_;
};

}  // namespace hydra

// Propagates a non-OK Status to the caller.
#define HYDRA_RETURN_IF_ERROR(expr)          \
  do {                                       \
    ::hydra::Status _st = (expr);            \
    if (!_st.ok()) return _st;               \
  } while (0)

// Evaluates a StatusOr expression, propagating errors; binds the value.
#define HYDRA_ASSIGN_OR_RETURN(lhs, expr)                    \
  HYDRA_ASSIGN_OR_RETURN_IMPL(                               \
      HYDRA_STATUS_CONCAT(_status_or_, __LINE__), lhs, expr)
#define HYDRA_ASSIGN_OR_RETURN_IMPL(var, lhs, expr) \
  auto var = (expr);                                \
  if (!var.ok()) return var.status();               \
  lhs = std::move(var).value()
#define HYDRA_STATUS_CONCAT_INNER(a, b) a##b
#define HYDRA_STATUS_CONCAT(a, b) HYDRA_STATUS_CONCAT_INNER(a, b)

#endif  // HYDRA_COMMON_STATUS_H_
