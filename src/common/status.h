// Minimal Status / Result<T> error-handling vocabulary, modeled after the
// Arrow/Abseil style used throughout open-source database codebases.
//
// Functions that can fail return either a Status (no payload) or a
// Result<T> (payload or error). Errors carry a code and a human-readable
// message; they are cheap to move and test.

#ifndef SODA_COMMON_STATUS_H_
#define SODA_COMMON_STATUS_H_

#include <cassert>
#include <optional>
#include <ostream>
#include <string>
#include <utility>

namespace soda {

/// Error taxonomy for the SODA library. Kept deliberately small; callers
/// should branch on whether an operation succeeded, not on fine-grained
/// error codes.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kOutOfRange,
  kParseError,
  kTypeError,
  kUnsupported,
  kInternal,
  kUnavailable,
};

/// Returns the canonical lowercase name for a status code ("ok",
/// "invalid_argument", ...).
const char* StatusCodeName(StatusCode code);

/// Outcome of an operation that produces no value.
class Status {
 public:
  /// Constructs an OK status.
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
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status ParseError(std::string msg) {
    return Status(StatusCode::kParseError, std::move(msg));
  }
  static Status TypeError(std::string msg) {
    return Status(StatusCode::kTypeError, std::move(msg));
  }
  static Status Unsupported(std::string msg) {
    return Status(StatusCode::kUnsupported, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  /// A transiently failed dependency (failed shard dispatch, armed
  /// failpoint): the request was valid, retrying later may succeed.
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// Renders "code: message" for logging and test failure output.
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

inline std::ostream& operator<<(std::ostream& os, const Status& s) {
  return os << s.ToString();
}

/// Outcome of an operation that produces a value of type T on success.
/// Accessing the value of a failed Result is a programming error (asserts
/// in debug builds).
template <typename T>
class Result {
 public:
  /// Implicit construction from a value: `return some_t;`.
  Result(T value) : value_(std::move(value)) {}  // NOLINT(runtime/explicit)
  /// Implicit construction from an error status: `return Status::...;`.
  Result(Status status) : status_(std::move(status)) {  // NOLINT
    assert(!status_.ok() && "Result constructed from OK status without value");
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

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

  /// Returns the contained value or `fallback` when in error state.
  T value_or(T fallback) const {
    return ok() ? *value_ : std::move(fallback);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  Status status_;
  std::optional<T> value_;
};

}  // namespace soda

/// Propagates a non-OK Status out of the current function.
#define SODA_RETURN_NOT_OK(expr)              \
  do {                                        \
    ::soda::Status _st = (expr);              \
    if (!_st.ok()) return _st;                \
  } while (false)

/// Evaluates a Result expression and either assigns its value to `lhs`
/// or propagates the error status.
#define SODA_ASSIGN_OR_RETURN_IMPL(tmp, lhs, expr) \
  auto tmp = (expr);                               \
  if (!tmp.ok()) return tmp.status();              \
  lhs = std::move(tmp).value();

#define SODA_MACRO_CONCAT_INNER(x, y) x##y
#define SODA_MACRO_CONCAT(x, y) SODA_MACRO_CONCAT_INNER(x, y)

#define SODA_ASSIGN_OR_RETURN(lhs, expr) \
  SODA_ASSIGN_OR_RETURN_IMPL(            \
      SODA_MACRO_CONCAT(_soda_result_, __LINE__), lhs, expr)

#endif  // SODA_COMMON_STATUS_H_
