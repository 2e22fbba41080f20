// Status and Result<T>: return-code based error handling for all slash
// modules. Modeled after the RocksDB/Arrow Status idiom: cheap to construct
// and copy in the OK case, carries a code plus a human-readable message in
// error cases. Exceptions are not used on any hot path.
#ifndef SLASH_COMMON_STATUS_H_
#define SLASH_COMMON_STATUS_H_

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <variant>

namespace slash {

/// Error categories used across the library.
enum class StatusCode : uint8_t {
  kOk = 0,
  kInvalidArgument = 1,
  kNotFound = 2,
  kAlreadyExists = 3,
  kOutOfRange = 4,
  kResourceExhausted = 5,
  kFailedPrecondition = 6,
  kAborted = 7,
  kInternal = 8,
  kUnimplemented = 9,
  kUnavailable = 10,
  kDeadlineExceeded = 11,
};

/// Returns a stable lower-case name for `code` (e.g. "invalid_argument").
std::string_view StatusCodeName(StatusCode code);

/// A Status holds either success ("OK") or an error code plus message.
///
/// The OK state carries no allocation; error states allocate a small
/// control block. Statuses are copyable and movable.
class Status {
 public:
  /// Constructs an OK status.
  Status() = default;

  Status(const Status& other)
      : rep_(other.rep_ ? std::make_unique<Rep>(*other.rep_) : nullptr) {}
  Status& operator=(const Status& other) {
    rep_ = other.rep_ ? std::make_unique<Rep>(*other.rep_) : nullptr;
    return *this;
  }
  Status(Status&&) noexcept = default;
  Status& operator=(Status&&) noexcept = default;

  /// Factory helpers, one per error category.
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
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status Aborted(std::string msg) {
    return Status(StatusCode::kAborted, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }

  /// True iff this status represents success.
  bool ok() const { return rep_ == nullptr; }

  /// The status code; kOk for success.
  StatusCode code() const { return rep_ ? rep_->code : StatusCode::kOk; }

  /// The error message; empty for OK statuses.
  std::string_view message() const {
    return rep_ ? std::string_view(rep_->message) : std::string_view();
  }

  /// Renders "OK" or "<code>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code() == other.code() && message() == other.message();
  }

 private:
  struct Rep {
    StatusCode code;
    std::string message;
  };

  Status(StatusCode code, std::string msg)
      : rep_(std::make_unique<Rep>(Rep{code, std::move(msg)})) {}

  std::unique_ptr<Rep> rep_;  // null == OK
};

inline std::ostream& operator<<(std::ostream& os, const Status& s) {
  return os << s.ToString();
}

/// Result<T> is either a value of type T or an error Status.
///
/// Accessors check-fail when misused (taking the value of an error result),
/// mirroring absl::StatusOr semantics.
template <typename T>
class Result {
 public:
  /// Implicit construction from a value (success).
  Result(T value) : rep_(std::move(value)) {}  // NOLINT(runtime/explicit)
  /// Implicit construction from an error status. `status` must not be OK.
  Result(Status status) : rep_(std::move(status)) {}  // NOLINT

  bool ok() const { return std::holds_alternative<T>(rep_); }

  /// The status: OK when a value is held.
  Status status() const {
    return ok() ? Status::OK() : std::get<Status>(rep_);
  }

  /// The held value. Precondition: ok().
  const T& value() const& { return std::get<T>(rep_); }
  T& value() & { return std::get<T>(rep_); }
  T&& value() && { return std::get<T>(std::move(rep_)); }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  std::variant<T, Status> rep_;
};

/// Propagates an error Status from the current function.
#define SLASH_RETURN_IF_ERROR(expr)                \
  do {                                             \
    ::slash::Status _st = (expr);                  \
    if (!_st.ok()) return _st;                     \
  } while (0)

}  // namespace slash

#endif  // SLASH_COMMON_STATUS_H_
