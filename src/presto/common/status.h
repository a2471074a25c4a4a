#ifndef PRESTO_COMMON_STATUS_H_
#define PRESTO_COMMON_STATUS_H_

#include <string>
#include <utility>
#include <variant>

namespace presto {

/// Error categories used across the engine. Modeled after the Status idiom
/// used by storage engines (RocksDB/LevelDB): the library never throws;
/// every fallible operation returns a Status or a Result<T>.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kOutOfRange,
  kUnimplemented,
  kInternal,
  kIoError,
  kCorruption,
  kResourceExhausted,
  kUnavailable,       // transient failure; retry may succeed (e.g. S3 5xx)
  kSyntaxError,       // SQL lexer/parser errors
  kSchemaViolation,   // schema-evolution rule violations
  kUserError,         // semantic analysis errors surfaced to the query author
  kRejected,          // load shed: the cluster refused to even queue the work
  kDeadlineExceeded,  // query_timeout_millis passed; never retried
};

/// Returns a human-readable name for a status code, e.g. "IO_ERROR".
const char* StatusCodeToString(StatusCode code);

/// A cheap, copyable success-or-error value. An OK status carries no
/// allocation; error statuses carry a code and a message.
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
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  static Status Corruption(std::string msg) {
    return Status(StatusCode::kCorruption, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status SyntaxError(std::string msg) {
    return Status(StatusCode::kSyntaxError, std::move(msg));
  }
  static Status SchemaViolation(std::string msg) {
    return Status(StatusCode::kSchemaViolation, std::move(msg));
  }
  static Status UserError(std::string msg) {
    return Status(StatusCode::kUserError, std::move(msg));
  }
  static Status Rejected(std::string msg) {
    return Status(StatusCode::kRejected, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<CODE>: <message>".
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

/// Either a value of type T or an error Status. Accessing the value of an
/// error result aborts, so callers must check ok() (or use the
/// ASSIGN_OR_RETURN macro).
template <typename T>
class Result {
 public:
  /// Implicit construction from a value and from an error Status keeps call
  /// sites terse: `return 42;` / `return Status::NotFound(...)`.
  Result(T value) : value_(std::move(value)) {}  // NOLINT(runtime/explicit)
  Result(Status status)                          // NOLINT(runtime/explicit)
      : value_(std::move(status)) {}

  bool ok() const { return std::holds_alternative<T>(value_); }

  const Status& status() const {
    static const Status kOk;
    if (ok()) return kOk;
    return std::get<Status>(value_);
  }

  const T& value() const& { return std::get<T>(value_); }
  T& value() & { return std::get<T>(value_); }
  T&& value() && { return std::get<T>(std::move(value_)); }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  std::variant<T, Status> value_;
};

}  // namespace presto

/// Propagates a non-OK Status to the caller.
#define RETURN_IF_ERROR(expr)                 \
  do {                                        \
    ::presto::Status _st = (expr);            \
    if (!_st.ok()) return _st;                \
  } while (0)

#define PRESTO_CONCAT_IMPL(a, b) a##b
#define PRESTO_CONCAT(a, b) PRESTO_CONCAT_IMPL(a, b)

/// Evaluates a Result<T> expression; on error propagates the Status,
/// otherwise moves the value into `lhs` (which may be a declaration).
#define ASSIGN_OR_RETURN(lhs, expr)                                     \
  auto PRESTO_CONCAT(_res_, __LINE__) = (expr);                         \
  if (!PRESTO_CONCAT(_res_, __LINE__).ok())                             \
    return PRESTO_CONCAT(_res_, __LINE__).status();                     \
  lhs = std::move(PRESTO_CONCAT(_res_, __LINE__)).value()

#endif  // PRESTO_COMMON_STATUS_H_
