/**
 * @file
 * Recoverable error model of the serving surface: Status / Result<T>.
 *
 * The fatal()/panic() exceptions (common/logging.h) abort a
 * computation; that is the right behaviour deep inside a kernel, but a
 * serving loop must be able to reject one bad request and keep
 * serving. The public construction and submission paths of the serve
 * layer therefore return a Status (or a Result<T> when there is a
 * value to hand back) instead of throwing:
 *
 *     auto engine = serve::Engine::create(model, options);
 *     if (!engine.ok()) { log(engine.status().message()); return; }
 *     auto id = engine.value()->submit(request);   // Result<RequestId>
 *
 * Conventions:
 *  - Status::okStatus() / a value-holding Result is the success path.
 *  - Error codes follow the usual RPC vocabulary (InvalidArgument,
 *    NotFound, ResourceExhausted, FailedPrecondition, plus the
 *    serving-outcome pair DeadlineExceeded / Cancelled) so
 *    callers can branch without parsing messages; messages stay
 *    actionable (what was wrong, what the bound was).
 *  - Accessing the value of an error Result is a *library-client* bug
 *    and panics (PanicError), mirroring FIGLUT_ASSERT discipline.
 */

#ifndef FIGLUT_COMMON_STATUS_H
#define FIGLUT_COMMON_STATUS_H

#include <optional>
#include <string>
#include <utility>

#include "common/logging.h"

namespace figlut {

/** Machine-readable classification of a Status. */
enum class StatusCode
{
    Ok,
    InvalidArgument,    ///< the supplied configuration/value is malformed
    NotFound,           ///< the named entity (e.g. RequestId) is unknown
    ResourceExhausted,  ///< a capacity bound (batch/queue/KV bytes) is full
    FailedPrecondition, ///< the call is valid but not in this state
    DeadlineExceeded,   ///< the request outlived its deadline
    Cancelled,          ///< the client cancelled the request
};

/** Stable name of a StatusCode ("INVALID_ARGUMENT", ...). */
const char *statusCodeName(StatusCode code);

/** Success-or-error outcome of a recoverable operation. */
class Status
{
  public:
    /** Default: success. */
    Status() = default;

    /** The success value (named to leave ok() for the predicate). */
    static Status okStatus() { return Status(); }

    template <typename... Args>
    static Status
    invalidArgument(Args &&...args)
    {
        return Status(StatusCode::InvalidArgument,
                      detail::concat(std::forward<Args>(args)...));
    }

    template <typename... Args>
    static Status
    notFound(Args &&...args)
    {
        return Status(StatusCode::NotFound,
                      detail::concat(std::forward<Args>(args)...));
    }

    template <typename... Args>
    static Status
    resourceExhausted(Args &&...args)
    {
        return Status(StatusCode::ResourceExhausted,
                      detail::concat(std::forward<Args>(args)...));
    }

    template <typename... Args>
    static Status
    failedPrecondition(Args &&...args)
    {
        return Status(StatusCode::FailedPrecondition,
                      detail::concat(std::forward<Args>(args)...));
    }

    template <typename... Args>
    static Status
    deadlineExceeded(Args &&...args)
    {
        return Status(StatusCode::DeadlineExceeded,
                      detail::concat(std::forward<Args>(args)...));
    }

    template <typename... Args>
    static Status
    cancelled(Args &&...args)
    {
        return Status(StatusCode::Cancelled,
                      detail::concat(std::forward<Args>(args)...));
    }

    bool ok() const { return code_ == StatusCode::Ok; }
    StatusCode code() const { return code_; }
    const std::string &message() const { return message_; }

    /** "OK" or "INVALID_ARGUMENT: <message>". */
    std::string toString() const;

  private:
    Status(StatusCode code, std::string message)
        : code_(code), message_(std::move(message))
    {}

    StatusCode code_ = StatusCode::Ok;
    std::string message_;
};

/**
 * A T on success or a Status on failure. Implicitly constructible from
 * either, so `return Status::invalidArgument(...)` and `return value`
 * both work from a Result-returning function. T may be move-only
 * (Result<std::unique_ptr<Engine>> is the canonical use).
 */
template <typename T>
class Result
{
  public:
    Result(T value) : value_(std::move(value)) {}

    Result(Status status) : status_(std::move(status))
    {
        if (status_.ok())
            panic("Result constructed from an OK Status but no value");
    }

    bool ok() const { return value_.has_value(); }
    const Status &status() const { return status_; }

    T &
    value() &
    {
        requireOk();
        return *value_;
    }

    const T &
    value() const &
    {
        requireOk();
        return *value_;
    }

    /** Move the value out (e.g. `auto v = std::move(result).value()`). */
    T &&
    value() &&
    {
        requireOk();
        return *std::move(value_);
    }

  private:
    void
    requireOk() const
    {
        if (!ok())
            panic("Result::value() on error Result: ",
                  status_.toString());
    }

    Status status_;
    std::optional<T> value_;
};

} // namespace figlut

#endif // FIGLUT_COMMON_STATUS_H
