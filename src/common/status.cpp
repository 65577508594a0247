#include "common/status.h"

namespace figlut {

const char *
statusCodeName(StatusCode code)
{
    switch (code) {
      case StatusCode::Ok: return "OK";
      case StatusCode::InvalidArgument: return "INVALID_ARGUMENT";
      case StatusCode::NotFound: return "NOT_FOUND";
      case StatusCode::ResourceExhausted: return "RESOURCE_EXHAUSTED";
      case StatusCode::FailedPrecondition: return "FAILED_PRECONDITION";
      case StatusCode::DeadlineExceeded: return "DEADLINE_EXCEEDED";
      case StatusCode::Cancelled: return "CANCELLED";
    }
    return "UNKNOWN";
}

std::string
Status::toString() const
{
    if (ok())
        return "OK";
    return std::string(statusCodeName(code_)) + ": " + message_;
}

} // namespace figlut
