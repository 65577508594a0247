#include "serve/request.h"

namespace figlut {
namespace serve {

const char *
requestStateName(RequestState state)
{
    switch (state) {
      case RequestState::Queued: return "queued";
      case RequestState::Active: return "active";
      case RequestState::Finished: return "finished";
      case RequestState::Cancelled: return "cancelled";
      case RequestState::Shed: return "shed";
      case RequestState::DeadlineExceeded: return "deadline-exceeded";
    }
    return "unknown";
}

bool
requestStateTerminal(RequestState state)
{
    switch (state) {
      case RequestState::Queued:
      case RequestState::Active:
        return false;
      case RequestState::Finished:
      case RequestState::Cancelled:
      case RequestState::Shed:
      case RequestState::DeadlineExceeded:
        return true;
    }
    return true;
}

} // namespace serve
} // namespace figlut
