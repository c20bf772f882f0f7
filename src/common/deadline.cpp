#include "common/deadline.hpp"

namespace ispb {

namespace {
thread_local Deadline::Clock::time_point t_deadline =
    Deadline::Clock::time_point::max();
}  // namespace

Deadline Deadline::current() { return Deadline{t_deadline}; }

Deadline::Scope::Scope(Deadline deadline) : prev_(t_deadline) {
  t_deadline = deadline.at;
}

Deadline::Scope::~Scope() { t_deadline = prev_; }

}  // namespace ispb
