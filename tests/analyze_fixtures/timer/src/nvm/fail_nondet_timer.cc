// analyze-expect: nondet-handler
// The only handler root here is a re-armable timer: the lambda is
// registered once with addTimer() and runs on every arm(). A helper
// it reaches reads the environment, which differs between replays.
#include "sim/event_queue.hh"

#include <cstdlib>

class Poller
{
  public:
    explicit Poller(EventQueue &eventq)
        : _eventq(eventq), _tick(eventq.addTimer([this] { onTick(); }))
    {
    }

    void start() { _eventq.arm(_tick, 100); }

  private:
    void onTick();

    EventQueue &_eventq;
    TimerHandle _tick;
};

namespace {

Tick
pollInterval()
{
    return std::getenv("POLL_FAST") != nullptr ? 10 : 100;
}

} // namespace

void
Poller::onTick()
{
    _eventq.arm(_tick, pollInterval());
}
