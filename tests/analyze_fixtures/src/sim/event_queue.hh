// Minimal EventQueue facade for the mellow-analyze fixtures. These
// files are analyzed textually, never compiled; only the shapes the
// analyzer keys on (class definitions, schedule call sites) matter.
#pragma once

#include <cstdint>
#include <functional>

using Tick = std::uint64_t;

class TimerHandle
{
};

class EventQueue
{
  public:
    void scheduleIn(Tick delay, std::function<void()> action);
    void schedule(Tick when, std::function<void()> action);
    TimerHandle addTimer(std::function<void()> action);
    void arm(TimerHandle timer, Tick when);
};
