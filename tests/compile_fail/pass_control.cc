// Positive control: the sanctioned operations must keep compiling. If
// this file fails, the compile-fail suite is testing a broken include
// path or flag set, not the type system.
#include "nvm/timing.hh"
#include "sim/inline_callback.hh"
#include "sim/strong_types.hh"

using namespace mellowsim;

static_assert(blockNumber(blockAlign(LogicalAddr(0x1234))) ==
              0x1234 >> kBlockShift);
static_assert(LogicalAddr(64) + 64 == LogicalAddr(128));
static_assert(LogicalAddr(128) - LogicalAddr(64) == 64);
static_assert(BankId(3) != BankId(4));
static_assert((Picojoules(1.5) + Picojoules(0.5)).value() == 2.0);
static_assert(Picojoules(4.0) / Picojoules(2.0) == 2.0);
static_assert((Picojoules(2.0) * 3.0).value() == 6.0);
static_assert(PulseFactor(0.5).value() == 1.0); // clamped
static_assert(PulseFactor(3.0).value() == 3.0);

int
main()
{
    NvmTimingParams timing;
    // The by-reference counterpart of fail_callback_owning_capture.
    bool slow_ok = false;
    InlineCallback check = [&slow_ok, &timing] {
        slow_ok = timing.slowWritePulse(PulseFactor(3.0)) == 3 * timing.tWP;
    };
    check();
    return slow_ok ? 0 : 1;
}
