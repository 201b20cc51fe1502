/**
 * @file
 * Zero-overhead strong types for mellowsim's address spaces and units.
 *
 * Every access travels through three distinct address spaces —
 *
 *   1. program/logical: byte addresses as the CPU and caches see them
 *      (LogicalAddr), decoded into a bank-local line (BankId,
 *      LineIndex);
 *   2. device lines: the line actually addressed at the device after
 *      the fault model's retirement indirection (DeviceAddr);
 *   3. wear-leveled blocks: the physical block inside the bank array
 *      after the Start-Gap / Security-Refresh rotation (LeveledAddr).
 *
 * All of these, plus energy (Picojoules) and the slow-write latency
 * multiplier (PulseFactor), used to travel as bare std::uint64_t /
 * double, so a swapped argument silently corrupted wear, lifetime and
 * Wear Quota accounting. Wrapping each space in its own type makes
 * cross-space arithmetic and argument swaps compile errors; the
 * tests/compile_fail/ suite pins that property.
 *
 * Numeric conversion between address spaces happens through exactly
 * three sanctioned, named boundaries:
 *
 *   - WearLeveler::level (+ leveledLineOf for unleveled configs):
 *     LineIndex -> LeveledAddr (the controller-owned leveling
 *     rotation on the issue path),
 *   - FaultModel::remap (+ deviceLineOf for fault-free configs and
 *     for WoLFRaM, whose leveler owns the retirement indirection):
 *     LeveledAddr -> DeviceAddr (retirement indirection), and
 *   - WearLeveler::translate: DeviceAddr -> LeveledAddr (the wear
 *     tracker's measurement-path rotation in detailed mode).
 *
 * Everything here is constexpr, trivially copyable and exactly the
 * size of its representation — the types vanish at -O1.
 */

#ifndef MELLOWSIM_SIM_STRONG_TYPES_HH
#define MELLOWSIM_SIM_STRONG_TYPES_HH

#include <compare>
#include <cstddef>
#include <functional>
#include <type_traits>

#include "sim/types.hh"

namespace mellowsim
{

/**
 * An integer-like value from one named ordinal space (an address, an
 * index, an id). Distinct tags are distinct, incompatible types:
 * there is no implicit construction, no implicit conversion back to
 * the representation, and no arithmetic that mixes tags. Offsetting
 * within a space (+/- a raw delta) stays inside the space.
 */
template <typename Tag, typename Rep>
class StrongOrdinal
{
    static_assert(std::is_integral_v<Rep>);

  public:
    using rep_type = Rep;

    constexpr StrongOrdinal() = default;
    constexpr explicit StrongOrdinal(Rep raw) : _raw(raw) {}

    /** The raw representation; the only exit from the type. */
    [[nodiscard]] constexpr Rep value() const { return _raw; }

    /** Offset within the same space. */
    [[nodiscard]] constexpr StrongOrdinal
    operator+(Rep delta) const
    {
        return StrongOrdinal(_raw + delta);
    }

    [[nodiscard]] constexpr StrongOrdinal
    operator-(Rep delta) const
    {
        return StrongOrdinal(_raw - delta);
    }

    /** Distance between two points of the same space. */
    [[nodiscard]] constexpr Rep
    operator-(StrongOrdinal other) const
    {
        return _raw - other._raw;
    }

    constexpr StrongOrdinal &
    operator++()
    {
        ++_raw;
        return *this;
    }

    friend constexpr bool operator==(StrongOrdinal,
                                     StrongOrdinal) = default;
    friend constexpr auto operator<=>(StrongOrdinal,
                                      StrongOrdinal) = default;

  private:
    Rep _raw = 0;
};

/**
 * A double-valued physical quantity (e.g. energy). Additive within
 * its own unit, scalable by dimensionless factors, and never
 * implicitly mixed with bare doubles or other units.
 */
template <typename Tag>
class Quantity
{
  public:
    constexpr Quantity() = default;
    constexpr explicit Quantity(double raw) : _raw(raw) {}

    /** The magnitude in this unit's base scale. */
    [[nodiscard]] constexpr double value() const { return _raw; }

    [[nodiscard]] constexpr Quantity
    operator+(Quantity other) const
    {
        return Quantity(_raw + other._raw);
    }

    [[nodiscard]] constexpr Quantity
    operator-(Quantity other) const
    {
        return Quantity(_raw - other._raw);
    }

    constexpr Quantity &
    operator+=(Quantity other)
    {
        _raw += other._raw;
        return *this;
    }

    constexpr Quantity &
    operator-=(Quantity other)
    {
        _raw -= other._raw;
        return *this;
    }

    /** Scaling by a dimensionless factor. */
    [[nodiscard]] constexpr Quantity
    operator*(double factor) const
    {
        return Quantity(_raw * factor);
    }

    [[nodiscard]] friend constexpr Quantity
    operator*(double factor, Quantity q)
    {
        return Quantity(factor * q._raw);
    }

    [[nodiscard]] constexpr Quantity
    operator/(double divisor) const
    {
        return Quantity(_raw / divisor);
    }

    /** Ratio of two like quantities is dimensionless. */
    [[nodiscard]] constexpr double
    operator/(Quantity other) const
    {
        return _raw / other._raw;
    }

    friend constexpr bool operator==(Quantity, Quantity) = default;
    friend constexpr auto operator<=>(Quantity, Quantity) = default;

  private:
    double _raw = 0.0;
};

// --- Address spaces -------------------------------------------------

/** Program/logical byte address (CPU, caches, controller front end). */
using LogicalAddr = StrongOrdinal<struct LogicalAddrTag, Addr>;

/** Logical block-in-bank index, pre any remapping (decode output). */
using LineIndex = StrongOrdinal<struct LineIndexTag, std::uint64_t>;

/** Device line after the fault model's retirement indirection. */
using DeviceAddr = StrongOrdinal<struct DeviceAddrTag, std::uint64_t>;

/** Physical block after the wear-leveler rotation (Start-Gap/SR). */
using LeveledAddr = StrongOrdinal<struct LeveledAddrTag, std::uint64_t>;

// --- Structural ids -------------------------------------------------

/** Bank index within one channel. */
using BankId = StrongOrdinal<struct BankIdTag, unsigned>;

/** Memory channel index. */
using ChannelId = StrongOrdinal<struct ChannelIdTag, unsigned>;

// --- Units ----------------------------------------------------------

/** Energy in picojoules. */
using Picojoules = Quantity<struct PicojoulesTag>;

/** Interface/controller clock frequency in megahertz. */
using Megahertz = Quantity<struct MegahertzTag>;

/**
 * Write-pulse latency multiplier relative to the normal tWP.
 *
 * Equation 2's endurance gain only exists for pulses at least as long
 * as the baseline, so the factor is clamped to >= 1.0 at
 * construction: a PulseFactor is valid by construction and every
 * consumer (timing, endurance, fault model) may rely on that.
 */
class PulseFactor
{
  public:
    constexpr PulseFactor() = default;
    constexpr explicit PulseFactor(double factor)
        : _factor(factor < 1.0 ? 1.0 : factor)
    {
    }

    /** The multiplier; always >= 1.0. */
    [[nodiscard]] constexpr double value() const { return _factor; }

    /**
     * Scaling a dimensionless magnitude by the factor (pulse-time
     * ratios, probabilities) stays in the typed domain; the result is
     * the scaled magnitude, never a new PulseFactor.
     */
    [[nodiscard]] friend constexpr double
    operator*(double magnitude, PulseFactor f)
    {
        return magnitude * f._factor;
    }

    /** Dividing by the factor (>= 1) only ever shrinks a magnitude. */
    [[nodiscard]] friend constexpr double
    operator/(double magnitude, PulseFactor f)
    {
        return magnitude / f._factor;
    }

    friend constexpr bool operator==(PulseFactor,
                                     PulseFactor) = default;
    friend constexpr auto operator<=>(PulseFactor,
                                      PulseFactor) = default;

  private:
    double _factor = 1.0;
};

// The whole point is zero overhead: same size and triviality as the
// raw representations they replace.
static_assert(sizeof(LogicalAddr) == sizeof(Addr));
static_assert(sizeof(DeviceAddr) == sizeof(std::uint64_t));
static_assert(sizeof(BankId) == sizeof(unsigned));
static_assert(sizeof(Picojoules) == sizeof(double));
static_assert(sizeof(PulseFactor) == sizeof(double));
static_assert(std::is_trivially_copyable_v<LogicalAddr>);
static_assert(std::is_trivially_copyable_v<Picojoules>);
static_assert(std::is_trivially_copyable_v<PulseFactor>);

// --- Named unit-carrying conversions --------------------------------
//
// The ONLY sanctioned entries from external numeric text (device
// config files, CLI flags) into the tick domain. Each conversion
// names its source unit, so a mis-scaled datasheet number is visible
// at the call site; src/config/'s parser exposes nothing but these.

/** A duration given in nanoseconds, rounded to the nearest tick. */
[[nodiscard]] constexpr Tick
ticksFromNanoseconds(double ns)
{
    return static_cast<Tick>(
        ns * static_cast<double>(kNanosecond) + 0.5);
}

/** The period of one cycle of a clock, rounded to the nearest tick. */
[[nodiscard]] constexpr Tick
clockPeriodTicks(Megahertz clk)
{
    // 1 / MHz = microseconds; one microsecond is 1e6 ticks.
    return static_cast<Tick>(
        static_cast<double>(kMicrosecond) / clk.value() + 0.5);
}

/** Block-align a byte address (stays in the logical space). */
[[nodiscard]] constexpr LogicalAddr
blockAlign(LogicalAddr addr)
{
    return LogicalAddr(addr.value() & ~Addr(kBlockSize - 1));
}

/** The block number of a byte address (still logical space). */
[[nodiscard]] constexpr std::uint64_t
blockNumber(LogicalAddr addr)
{
    return addr.value() >> kBlockShift;
}

} // namespace mellowsim

// Ordinals are usable as unordered-container keys (e.g. the MSHR
// table and the queues' block index).
template <typename Tag, typename Rep>
struct std::hash<mellowsim::StrongOrdinal<Tag, Rep>>
{
    std::size_t
    operator()(mellowsim::StrongOrdinal<Tag, Rep> v) const noexcept
    {
        return std::hash<Rep>{}(v.value());
    }
};

#endif // MELLOWSIM_SIM_STRONG_TYPES_HH
