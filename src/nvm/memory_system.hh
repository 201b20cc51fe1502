/**
 * @file
 * Multi-channel memory system.
 *
 * The paper evaluates one channel but sizes its hardware per channel
 * ("Eager Mellow Writes requires a 16-entry queue for each memory
 * channel", Section IV-E). MemorySystem instantiates one independent
 * MemoryController per channel — each with its own queues, banks,
 * data bus, wear tracker, energy model and (with +WQ) Wear Quota —
 * and stripes the address space across them at the interleave
 * granularity. Addresses are rewritten into each channel's local
 * space, so a channel controller is bit-identical to the
 * single-channel configuration of the same per-channel geometry.
 */

#ifndef MELLOWSIM_NVM_MEMORY_SYSTEM_HH
#define MELLOWSIM_NVM_MEMORY_SYSTEM_HH

#include <memory>
#include <vector>

#include "nvm/controller.hh"
#include "nvm/interleave.hh"
#include "nvm/memory_port.hh"
#include "sim/event_queue.hh"
#include "sim/indexed.hh"

namespace mellowsim
{

/** Multi-channel configuration. */
struct MemorySystemConfig
{
    /** Channels; 1 matches the paper. */
    unsigned numChannels = 1;
    /**
     * Per-channel controller configuration. `geometry.capacityBytes`
     * is the *total* capacity; each channel manages capacity /
     * numChannels with `geometry.numBanks` banks of its own.
     */
    MemControllerConfig channel;
};

/** See file comment. */
class MemorySystem : public MemoryPort
{
  public:
    MemorySystem(EventQueue &eventq, const MemorySystemConfig &config);

    // --- MemoryPort --------------------------------------------------
    void read(LogicalAddr addr, ReadCallback onComplete) override;
    void writeback(LogicalAddr addr) override;
    bool eagerWrite(LogicalAddr addr) override;
    [[nodiscard]] bool eagerQueueHasSpace() const override;

    // --- Aggregation --------------------------------------------------
    [[nodiscard]] unsigned numChannels() const
    {
        return static_cast<unsigned>(_channels.size());
    }

    [[nodiscard]] MemoryController &channel(ChannelId idx);
    [[nodiscard]] const MemoryController &channel(ChannelId idx) const;

    /** Truncate busy/drain accounting on every channel. */
    void finalize();

    /** Minimum leveled lifetime over every bank of every channel. */
    [[nodiscard]] double lifetimeYears(Tick simTime) const;

    /**
     * Minimum effective-capacity fraction over all channels (1.0 with
     * fault injection off). Monotonically non-increasing over a run:
     * dead lines never come back.
     */
    [[nodiscard]] double effectiveCapacityFraction() const;

    /**
     * True iff fault injection is on, a capacity floor is configured
     * (FaultConfig::capacityFloorFraction > 0) and some channel's
     * effective capacity has fallen to it — the end-of-life signal
     * the System run loop polls to stop gracefully instead of
     * simulating a memory that no longer functions.
     */
    [[nodiscard]] bool capacityFloorReached() const;

    /** Mean bank utilisation over all channels. */
    [[nodiscard]] double avgBankUtilization() const;

    /** Mean drain-time fraction over all channels. */
    [[nodiscard]] double drainTimeFraction() const;

    /** Which channel serves @p addr. */
    [[nodiscard]] ChannelId
    channelOf(LogicalAddr addr) const
    {
        return _interleave.channelOf(addr);
    }

    /** The channel-local address @p addr maps to. */
    [[nodiscard]] LogicalAddr
    localAddr(LogicalAddr addr) const
    {
        return _interleave.localAddr(addr);
    }

    [[nodiscard]] const MemorySystemConfig &config() const
    {
        return _config;
    }

  private:
    MemorySystemConfig _config;
    ChannelInterleave _interleave;
    IndexedVector<ChannelId, std::unique_ptr<MemoryController>> _channels;
};

/**
 * The per-channel controller configuration a multi-channel system
 * hands channel @p c: capacity split evenly, fault seed perturbed so
 * channels never share weak-line draws. MemorySystem builds every
 * channel's controller through this.
 */
[[nodiscard]] MemControllerConfig
perChannelConfig(const MemControllerConfig &channel, unsigned numChannels,
                 unsigned c);

} // namespace mellowsim

#endif // MELLOWSIM_NVM_MEMORY_SYSTEM_HH
