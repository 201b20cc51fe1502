/**
 * @file
 * Channel-interleave address decode: which channel serves an address
 * and what its channel-local rewrite is. MemorySystem routes every
 * request of a multi-channel System through it.
 */

#ifndef MELLOWSIM_NVM_INTERLEAVE_HH
#define MELLOWSIM_NVM_INTERLEAVE_HH

#include <cstdint>

#include "nvm/address_map.hh"
#include "sim/divisor.hh"
#include "sim/logging.hh"
#include "sim/strong_types.hh"
#include "sim/types.hh"

namespace mellowsim
{

/**
 * Stripes block-aligned addresses across channels at the interleave
 * granularity and rewrites them into each channel's local space, so a
 * channel controller is bit-identical to a single-channel
 * configuration of the same per-channel geometry.
 */
class ChannelInterleave
{
  public:
    /** @p geometry carries the TOTAL capacity across all channels. */
    ChannelInterleave(const MemGeometry &geometry, unsigned numChannels)
        : _blocksPerChunk(geometry.interleaveBytes / kBlockSize),
          _totalCapacity(geometry.capacityBytes),
          _numChannels(numChannels)
    {
        fatal_if(numChannels == 0, "interleave needs >= 1 channel");
        fatal_if(geometry.capacityBytes % numChannels != 0,
                 "capacity must divide evenly across channels");
    }

    [[nodiscard]] unsigned
    numChannels() const
    {
        return static_cast<unsigned>(_numChannels.divisor());
    }

    /** Which channel serves @p addr. */
    [[nodiscard]] ChannelId
    channelOf(LogicalAddr addr) const
    {
        // mlint: allow(value-escape): channel-interleave decode is
        // modular arithmetic on the raw byte address (the system-level
        // analogue of AddressMap::decode).
        std::uint64_t block =
            _totalCapacity.rem(addr.value()) >> kBlockShift;
        std::uint64_t chunk = _blocksPerChunk.quot(block);
        return ChannelId(static_cast<unsigned>(_numChannels.rem(chunk)));
    }

    /** The channel-local address @p addr maps to. */
    [[nodiscard]] LogicalAddr
    localAddr(LogicalAddr addr) const
    {
        // mlint: allow(value-escape): channel-interleave decode (see
        // channelOf); rewrites the address into the channel-local
        // space.
        std::uint64_t block =
            _totalCapacity.rem(addr.value()) >> kBlockShift;
        std::uint64_t chunk = _blocksPerChunk.quot(block);
        std::uint64_t offset = _blocksPerChunk.rem(block);
        std::uint64_t local_chunk = _numChannels.quot(chunk);
        // mlint: allow(value-escape): see above.
        return LogicalAddr(
            (local_chunk * _blocksPerChunk.divisor() + offset) *
                kBlockSize +
            addr.value() % kBlockSize);
    }

  private:
    Divisor _blocksPerChunk;
    Divisor _totalCapacity;
    Divisor _numChannels;
};

} // namespace mellowsim

#endif // MELLOWSIM_NVM_INTERLEAVE_HH
