/**
 * @file
 * Memory request record shared by the controller's three queues.
 *
 * MemRequest is trivially copyable: its read completion is an
 * InlineCallback (sim/inline_callback.hh), so moving a request into a
 * queue slot, out of it, into a bank and back is a plain copy, and a
 * freed slot holds nothing that needs clearing or destroying.
 */

#ifndef MELLOWSIM_NVM_REQUEST_HH
#define MELLOWSIM_NVM_REQUEST_HH

#include <cstdint>
#include <type_traits>

#include "nvm/address_map.hh"
#include "sim/inline_callback.hh"
#include "sim/types.hh"

namespace mellowsim
{

/** Category of memory access (Section IV-B2 adds the third one). */
enum class ReqType
{
    Read,       ///< demand read (LLC miss / store-miss fill)
    Write,      ///< demand write back (dirty LLC eviction)
    EagerWrite, ///< eager mellow write back from the LLC
};

/**
 * Completion callback for reads: fired when data is on the bus. An
 * inline callable of at most 24 bytes of trivially copyable state.
 */
using ReadCallback = InlineCallback;

/** One queued memory request. */
struct MemRequest
{
    ReqType type = ReqType::Read;
    /** Block-aligned logical byte address (channel-local). */
    LogicalAddr addr{0};
    /** Decoded location; loc.blockInBank stays in the logical space. */
    DecodedAddr loc;
    /**
     * Device line the request targets after fault-model retirement
     * remapping; set at issue time (identity when faults are off).
     */
    DeviceAddr line{0};
    Tick arrival = 0;
    /** Non-null for reads. */
    ReadCallback onComplete;
    /** Write attempts so far (grows with each cancellation). */
    unsigned attempts = 0;
    /** Write-verify retries consumed (fault injection only). */
    unsigned retries = 0;
};

static_assert(std::is_trivially_copyable_v<MemRequest>,
              "requests are copied between queue slots and banks");

} // namespace mellowsim

#endif // MELLOWSIM_NVM_REQUEST_HH
