#include "system/sharded.hh"

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cache/hierarchy.hh"
#include "cpu/core.hh"
#include "nvm/controller.hh"
#include "nvm/interleave.hh"
#include "nvm/memory_system.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/shard.hh"
#include "sim/shard_port.hh"
#include "sim/stats.hh"
#include "workload/workload.hh"

namespace mellowsim
{

namespace
{

// --- Cross-shard message vocabulary ---------------------------------
//
// MemRequest itself cannot cross the seam (it owns a std::function);
// the port protocol is a POD re-encoding of the MemoryPort interface.

enum class ShardReqKind : std::uint8_t
{
    Read,
    Writeback,
    Eager,
};

/** Front -> channel: one memory request, channel-local address. */
struct ShardRequestMsg
{
    ShardReqKind kind = ShardReqKind::Read;
    LogicalAddr addr{0};
    /** Front-side completion key; meaningful for Read only. */
    std::uint64_t reqId = 0;
};

enum class ShardRespKind : std::uint8_t
{
    ReadDone,
    EagerCredit,
};

/** Channel -> front: read data delivered, or an eager credit back. */
struct ShardResponseMsg
{
    ShardRespKind kind = ShardRespKind::ReadDone;
    std::uint64_t reqId = 0;
};

using RequestPort = ShardPort<ShardRequestMsg>;
using ResponsePort = ShardPort<ShardResponseMsg>;

/**
 * Request rings hold at most one epoch of sends (every message minted
 * in epoch e is drained in epoch e+1), but one epoch can carry a
 * burst of write-backs on top of MSHR-bounded reads; 4096 slots is
 * comfortably past any reachable burst and still only 64 KiB.
 */
constexpr std::size_t kRequestRingSlots = 4096;

/**
 * One channel's memory controller on its own event queue.
 *
 * Everything here is shard-owned: the epoch driver confines the task
 * to one thread and the only shared edges are the two ports.
 */
class ChannelTask : public ShardTask
{
  public:
    ChannelTask(const MemControllerConfig &config, Lookahead lookahead,
                double capacityFloor, RequestPort::Receiver input,
                ResponsePort::Sender output)
        : _lookahead(lookahead), _capacityFloor(capacityFloor),
          _input(std::move(input)), _output(std::move(output)),
          _controller(_queue, config)
    {
        _controller.setEagerCompleteCallback([this] {
            sendResponse(ShardRespKind::EagerCredit, 0);
        });
    }

    void
    runEpoch(Tick end) override
    {
        _input.drainUntil(end, [this](Tick when, ShardRequestMsg msg) {
            auto apply = [this, msg] { applyRequest(msg); };
            static_assert(EventQueue::fitsInline<decltype(apply)>(),
                          "request-apply callback must use the inline "
                          "slot");
            _queue.schedule(when, std::move(apply));
        });
        _events += _queue.run(end);
    }

    [[nodiscard]] bool
    quiescent() const override
    {
        return _input.pending() == 0 && _controller.idle();
    }

    [[nodiscard]] bool
    abortRequested() const override
    {
        if (_capacityFloor <= 0.0)
            return false;
        const FaultModel *fm = _controller.faultModel();
        return fm != nullptr &&
               fm->effectiveCapacityFraction() <= _capacityFloor;
    }

    [[nodiscard]] MemoryController &controller() { return _controller; }
    [[nodiscard]] const MemoryController &
    controller() const
    {
        return _controller;
    }
    [[nodiscard]] EventQueue &queue() { return _queue; }
    [[nodiscard]] std::uint64_t events() const { return _events; }

  private:
    void
    applyRequest(const ShardRequestMsg &msg)
    {
        switch (msg.kind) {
        case ShardReqKind::Read:
            _controller.read(msg.addr, [this, id = msg.reqId] {
                sendResponse(ShardRespKind::ReadDone, id);
            });
            break;
        case ShardReqKind::Writeback:
            _controller.writeback(msg.addr);
            break;
        case ShardReqKind::Eager: {
            bool accepted = _controller.eagerWrite(msg.addr);
            // The router's credits over-approximate eager-queue
            // occupancy, so channel-side admission can never fail.
            panic_if(!accepted,
                     "eager write rejected despite credit protocol");
            break;
        }
        }
    }

    void
    sendResponse(ShardRespKind kind, std::uint64_t reqId)
    {
        ShardResponseMsg msg;
        msg.kind = kind;
        msg.reqId = reqId;
        _output.send(_queue.curTick() + _lookahead, msg);
    }

    Lookahead _lookahead;
    double _capacityFloor;
    RequestPort::Receiver _input;
    ResponsePort::Sender _output;
    EventQueue _queue;
    MemoryController _controller;
    std::uint64_t _events = 0;
};

/**
 * The front-end task: workload + core + cache hierarchy, with a
 * MemoryPort implementation that routes requests to channel shards.
 */
class FrontTask : public ShardTask, public MemoryPort
{
  public:
    FrontTask(const SystemConfig &config, Workload &workload,
              Lookahead lookahead, const ChannelInterleave &interleave)
        : _lookahead(lookahead), _interleave(interleave),
          _credits(interleave.numChannels(),
                   config.memory.eagerQueueSize)
    {
        _requests.reserve(interleave.numChannels());
        _responses.reserve(interleave.numChannels());
        _hierarchy = std::make_unique<Hierarchy>(
            _queue, config.hierarchy, *this, config.seed);
        _core = std::make_unique<TraceCore>(_queue, config.core,
                                            workload, *_hierarchy);
    }

    /** Wire channel @p c's ports; call once per channel, in order. */
    void
    connectChannel(RequestPort::Sender request,
                   ResponsePort::Receiver response)
    {
        _requests.push_back(std::move(request));
        _responses.push_back(std::move(response));
    }

    // --- MemoryPort (the router) ----------------------------------
    void
    read(LogicalAddr addr, ReadCallback onComplete) override
    {
        const std::uint64_t id = _nextReqId++;
        _pendingReads.emplace(id, std::move(onComplete));
        ShardRequestMsg msg;
        msg.kind = ShardReqKind::Read;
        msg.addr = _interleave.localAddr(addr);
        msg.reqId = id;
        sendRequest(_interleave.channelOf(addr), msg);
    }

    void
    writeback(LogicalAddr addr) override
    {
        ShardRequestMsg msg;
        msg.kind = ShardReqKind::Writeback;
        msg.addr = _interleave.localAddr(addr);
        sendRequest(_interleave.channelOf(addr), msg);
    }

    bool
    eagerWrite(LogicalAddr addr) override
    {
        const ChannelId channel = _interleave.channelOf(addr);
        // mlint: allow(value-escape): channel id indexes the router's
        // per-channel credit table.
        unsigned &credits = _credits[channel.value()];
        if (credits == 0) {
            ++_rejectedEager;
            return false;
        }
        --credits;
        ShardRequestMsg msg;
        msg.kind = ShardReqKind::Eager;
        msg.addr = _interleave.localAddr(addr);
        sendRequest(channel, msg);
        return true;
    }

    [[nodiscard]] bool
    eagerQueueHasSpace() const override
    {
        for (unsigned c : _credits) {
            if (c > 0)
                return true;
        }
        return false;
    }

    // --- ShardTask --------------------------------------------------
    void
    runEpoch(Tick end) override
    {
        for (std::size_t c = 0; c < _responses.size(); ++c) {
            // The receiver's position IS the channel identity; eager
            // credits carry no channel of their own.
            _responses[c].drainUntil(
                end, [this, c](Tick when, ShardResponseMsg msg) {
                    onResponse(c, when, msg);
                });
        }
        if (_coreDone)
            return;
        // Mirror the monolithic run loop: stop stepping the moment
        // the core retires its last instruction; events behind the
        // finish tick are abandoned, exactly as System::run abandons
        // its remaining queue. The epoch end bounds inline time
        // advances too: responses for the next epoch are not drained
        // yet.
        while (!_core->done() && _queue.minPendingTick() < end) {
            _queue.step(end);
            ++_events;
        }
        if (_core->done())
            _coreDone = true;
    }

    [[nodiscard]] bool
    quiescent() const override
    {
        // In-flight eager credits are deliberately ignored: once the
        // core is done and every read has come back, a credit still
        // in a ring can only enable work that will never be asked
        // for. Pending ReadDone messages keep _pendingReads nonempty
        // until drained, so they do hold the run open.
        return _coreDone && _pendingReads.empty();
    }

    [[nodiscard]] TraceCore &core() { return *_core; }
    [[nodiscard]] const TraceCore &core() const { return *_core; }
    [[nodiscard]] Hierarchy &hierarchy() { return *_hierarchy; }
    [[nodiscard]] const Hierarchy &
    hierarchy() const
    {
        return *_hierarchy;
    }
    [[nodiscard]] EventQueue &queue() { return _queue; }
    [[nodiscard]] std::uint64_t events() const { return _events; }
    [[nodiscard]] std::uint64_t rejectedEager() const
    {
        return _rejectedEager;
    }

  private:
    void
    sendRequest(ChannelId channel, const ShardRequestMsg &msg)
    {
        // mlint: allow(value-escape): channel id indexes the router's
        // per-channel request senders.
        _requests[channel.value()].send(_queue.curTick() + _lookahead,
                                        msg);
    }

    void
    onResponse(std::size_t channel, Tick when,
               const ShardResponseMsg &msg)
    {
        switch (msg.kind) {
        case ShardRespKind::ReadDone: {
            auto it = _pendingReads.find(msg.reqId);
            panic_if(it == _pendingReads.end(),
                     "ReadDone for unknown request %llu",
                     static_cast<unsigned long long>(msg.reqId));
            ReadCallback cb = std::move(it->second);
            _pendingReads.erase(it);
            if (_coreDone)
                return; // bookkeeping only; the model is finished
            auto deliver = [cb = std::move(cb)] { cb(); };
            static_assert(EventQueue::fitsInline<decltype(deliver)>(),
                          "read-return callback must use the inline "
                          "slot");
            _queue.schedule(when, std::move(deliver));
            break;
        }
        case ShardRespKind::EagerCredit:
            // Credits are applied at drain time (the epoch boundary)
            // rather than at `when`: the LLC only consults them on
            // its periodic scan, and the boundary is identical in
            // serial and threaded runs, so determinism holds either
            // way.
            ++_credits[channel];
            break;
        }
    }

    Lookahead _lookahead;
    const ChannelInterleave &_interleave;
    EventQueue _queue;
    std::unique_ptr<Hierarchy> _hierarchy;
    std::unique_ptr<TraceCore> _core;

    std::vector<RequestPort::Sender> _requests;
    std::vector<ResponsePort::Receiver> _responses;
    /** Outstanding eager-write credits per channel. */
    std::vector<unsigned> _credits;
    /** Eager writes refused at the router for lack of credit. */
    std::uint64_t _rejectedEager = 0;

    std::uint64_t _nextReqId = 1;
    std::unordered_map<std::uint64_t, ReadCallback> _pendingReads;

    bool _coreDone = false;
    std::uint64_t _events = 0;
};

/** Controller-side tallies of one channel as a partial SimReport. */
SimReport
channelPartialReport(const MemoryController &ctrl,
                     const std::string &workload,
                     const std::string &policy)
{
    SimReport p;
    p.workload = workload;
    p.policy = policy;

    const MemControllerStats &m = ctrl.stats();
    p.memReads = m.issuedReads.value();
    p.forwardedReads = m.forwardedReads.value();
    p.issuedNormalWrites = m.issuedNormalWrites.value();
    p.issuedSlowWrites = m.issuedSlowWrites.value();
    p.issuedEagerNormal = m.issuedEagerNormal.value();
    p.issuedEagerSlow = m.issuedEagerSlow.value();
    p.cancelledWrites = m.cancelledWrites.value();
    p.pausedWrites = m.pausedWrites.value();
    p.drainEntries = m.drainEntries.value();
    p.writeRetries = m.retriedWrites.value();

    const EnergyStats &e = ctrl.energyModel().stats();
    p.readEnergyPj += e.readPj;
    p.writeEnergyPj += e.writePj;
    p.totalEnergyPj += e.totalPj();

    if (const FaultModel *fm = ctrl.faultModel()) {
        const FaultStats &fs = fm->stats();
        p.transientWriteFailures = fs.transientFailures;
        p.permanentFaults = fs.permanentFaults;
        p.faultRepairsUsed = fs.repairsUsed;
        p.retiredLines = fs.retiredLines;
        p.deadLines = fs.deadLines;
        p.firstFaultTick = fs.firstFaultTick;
        p.firstUncorrectableTick = fs.firstUncorrectableTick;
        p.effectiveCapacityFraction = fm->effectiveCapacityFraction();
    }
    return p;
}

} // namespace

SimReport
runShardedSystem(const SystemConfig &config, ShardRunInfo *info)
{
    fatal_if(config.shards == 0,
             "runShardedSystem needs shards >= 1 (0 selects the "
             "monolithic path)");

    // The same config normalization System::build performs.
    SystemConfig cfg = config;
    cfg.memory.policy = cfg.policy;
    cfg.hierarchy.llc.eagerEnabled = cfg.policy.eager;
    cfg.memory.fault.seed ^= cfg.seed * 0x2545F4914F6CDD1Dull;

    const Lookahead la = channelLookahead(cfg.memory.timing);
    const ChannelInterleave interleave(cfg.memory.geometry,
                                       cfg.numChannels);

    WorkloadPtr workload = makeWorkload(cfg.workloadName, cfg.seed);
    fatal_if(workload == nullptr, "system needs a workload");

    FrontTask front(cfg, *workload, la, interleave);

    std::vector<std::unique_ptr<RequestPort>> requestPorts;
    std::vector<std::unique_ptr<ResponsePort>> responsePorts;
    std::vector<std::unique_ptr<ChannelTask>> channels;
    for (unsigned c = 0; c < cfg.numChannels; ++c) {
        requestPorts.push_back(
            std::make_unique<RequestPort>(kRequestRingSlots));
        responsePorts.push_back(std::make_unique<ResponsePort>());
        channels.push_back(std::make_unique<ChannelTask>(
            perChannelConfig(cfg.memory, cfg.numChannels, c), la,
            cfg.memory.fault.capacityFloorFraction,
            requestPorts.back()->receiver(),
            responsePorts.back()->sender()));
        front.connectChannel(requestPorts.back()->sender(),
                             responsePorts.back()->receiver());
    }

    // Functional warm-up from the front of the workload stream,
    // exactly as the monolithic path does it.
    std::uint64_t warm_instrs = 0;
    while (warm_instrs < cfg.warmupInstructions) {
        Op op = workload->next();
        warm_instrs += op.gap + 1;
        front.hierarchy().prime(LogicalAddr(op.addr), op.isWrite);
    }

    front.core().start(cfg.instructions);

    // Task order is structural — front first, channels by index — and
    // identical for every shard/thread count; the serial oracle steps
    // exactly this sequence per epoch.
    std::vector<ShardTask *> tasks;
    tasks.reserve(1 + channels.size());
    tasks.push_back(&front);
    for (auto &channel : channels)
        tasks.push_back(channel.get());

    EpochOutcome outcome = runShardEpochs(tasks, la, cfg.shards,
                                          /*until=*/0, cfg.maxSimTicks);
    if (outcome.hitWall) {
        fatal("simulation exceeded the %f s safety wall",
              ticksToSeconds(cfg.maxSimTicks));
    }
    const bool capacity_exhausted = outcome.aborted;
    panic_if(!capacity_exhausted && !front.core().done(),
             "shard group quiesced before the core finished");

    for (auto &channel : channels)
        channel->controller().finalize();

    if (info != nullptr) {
        info->events = front.events();
        for (const auto &channel : channels)
            info->events += channel->events();
        info->epochs = outcome.epochs;
    }

    // --- Report assembly (DESIGN.md §15 merge order) ----------------
    // Front-side fields first, then every channel's partial report
    // folded in via SimReport::merge, then the derived rates that
    // merge cannot compute.
    SimReport r;
    r.workload = workload->info().name;
    r.policy = cfg.policy.name;
    r.status = capacity_exhausted ? ReportStatus::CapacityExhausted
                                  : ReportStatus::Ok;
    r.capacityFloorReached = capacity_exhausted;
    r.instructions = front.core().stats().instructions;
    if (capacity_exhausted) {
        r.instructions = front.core().instructionsDispatched();
        r.simTicks = outcome.endTick;
        if (r.simTicks > 0) {
            double cycles = static_cast<double>(r.simTicks) /
                            static_cast<double>(cfg.core.clockPeriod);
            r.ipc = static_cast<double>(r.instructions) / cycles;
        }
    } else {
        r.simTicks = front.core().finishTick();
        r.ipc = front.core().ipc();
    }

    const HierarchyStats &h = front.hierarchy().stats();
    r.mpki = r.instructions
                 ? 1000.0 * static_cast<double>(h.llcMisses.value()) /
                       static_cast<double>(r.instructions)
                 : 0.0;

    const LlcStats &llc = front.hierarchy().llc().stats();
    r.llcDemandReads = llc.demandReads.value();
    r.llcDemandWrites = llc.demandWrites.value();
    r.llcMisses = llc.misses.value();
    r.writebacksToMem = llc.writebacksToMem.value();
    r.eagerSent = llc.eagerSent.value();
    r.eagerWasted = llc.eagerWasted.value();

    stats::Average read_latency;
    double lifetime = cfg.maxReportedLifetimeYears;
    double util_sum = 0.0;
    double drain_sum = 0.0;
    for (auto &channel : channels) {
        const MemoryController &ctrl = channel->controller();
        r.merge(channelPartialReport(ctrl, r.workload, r.policy));
        read_latency.merge(ctrl.stats().readLatency);
        lifetime = std::min(
            lifetime, ctrl.wearTracker().lifetimeYears(r.simTicks));
        util_sum += ctrl.avgBankUtilization();
        drain_sum += ctrl.drainTimeFraction();

        // Quota activity aggregates as a maximum (the monolithic
        // assembly's rule), which merge's additive fold cannot
        // express — handled here instead.
        if (const WearQuota *q = ctrl.wearQuota()) {
            r.quotaPeriods = std::max(r.quotaPeriods, q->numPeriods());
            for (unsigned b = 0; b < ctrl.config().geometry.numBanks;
                 ++b) {
                r.quotaSlowOnlyPeriods =
                    std::max(r.quotaSlowOnlyPeriods,
                             q->slowOnlyPeriods(BankId(b)));
            }
        }
    }
    r.lifetimeYears = lifetime;
    r.avgBankUtilization =
        util_sum / static_cast<double>(channels.size());
    r.drainTimeFraction =
        drain_sum / static_cast<double>(channels.size());
    if (read_latency.count() > 0) {
        r.avgReadLatencyNs =
            read_latency.sum() /
            static_cast<double>(read_latency.count()) / kNanosecond;
    }
    return r;
}

} // namespace mellowsim
