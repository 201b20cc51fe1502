#include "traced.hh"

#include <algorithm>
#include <memory>

#include "cache/hierarchy.hh"
#include "nvm/memory_system.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"

namespace perfbench
{

using namespace mellowsim;

namespace
{

/** System::run()'s report assembly, over the traced components. */
SimReport
assembleReport(const SystemConfig &cfg, const Workload &workload,
               const MemorySystem &memory, const Hierarchy &hierarchy,
               const TraceCore &core, Tick curTick, bool exhausted)
{
    SimReport r;
    r.workload = workload.info().name;
    r.policy = cfg.policy.name;
    r.status = exhausted ? ReportStatus::CapacityExhausted
                         : ReportStatus::Ok;
    r.capacityFloorReached = exhausted;
    r.instructions = core.stats().instructions;
    if (exhausted) {
        r.instructions = core.instructionsDispatched();
        r.simTicks = curTick;
        if (r.simTicks > 0) {
            double cycles = static_cast<double>(r.simTicks) /
                            static_cast<double>(cfg.core.clockPeriod);
            r.ipc = static_cast<double>(r.instructions) / cycles;
        }
    } else {
        r.simTicks = core.finishTick();
        r.ipc = core.ipc();
    }

    r.lifetimeYears = std::min(memory.lifetimeYears(r.simTicks),
                               cfg.maxReportedLifetimeYears);
    r.avgBankUtilization = memory.avgBankUtilization();
    r.drainTimeFraction = memory.drainTimeFraction();

    const HierarchyStats &h = hierarchy.stats();
    r.mpki = r.instructions
                 ? 1000.0 * static_cast<double>(h.llcMisses.value()) /
                       static_cast<double>(r.instructions)
                 : 0.0;

    const LlcStats &llc = hierarchy.llc().stats();
    r.llcDemandReads = llc.demandReads.value();
    r.llcDemandWrites = llc.demandWrites.value();
    r.llcMisses = llc.misses.value();
    r.writebacksToMem = llc.writebacksToMem.value();
    r.eagerSent = llc.eagerSent.value();
    r.eagerWasted = llc.eagerWasted.value();

    double lat_weighted = 0.0;
    std::uint64_t lat_samples = 0;
    for (unsigned c = 0; c < memory.numChannels(); ++c) {
        const MemoryController &ctrl = memory.channel(ChannelId(c));
        const MemControllerStats &m = ctrl.stats();
        r.memReads += m.issuedReads.value();
        r.forwardedReads += m.forwardedReads.value();
        r.issuedNormalWrites += m.issuedNormalWrites.value();
        r.issuedSlowWrites += m.issuedSlowWrites.value();
        r.issuedEagerNormal += m.issuedEagerNormal.value();
        r.issuedEagerSlow += m.issuedEagerSlow.value();
        r.cancelledWrites += m.cancelledWrites.value();
        r.pausedWrites += m.pausedWrites.value();
        r.drainEntries += m.drainEntries.value();
        lat_weighted += m.readLatency.sum();
        lat_samples += m.readLatency.count();

        const EnergyStats &e = ctrl.energyModel().stats();
        r.readEnergyPj += e.readPj;
        r.writeEnergyPj += e.writePj;
        r.totalEnergyPj += e.totalPj();

        if (const WearQuota *q = ctrl.wearQuota()) {
            r.quotaPeriods = std::max(r.quotaPeriods, q->numPeriods());
            for (unsigned b = 0; b < ctrl.config().geometry.numBanks;
                 ++b) {
                r.quotaSlowOnlyPeriods =
                    std::max(r.quotaSlowOnlyPeriods,
                             q->slowOnlyPeriods(BankId(b)));
            }
        }

        r.writeRetries += m.retriedWrites.value();
        if (const FaultModel *fm = ctrl.faultModel()) {
            const FaultStats &fs = fm->stats();
            r.transientWriteFailures += fs.transientFailures;
            r.permanentFaults += fs.permanentFaults;
            r.faultRepairsUsed += fs.repairsUsed;
            r.retiredLines += fs.retiredLines;
            r.deadLines += fs.deadLines;
            auto earliest = [](Tick acc, Tick t) {
                return t != 0 && (acc == 0 || t < acc) ? t : acc;
            };
            r.firstFaultTick =
                earliest(r.firstFaultTick, fs.firstFaultTick);
            r.firstUncorrectableTick = earliest(
                r.firstUncorrectableTick, fs.firstUncorrectableTick);
            r.effectiveCapacityFraction =
                std::min(r.effectiveCapacityFraction,
                         fm->effectiveCapacityFraction());
        }
    }
    if (lat_samples > 0) {
        r.avgReadLatencyNs = lat_weighted /
                             static_cast<double>(lat_samples) /
                             kNanosecond;
    }
    return r;
}

} // namespace

void
runTraced(const SystemConfig &config, TracedConfig &out)
{
    SpanLog &log = out.spans;
    const std::uint64_t t_start = nowNs();
    const int root = log.add("config", t_start, 0, -1);
    const int construct = log.add("construct", t_start, 0, root);
    log.setPhase(construct);

    // System::build(): the policy reaches the controller and the LLC,
    // and the run seed is mixed into the fault draws.
    SystemConfig cfg = config;
    cfg.memory.policy = cfg.policy;
    cfg.hierarchy.llc.eagerEnabled = cfg.policy.eager;
    cfg.memory.fault.seed ^= cfg.seed * 0x2545F4914F6CDD1Dull;

    EventQueue eventq;
    TimedWorkload workload(makeWorkload(cfg.workloadName, cfg.seed), log);
    MemorySystemConfig mem_cfg;
    mem_cfg.numChannels = cfg.numChannels;
    mem_cfg.channel = cfg.memory;
    MemorySystem memory(eventq, mem_cfg);
    PortShim port(memory, log);
    Hierarchy hierarchy(eventq, cfg.hierarchy, port, cfg.seed);
    TraceCore core(eventq, cfg.core, workload, hierarchy);

    const std::uint64_t t_warm = nowNs();
    log.spans()[construct].endNs = t_warm;
    const int warmup = log.add("warmup", t_warm, 0, root);
    log.setPhase(warmup);

    // System::run(): functional warm-up from the front of the stream.
    std::uint64_t warm_instrs = 0;
    while (warm_instrs < cfg.warmupInstructions) {
        Op op = workload.next();
        warm_instrs += op.gap + 1;
        timedCall(out.prime, log, "hierarchy.prime", [&] {
            hierarchy.prime(LogicalAddr(op.addr), op.isWrite);
            return 0;
        });
    }
    out.warmupNext = workload.nextProbe();

    const std::uint64_t t_detail = nowNs();
    log.spans()[warmup].endNs = t_detail;
    const int detailed = log.add("detailed", t_detail, 0, root);
    log.setPhase(detailed);

    core.start(cfg.instructions);
    bool capacity_exhausted = false;
    std::uint64_t steps = 0;
    while (!core.done()) {
        if (!eventq.step())
            break;
        if ((++steps & 0x3FF) == 0 && memory.capacityFloorReached()) {
            capacity_exhausted = true;
            break;
        }
        if (eventq.curTick() > cfg.maxSimTicks) {
            fatal("simulation exceeded the %f s safety wall",
                  ticksToSeconds(cfg.maxSimTicks));
        }
    }
    panic_if(!core.done() && !capacity_exhausted,
             "event queue drained before the core finished");
    memory.finalize();

    const std::uint64_t t_end = nowNs();
    log.spans()[detailed].endNs = t_end;
    log.spans()[root].endNs = t_end;

    out.report = assembleReport(cfg, workload, memory, hierarchy, core,
                                eventq.curTick(), capacity_exhausted);
    out.core = core.stats();
    const HierarchyStats &h = hierarchy.stats();
    out.accesses = h.accesses.value();
    out.l1Hits = h.l1Hits.value();
    out.l2Hits = h.l2Hits.value();
    out.llcHits = h.llcHits.value();
    out.llcMisses = h.llcMisses.value();
    out.mshrMerges = h.mshrMerges.value();
    out.blocked = h.blocked.value();
    out.events = steps;
    out.constructNs = t_warm - t_start;
    out.warmupNs = t_detail - t_warm;
    out.detailedNs = t_end - t_detail;
    out.detailedNext = workload.nextProbe() - out.warmupNext;
    out.port = port.counts();
    out.portNs = port.totalNs();
}

} // namespace perfbench
