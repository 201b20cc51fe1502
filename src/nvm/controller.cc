#include "nvm/controller.hh"

#include <algorithm>
#include <cmath>
#include <type_traits>

#include "sim/logging.hh"

namespace mellowsim
{

MemoryController::MemoryController(EventQueue &eventq,
                                   const MemControllerConfig &config)
    : _eventq(eventq), _config(config), _map(config.geometry),
      _timing(config.timing),
      _slowPulse(config.timing.slowWritePulse(
          PulseFactor(config.policy.slowFactor))),
      _readQ(config.geometry.numBanks, config.readQueueSize),
      _writeQ(config.geometry.numBanks, config.writeQueueSize),
      _eagerQ(config.geometry.numBanks, config.eagerQueueSize),
      _writeBlocks(2 * (std::size_t{config.writeQueueSize} +
                        config.eagerQueueSize)),
      _banks(config.geometry.numBanks), _ranks(config.geometry.numRanks),
      _writeCompletion(config.geometry.numBanks, InvalidEventHandle),
      _lastReadArrival(config.geometry.numBanks, 0),
      _pausedBanks(config.geometry.numBanks),
      _readableScratch(config.geometry.numBanks),
      _writableScratch(config.geometry.numBanks),
      _settled(config.geometry.numBanks),
      _endurance(config.endurance),
      _wear(
          [&config] {
              WearTrackerConfig w;
              w.numBanks = config.geometry.numBanks;
              w.blocksPerBank = config.geometry.blocksPerBank();
              // With fault injection enabled the controller owns the
              // live issue-path leveler; the tracker must not stack a
              // second (measurement) rotation on top of it.
              w.leveler = config.fault.enabled ? WearLevelerKind::None
                                               : config.wearLeveler;
              w.gapWritePeriod = config.gapWritePeriod;
              w.levelerSeed = config.levelerSeed;
              w.levelingEfficiency = config.levelingEfficiency;
              w.detailedBlocks = config.detailedWear;
              return w;
          }(),
          _endurance),
      _energy(config.energy),
      _levelers(config.geometry.numBanks),
      _pass(eventq.addTimer([this] { trySchedule(); }))
{
    fatal_if(config.drainLowThreshold >= config.writeQueueSize,
             "drain low threshold (%u) must be below the write queue "
             "size (%u)",
             config.drainLowThreshold, config.writeQueueSize);
    fatal_if(config.policy.slowFactor < 1.0,
             "slow factor must be >= 1.0 (got %f)",
             config.policy.slowFactor);
    if (_config.policy.wearQuota) {
        WearQuotaConfig q = _config.quota;
        q.blocksPerBank = _config.geometry.blocksPerBank();
        _quota = std::make_unique<WearQuota>(q,
                                             _config.geometry.numBanks);
        _eventq.scheduleIn(q.samplePeriod, [this] { onQuotaPeriod(); });
    }
    if (_config.fault.enabled) {
        // The unified remap path: one live leveler per bank on the
        // issue path, then the retirement indirection on its output.
        WearLevelerParams lp;
        lp.kind = _config.wearLeveler;
        lp.numBlocks = _config.geometry.blocksPerBank();
        lp.maintenancePeriod = _config.gapWritePeriod;
        lp.pageBlocks = _config.softWearPageBlocks;
        lp.counterSamplePeriod = _config.softWearSamplePeriod;
        lp.relocationThreshold = _config.softWearRelocThreshold;
        lp.spareBlocks = _config.fault.spareLinesPerBank;
        for (unsigned i = 0; i < _config.geometry.numBanks; ++i) {
            lp.seed = _config.levelerSeed + i;
            _levelers[BankId(i)] = makeWearLeveler(lp);
        }

        FaultConfig f = _config.fault;
        f.numBanks = _config.geometry.numBanks;
        // The fault model lives in the leveled block space. A
        // unified-remap leveler (WoLFRaM) already includes its spare
        // slots in numPhysicalBlocks, and the fault model must name
        // its spares [numBlocks, numBlocks + spares) to match the
        // PAD's slot layout; every other leveler needs the spare pool
        // appended after its own physical range (Start-Gap's leveled
        // space is [0, N + 1), so spares starting at N would collide
        // with the gap block).
        const WearLeveler &proto = *_levelers[BankId(0)];
        f.blocksPerBank = proto.ownsFaultRemap()
                              ? proto.numBlocks()
                              : proto.numPhysicalBlocks();
        _faults = std::make_unique<FaultModel>(f);
        for (unsigned i = 0; i < _config.geometry.numBanks; ++i) {
            if (FaultRemapDelegate *delegate =
                    _levelers[BankId(i)]->faultRemapDelegate()) {
                _faults->setRemapDelegate(BankId(i), delegate);
            }
        }
    }
}

void
MemoryController::onQuotaPeriod()
{
    _quota->onPeriodBoundary();
    unsettleAll();
    _eventq.scheduleIn(_quota->config().samplePeriod,
                       [this] { onQuotaPeriod(); });
    // Quota flags changed; queued writes may now decide differently.
    requestSchedule(_eventq.curTick());
}

bool
MemoryController::quotaExceeded(BankId bank) const
{
    return _quota != nullptr && _quota->slowOnly(bank);
}

BankQueueView
MemoryController::bankView(BankId bank) const
{
    BankQueueView v;
    v.readsForBank = _readQ.countForBank(bank);
    v.writesForBank = _writeQ.countForBank(bank);
    v.eagerForBank = _eagerQ.countForBank(bank);
    v.drainMode = _draining;
    v.quotaExceeded = quotaExceeded(bank);
    return v;
}

void
MemoryController::read(LogicalAddr addr, ReadCallback onComplete)
{
    Tick now = _eventq.curTick();
    ++_stats.demandReads;

    // Read forwarding: a queued (or eager-queued) write to the same
    // block supplies the data from the controller's buffers without
    // touching the memory array.
    if (_writeBlocks.count(blockNumber(addr)) > 0) {
        ++_stats.forwardedReads;
        _stats.readLatency.sample(
            static_cast<double>(_config.forwardLatency));
        auto deliver = [onComplete] { onComplete(); };
        static_assert(EventQueue::fitsInline<decltype(deliver)>(),
                      "forwarded-read callback must use the inline "
                      "slot, not the out-of-line pool");
        _eventq.scheduleIn(_config.forwardLatency, deliver);
        return;
    }

    MemRequest req;
    req.type = ReqType::Read;
    req.addr = addr;
    req.loc = _map.decode(addr);
    req.arrival = now;
    req.onComplete = onComplete;
    _lastReadArrival[req.loc.bank] = now;
    unsettle(req.loc.bank);
    _readQ.push(req);
    requestSchedule(now);
}

void
MemoryController::writeback(LogicalAddr addr)
{
    Tick now = _eventq.curTick();
    ++_stats.acceptedWritebacks;
    MemRequest req;
    req.type = ReqType::Write;
    req.addr = addr;
    req.loc = _map.decode(addr);
    req.arrival = now;
    _writeBlocks.increment(blockNumber(addr));
    unsettle(req.loc.bank);
    _writeQ.push(req);
    updateDrainState(now);
    requestSchedule(now);
}

bool
MemoryController::eagerWrite(LogicalAddr addr)
{
    Tick now = _eventq.curTick();
    if (_eagerQ.full()) {
        ++_stats.rejectedEager;
        return false;
    }
    ++_stats.acceptedEager;
    MemRequest req;
    req.type = ReqType::EagerWrite;
    req.addr = addr;
    req.loc = _map.decode(addr);
    req.arrival = now;
    _writeBlocks.increment(blockNumber(addr));
    unsettle(req.loc.bank);
    _eagerQ.push(req);
    requestSchedule(now);
    return true;
}

bool
MemoryController::eagerQueueHasSpace() const
{
    return !_eagerQ.full();
}

void
MemoryController::requestSchedule(Tick when)
{
    Tick now = _eventq.curTick();
    if (when < now)
        when = now;
    if (_eventq.armed(_pass) && _eventq.armedAt(_pass) <= when)
        return;
    _eventq.arm(_pass, when);
}

void
MemoryController::updateDrainState(Tick now)
{
    if (!_draining && _writeQ.size() >= _config.writeQueueSize) {
        _draining = true;
        _drainStart = now;
        ++_stats.drainEntries;
        unsettleAll();
    } else if (_draining &&
               _writeQ.size() <= _config.drainLowThreshold) {
        _draining = false;
        _drainTicks += now - _drainStart;
        unsettleAll();
    }
}

bool
MemoryController::busAvailable(Tick now, Tick *nextWake) const
{
    Tick lead = static_cast<Tick>(_config.busLeadBursts) * _timing.tBurst;
    if (_busNextFree <= now + lead)
        return true;
    *nextWake = std::min(*nextWake, _busNextFree - lead);
    return false;
}

Tick
MemoryController::reserveBus(Tick earliest)
{
    Tick start = std::max(earliest, _busNextFree);
    _busNextFree = start + _timing.tBurst;
    return start;
}

void
MemoryController::cancelBankWrite(BankId bank, Tick now)
{
    Bank &b = _banks[bank];
    bool slow = b.writeSlow();
    Tick pulse = b.writePulse();

    Tick elapsed = 0;
    MemRequest w = b.cancelWrite(now, &elapsed);
    if (elapsed > pulse)
        elapsed = pulse;
    double progress =
        pulse ? static_cast<double>(elapsed) / static_cast<double>(pulse)
              : 0.0;

    _wear.recordCancelledWrite(bank, w.line, pulse, elapsed, slow,
                               _config.cancelWearFraction);
    if (_quota != nullptr) {
        _quota->recordWear(bank, _endurance.wearPerWrite(pulse) *
                                     progress *
                                     _config.cancelWearFraction);
    }
    _energy.recordCancelledWrite(slow, progress);
    ++_stats.cancelledWrites;

    if (_writeCompletion[bank] != InvalidEventHandle) {
        _eventq.deschedule(_writeCompletion[bank]);
        _writeCompletion[bank] = InvalidEventHandle;
    }

    // The aborted write retries from the front of its queue.
    requeueWrite(w, now);
}

void
MemoryController::requeueWrite(const MemRequest &req, Tick now)
{
    _writeBlocks.increment(blockNumber(req.addr));
    unsettle(req.loc.bank);
    if (req.type == ReqType::Write) {
        _writeQ.pushFront(req);
        updateDrainState(now);
    } else {
        _eagerQ.pushFront(req);
    }
}

Tick
MemoryController::tryIssueRead(BankId bank, Tick now, Tick *nextWake)
{
    if (_readQ.countForBank(bank) == 0)
        return MaxTick;
    // During a drain, banks with pending writes serve writes first.
    if (_draining && _writeQ.countForBank(bank) > 0)
        return MaxTick;

    Bank &b = _banks[bank];
    if (!_draining) {
        if (b.pausableWrite(now))
            pauseBankWrite(bank, now);
        else if (b.cancellableWrite(now))
            cancelBankWrite(bank, now);
    }

    // A pause or a cancel above leaves the bank idle, so a busy bank
    // here acted on nothing, and as it holds no pausable or
    // cancellable write, none can come up while it stays busy.
    if (!b.idleAt(now)) {
        *nextWake = std::min(*nextWake, b.busyUntil());
        return b.busyUntil();
    }

    // The rank's activate window and the bus are shared with other
    // banks, so what they decide is not settled.
    const MemRequest &head = _readQ.front(bank);
    bool row_hit = b.openRowTag() == head.loc.rowTag;
    if (!row_hit) {
        Tick allowed =
            _ranks[head.loc.rank].nextActivateAllowed(now, _timing.tFAW);
        if (allowed > now) {
            *nextWake = std::min(*nextWake, allowed);
            return now;
        }
    }
    if (!busAvailable(now, nextWake))
        return now;

    unsettle(bank);
    const MemRequest req = _readQ.pop(bank);
    Tick access = _timing.readAccess(row_hit);
    Tick access_done = now + access;
    Tick bus_start = reserveBus(access_done);
    Tick done = bus_start + _timing.tBurst;

    if (!row_hit)
        _ranks[req.loc.rank].recordActivate(now);
    b.startRead(now, access, req.loc.rowTag);

    ++_stats.issuedReads;
    if (row_hit)
        ++_stats.rowHitReads;
    else
        ++_stats.rowMissReads;
    _energy.recordRead(row_hit);
    _stats.readLatency.sample(static_cast<double>(done - req.arrival));

    auto deliver = [this, cb = req.onComplete] {
        if (cb)
            cb();
        requestSchedule(_eventq.curTick());
    };
    static_assert(EventQueue::fitsInline<decltype(deliver)>() &&
                      std::is_trivially_destructible_v<decltype(deliver)>,
                  "read-completion callback must use the inline slot "
                  "and need no destructor call");
    _eventq.schedule(done, deliver);
    // The bank frees before the data burst completes; wake then.
    requestSchedule(access_done);
    return now;
}

Tick
MemoryController::tryIssueWrite(BankId bank, Tick now, Tick *nextWake)
{
    Bank &bank_state = _banks[bank];

    // A paused write owns the bank's write machinery: it resumes as
    // soon as the bank is clear of reads, before anything new issues.
    if (bank_state.hasPausedWrite()) {
        if (_readQ.countForBank(bank) > 0 && !_draining)
            return MaxTick; // read events will wake us
        if (!bank_state.idleAt(now)) {
            *nextWake = std::min(*nextWake, bank_state.busyUntil());
            return bank_state.busyUntil();
        }
        unsettle(bank);
        Tick done = bank_state.resumeWrite(now);
        _pausedBanks.clear(bank);
        ++_stats.resumedWrites;
        auto fire = [this, bank] { onWriteComplete(bank); };
        static_assert(EventQueue::fitsInline<decltype(fire)>(),
                      "write-completion callback must use the inline "
                      "slot");
        _writeCompletion[bank] = _eventq.schedule(done, std::move(fire));
        return now;
    }

    WriteDecision dec = decideWrite(_config.policy, bankView(bank));
    if (dec == WriteDecision::None)
        return MaxTick;

    // Recent-read guard: keep slow/eager writes off banks a read
    // stream is actively visiting (see MemControllerConfig).
    Tick window = _config.recentReadWindow;
    Tick last_read = _lastReadArrival[bank];
    if (window != 0 && last_read != 0 && now < last_read + window) {
        bool eager_dec = dec == WriteDecision::EagerSlow ||
                         dec == WriteDecision::EagerNormal;
        if (eager_dec) {
            *nextWake = std::min(*nextWake, last_read + window);
            return last_read + window;
        }
        if (dec == WriteDecision::SlowWrite && !_config.policy.globalSlow
            && !(_config.policy.wearQuota && quotaExceeded(bank))) {
            dec = WriteDecision::NormalWrite;
        }
    }

    // Once passed, the guard stays passed, and a downgrade does not
    // decide whether the bank can issue.
    Bank &b = _banks[bank];
    if (!b.idleAt(now)) {
        *nextWake = std::min(*nextWake, b.busyUntil());
        return b.busyUntil();
    }
    if (!busAvailable(now, nextWake))
        return now;

    unsettle(bank);
    bool eager = dec == WriteDecision::EagerSlow ||
                 dec == WriteDecision::EagerNormal;
    bool slow = isSlowDecision(dec);
    MemRequest req = eager ? _eagerQ.pop(bank) : _writeQ.pop(bank);
    _writeBlocks.decrement(blockNumber(req.addr));
    // Resolve the device line at issue time, so writes queued before
    // a retirement are also redirected through the indirection table
    // (retired lines are never written — audited). loc.blockInBank
    // itself stays in the logical space.
    req.line = deviceLineFor(req);
    if (_faults != nullptr)
        _faults->noteWriteIssued(req.loc.bank, req.line);
    bool may_cancel = cancellable(_config.policy, dec) &&
                      req.attempts < _config.maxWriteCancellations;
    bool may_pause = _config.policy.pauseWrites;
    // Writes forced slow by an exceeded Wear Quota are the throttle
    // that delivers the lifetime guarantee; letting reads cancel or
    // pause them would keep the wear rate unthrottled and defeat the
    // quota.
    if (_config.policy.wearQuota && quotaExceeded(bank)) {
        may_cancel = false;
        may_pause = false;
    }
    // Pausing preserves the pulse, so it supersedes cancellation.
    if (may_pause)
        may_cancel = false;
    ++req.attempts;

    Tick pulse = slow ? _slowPulse : _timing.tWP;
    if (slow && !_config.policy.adaptiveSlowFactors.empty() &&
        !_config.policy.globalSlow &&
        !(_config.policy.wearQuota && quotaExceeded(bank))) {
        pulse = _timing.slowWritePulse(chooseAdaptiveFactor(bank, now));
    }
    if (req.retries > 0) {
        // Write-verify retry: progressively slower pulses switch the
        // cell more reliably (the paper's latency trade-off reused as
        // a reliability knob). Counted as a slow write throughout.
        // Truncation (not rounding) is the device's historical retry
        // behaviour; keep it bit-stable across the type change.
        pulse = static_cast<Tick>(
            static_cast<double>(pulse) *
            std::pow(_config.fault.retrySlowFactor, req.retries));
        slow = true;
    }
    Tick bus_start = reserveBus(now);
    Tick pulse_start = bus_start + _timing.tBurst;

    if (slow)
        ++(eager ? _stats.issuedEagerSlow : _stats.issuedSlowWrites);
    else
        ++(eager ? _stats.issuedEagerNormal : _stats.issuedNormalWrites);

    b.startWrite(now, pulse_start, pulse, std::move(req), slow,
                 may_cancel, may_pause);

    auto fire = [this, bank] { onWriteComplete(bank); };
    static_assert(EventQueue::fitsInline<decltype(fire)>(),
                  "write-completion callback must use the inline slot");
    _writeCompletion[bank] =
        _eventq.schedule(pulse_start + pulse, std::move(fire));

    if (!eager)
        updateDrainState(now);
    return now;
}

void
MemoryController::pauseBankWrite(BankId bank, Tick now)
{
    Bank &b = _banks[bank];
    b.pauseWrite(now);
    unsettle(bank);
    _pausedBanks.set(bank);
    ++_stats.pausedWrites;
    if (_writeCompletion[bank] != InvalidEventHandle) {
        _eventq.deschedule(_writeCompletion[bank]);
        _writeCompletion[bank] = InvalidEventHandle;
    }
}

PulseFactor
MemoryController::chooseAdaptiveFactor(BankId bank, Tick now) const
{
    const auto &ladder = _config.policy.adaptiveSlowFactors;
    // Quiet time since the last read arrival predicts how long the
    // bank will stay undisturbed; a never-read bank is wide open.
    Tick last_read = _lastReadArrival[bank];
    Tick quiet = last_read == 0 ? MaxTick : now - last_read;
    for (auto it = ladder.rbegin(); it != ladder.rend(); ++it) {
        if (_timing.slowWritePulse(PulseFactor(*it)) <= quiet)
            return PulseFactor(*it);
    }
    return PulseFactor(ladder.front());
}

DeviceAddr
MemoryController::deviceLineFor(const MemRequest &req) const
{
    if (_faults != nullptr) {
        // The unified remap path: the bank's live leveler moves the
        // logical line into the leveled block space, then retirement
        // redirects. A leveler that owns the fault remap (WoLFRaM)
        // already resolved retirement inside level(), so its output
        // is final.
        const WearLeveler &lev = *_levelers[req.loc.bank];
        LeveledAddr leveled = lev.level(req.loc.blockInBank);
        if (lev.ownsFaultRemap())
            return deviceLineOf(leveled);
        return _faults->remap(req.loc.bank, leveled);
    }
    return deviceLineOf(req.loc.blockInBank);
}

void
MemoryController::runLevelerMaintenance(BankId bank, LineIndex written,
                                        Tick now)
{
    if (_levelers[bank] == nullptr)
        return;
    WearLeveler &lev = *_levelers[bank];
    std::uint64_t extra[2] = {0, 0};
    // mlint: allow(value-escape): noteWrite's counter seam is raw
    // block numbers by contract (see WearLeveler::noteWrite).
    unsigned moves = lev.noteWrite(extra, written.value());
    for (unsigned i = 0; i < moves; ++i)
        chargeMaintenanceWrite(bank, LeveledAddr(extra[i]), now);
    while (lev.hasPendingMigration())
        chargeMaintenanceWrite(bank, LeveledAddr(lev.takeMigrationWrite()),
                               now);
}

void
MemoryController::chargeMaintenanceWrite(BankId bank, LeveledAddr block,
                                         Tick now)
{
    const WearLeveler &lev = *_levelers[bank];
    // Maintenance targets are physical blocks in the leveled space;
    // only the (non-unified) retirement indirection still applies.
    DeviceAddr line = (lev.ownsFaultRemap() || _faults == nullptr)
                          ? deviceLineOf(block)
                          : _faults->remap(bank, block);
    Tick pulse = _timing.tWP;
    _wear.recordMaintenanceWrite(bank, line, pulse);
    if (_quota != nullptr)
        _quota->recordWear(bank, _endurance.wearPerWrite(pulse));
    _energy.recordWrite(/*slow=*/false);
    ++_stats.maintenanceWrites;
    _banks[bank].occupyMaintenance(now, pulse);
    if (_faults != nullptr)
        _faults->noteMaintenanceWrite(bank, line,
                                      _endurance.wearPerWrite(pulse), now);
}

void
MemoryController::onWriteComplete(BankId bank)
{
    Bank &b = _banks[bank];
    bool slow = b.writeSlow();
    Tick pulse = b.writePulse();
    MemRequest req = b.finishWrite();
    _writeCompletion[bank] = InvalidEventHandle;
    Tick now = _eventq.curTick();
    // Captured before the Retry branch moves the request away; the
    // leveler counts logical demand writes, retries included (every
    // attempt stressed the line, matching the tracker's accounting).
    LineIndex logical = req.loc.blockInBank;

    // Device-level accounting is per attempt: a pulse that later
    // fails verification still stressed and powered the cell (and
    // still counts against the Wear Quota).
    _wear.recordWrite(bank, req.line, pulse, slow);
    if (_quota != nullptr)
        _quota->recordWear(bank, _endurance.wearPerWrite(pulse));
    _energy.recordWrite(slow);

    WriteVerdict verdict = WriteVerdict::Ok;
    if (_faults != nullptr) {
        // Issued pulses are never shorter than tWP, so the ratio is
        // a legitimate PulseFactor by construction.
        PulseFactor factor(static_cast<double>(pulse) /
                           static_cast<double>(_timing.tWP));
        verdict = _faults->verifyWrite(bank, req.line,
                                       _endurance.wearPerWrite(pulse),
                                       factor, req.retries, now);
    }

    if (verdict == WriteVerdict::Retry) {
        // Failed verification: the request reissues from the front of
        // its queue with a slower pulse (bounded by maxRetries).
        ++_stats.retriedWrites;
        ++req.retries;
        requeueWrite(req, now);
    } else {
        // Ok, Retired (data landed in the fresh spare), and
        // Uncorrectable (data lost, loss recorded) all complete the
        // request — graceful degradation, never an abort.
        if (req.type == ReqType::EagerWrite) {
            ++_stats.completedEagerWrites;
        } else {
            ++_stats.completedDemandWrites;
        }
    }

    runLevelerMaintenance(bank, logical, now);

    unsettle(bank);
    requestSchedule(now);
}

void
MemoryController::trySchedule()
{
    schedulePass(nullptr);
}

void
MemoryController::schedulePass(SettledHook onSettled)
{
    Tick now = _eventq.curTick();
    updateDrainState(now);

    // Both passes walk the incrementally maintained non-empty masks
    // in ascending bank order. A bank outside a mask makes
    // tryIssueRead/tryIssueWrite return with no side effects and no
    // *nextWake update, so skipping it changes no decision. The masks
    // are snapshotted because issuing mutates them (pops empty banks
    // out), and the write mask is built only after the read pass,
    // which can requeue cancelled writes. The snapshots are copied
    // word by word into member scratch masks of the same size, so a
    // pass allocates nothing and calls no memmove. A pass never
    // re-enters itself:
    // requestSchedule only arms the next one.
    //
    // A bank side whose last evaluation settled is not evaluated
    // again; its recorded wake is folded instead. Every change that
    // could alter the outcome drops it first (unsettle()), including
    // the changes earlier banks make in this same pass, so each
    // evaluation still sees exactly what the full walk would have
    // shown it, and next_wake is the full walk's.
    Tick next_wake = MaxTick;
    auto visit = [&](BankId bank, Settled &settled, bool writeSide,
                     auto evaluate) {
        if (now < settled.until) {
            if (onSettled != nullptr)
                onSettled(*this, bank, writeSide, settled.wake);
            next_wake = std::min(next_wake, settled.wake);
            return;
        }
        Tick wake = MaxTick;
        const Tick until = evaluate(&wake);
        settled = Settled{until, wake};
        next_wake = std::min(next_wake, wake);
    };

    _readableScratch.assign(_readQ.nonEmptyBanks());
    _readableScratch.forEach([&](BankId bank) {
        visit(bank, _settled[bank].read, false, [&](Tick *wake) {
            return tryIssueRead(bank, now, wake);
        });
    });

    _writableScratch.assign(_writeQ.nonEmptyBanks());
    _writableScratch |= _eagerQ.nonEmptyBanks();
    _writableScratch |= _pausedBanks; // a parked resume needs no entry
    _writableScratch.forEach([&](BankId bank) {
        visit(bank, _settled[bank].write, true, [&](Tick *wake) {
            return tryIssueWrite(bank, now, wake);
        });
    });

    if (next_wake != MaxTick)
        requestSchedule(next_wake);
}

void
MemoryController::unsettleAll()
{
    for (BankSettled &s : _settled)
        s = BankSettled{};
}

void
MemoryController::finalize()
{
    Tick now = _eventq.curTick();
    if (_draining) {
        _drainTicks += now - _drainStart;
        _drainStart = now;
    }
    for (auto &b : _banks)
        b.busyTracker().truncateAt(now);
}

double
MemoryController::drainTimeFraction() const
{
    Tick now = _eventq.curTick();
    if (now == 0)
        return 0.0;
    Tick total = _drainTicks;
    if (_draining && now > _drainStart)
        total += now - _drainStart;
    return static_cast<double>(total) / static_cast<double>(now);
}

const Bank &
MemoryController::bank(BankId idx) const
{
    return _banks[idx];
}

double
MemoryController::bankUtilization(BankId bank) const
{
    return _banks[bank].busyTracker().utilization(_eventq.curTick());
}

double
MemoryController::avgBankUtilization() const
{
    double sum = 0.0;
    for (unsigned i = 0; i < _banks.size(); ++i)
        sum += bankUtilization(BankId(i));
    return sum / static_cast<double>(_banks.size());
}

} // namespace mellowsim
