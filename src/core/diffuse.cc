#include "diffuse.h"

#include <atomic>
#include <chrono>
#include <cstring>

#include "common/env.h"
#include "common/logging.h"

namespace diffuse {

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Process-wide session numbering (warning/error attribution). */
std::atomic<std::uint64_t> g_nextSessionId{1};

} // namespace

DiffuseRuntime::DiffuseRuntime(const rt::MachineConfig &machine,
                               DiffuseOptions options)
    : DiffuseRuntime(SharedContext::create(machine), options)
{
}

DiffuseRuntime::DiffuseRuntime(std::shared_ptr<SharedContext> shared,
                               DiffuseOptions options)
    : ctx_(std::move(shared)),
      options_(options),
      low_(ctx_->machine(), options.mode, options.workers,
           options.ranks, ctx_->pool()),
      planner_(registry_, ctx_->compiler(), stores_,
               PlannerOptions{options.tempElimination,
                              options.kernelOptimization}),
      windowSize_(options.fusionEnabled ? options.initialWindow : 1)
{
    diffuse_assert(windowSize_ >= 1, "window must hold a task");
    fusionStats_.windowSize = windowSize_;
    low_.setSessionId(
        g_nextSessionId.fetch_add(1, std::memory_order_relaxed));
    // The planning fingerprint scopes every shared-cache key to this
    // session's configuration: any knob (beyond the event stream
    // itself) that changes what the planner emits, what the runtime
    // records, or how the window evolves must be mixed in here.
    planSalt_ = 0x53455353u; // "SESS"
    hashCombine64(planSalt_, options_.fusionEnabled ? 1 : 0);
    hashCombine64(planSalt_, options_.kernelOptimization ? 1 : 0);
    hashCombine64(planSalt_, options_.tempElimination ? 1 : 0);
    hashCombine64(planSalt_, options_.memoization ? 1 : 0);
    hashCombine64(planSalt_, std::uint64_t(options_.mode));
    hashCombine64(planSalt_, std::uint64_t(low_.workers()));
    hashCombine64(planSalt_, std::uint64_t(low_.ranks()));
    hashCombine64(planSalt_, std::uint64_t(options_.initialWindow));
    hashCombine64(planSalt_, std::uint64_t(options_.maxWindow));
    traceEnabled_ = options.trace >= 0
                        ? options.trace != 0
                        : envInt("DIFFUSE_TRACE", 1, 0, 1) != 0;
    if (traceEnabled_) {
        low_.setHostAccessObserver(
            [this](StoreId id) { traceOnHostAccess(id); });
    }
    traceBeginEpoch();
}

std::uint64_t
DiffuseRuntime::cacheSalt() const
{
    std::uint64_t salt = planSalt_;
    hashCombine64(salt, registry_.fingerprint());
    return salt;
}

DiffuseRuntime::~DiffuseRuntime()
{
    // Sessions may be torn down mid-flight (a serving client hangs
    // up): retire everything already submitted to the stream; tasks
    // still buffered in the window are abandoned. Shared caches hold
    // only canonical, session-independent state and stay usable.
    low_.fence();
}

StoreId
DiffuseRuntime::createStore(const Point &shape, DType dtype, double init)
{
    StoreId id = low_.createStore(shape, dtype, init);
    stores_.add(id, Rect::fromShape(shape), dtype);
    return id;
}

void
DiffuseRuntime::retainApp(StoreId id)
{
    if (traceOwns(id)) {
        TraceEvent ev;
        ev.kind = TraceEventKind::Retain;
        ev.store = id;
        traceOnEvent(std::move(ev));
        return;
    }
    stores_.retainApp(id);
}

void
DiffuseRuntime::releaseApp(StoreId id)
{
    if (traceOwns(id)) {
        TraceEvent ev;
        ev.kind = TraceEventKind::Release;
        ev.store = id;
        traceOnEvent(std::move(ev));
        return;
    }
    applyRelease(id);
}

void
DiffuseRuntime::applyRelease(StoreId id)
{
    if (stores_.releaseApp(id)) {
        low_.destroyStore(id);
        stores_.remove(id);
    }
}

const StoreMeta &
DiffuseRuntime::storeMeta(StoreId id) const
{
    return stores_.get(id);
}

void
DiffuseRuntime::submit(IndexTask task)
{
    // One epoch in flight at most: the epoch flushWindowAsync() left
    // pending retires before this task is buffered, so the new epoch
    // submits into a drained stream. Failures it latches are refused
    // below.
    if (epochInFlight_ && low_.streamPending() > 0)
        low_.fence();
    epochInFlight_ = false;
    if (failed())
        throw DiffuseError(makeError(
            ErrorCode::SessionFailed,
            "submit into failed session (resetAfterError() to "
            "recover); root cause: " +
                error().describe(),
            error().originTask, error().originStore,
            error().originEvent));
    if (task.launchDomain.empty())
        throw DiffuseError(makeError(
            ErrorCode::InvalidArgument,
            strprintf("task %s has an empty launch domain",
                      task.name.c_str())));
    Clock::time_point t0 = Clock::now();
    for (const StoreArg &arg : task.args)
        stores_.retainWindow(arg.store);
    fusionStats_.tasksSubmitted++;
    if (traceRouting()) {
        TraceEvent ev;
        ev.kind = TraceEventKind::Submit;
        ev.task = std::move(task);
        traceOnEvent(std::move(ev));
    } else {
        window_.push_back(std::move(task));
        while (int(window_.size()) >= windowSize_)
            processOne();
    }
    traceEpochSeconds_ += secondsSince(t0);
}

void
DiffuseRuntime::flushWindow()
{
    flushWindowImpl(true);
}

void
DiffuseRuntime::flushWindowAsync()
{
    epochInFlight_ = true;
    flushWindowImpl(false);
}

void
DiffuseRuntime::flushWindowImpl(bool drain)
{
    // Nothing buffered, nothing in the open epoch and nothing in
    // flight: there is nothing to synchronize, so count nothing and
    // leave the epoch open. A failure latched earlier still surfaces.
    if (window_.empty() && traceEvent_ == 0 &&
        low_.streamPending() == 0) {
        if (low_.failed())
            throw DiffuseError(low_.error());
        return;
    }
    Clock::time_point t0 = Clock::now();
    fusionStats_.flushes++;
    if (traceEnabled_) {
        if (traceMode_ == TraceMode::Speculating) {
            if (traceTryReplay()) {
                fusionStats_.replaySubmitSeconds +=
                    traceEpochSeconds_ + secondsSince(t0);
                fusionStats_.traceEpochsReplayed++;
                if (drain)
                    low_.fence();
                traceBeginEpoch();
                // The fence never throws; failures it drained into
                // the session state surface here, at the paper's
                // synchronization point.
                if (low_.failed())
                    throw DiffuseError(low_.error());
                return;
            }
            // A candidate engaged but the epoch ended early or failed
            // validation: fall back to the analyzed path and
            // recapture (replacing the stale cache entry).
            fusionStats_.traceAborts++;
            traceMode_ = TraceMode::Capturing;
            traceBeginCapture();
            traceDrainPending();
        }
    }
    traceCurEvent_ = traceEvent_; // flush-emitted units
    while (!window_.empty())
        processOne();
    if (traceMode_ == TraceMode::Capturing)
        traceFinalizeCapture();
    fusionStats_.plannedSubmitSeconds +=
        traceEpochSeconds_ + secondsSince(t0);
    // Drain the asynchronous stream: flush is the paper's
    // synchronization point, so every submitted group retires here —
    // or, after flushWindowAsync(), by the next submit() at the latest.
    if (drain)
        low_.fence();
    traceBeginEpoch();
    // Failures recorded during the drain surface now, as the root
    // cause; the session stays failed until resetAfterError().
    if (low_.failed())
        throw DiffuseError(low_.error());
}

double
DiffuseRuntime::readScalar(StoreId id)
{
    flushWindow();
    return low_.readScalarValue(id);
}

std::vector<double>
DiffuseRuntime::readStoreF64(StoreId id)
{
    flushWindow();
    const StoreMeta &meta = stores_.get(id);
    std::size_t n = std::size_t(meta.shape.volume());
    std::vector<double> out(n);
    const double *p = low_.dataF64(id);
    std::memcpy(out.data(), p, n * sizeof(double));
    return out;
}

void
DiffuseRuntime::writeStoreF64(StoreId id, const std::vector<double> &v)
{
    flushWindow();
    const StoreMeta &meta = stores_.get(id);
    std::size_t n = std::size_t(meta.shape.volume());
    if (v.size() != n)
        throw DiffuseError(makeError(
            ErrorCode::InvalidArgument,
            strprintf("writeStoreF64 size mismatch: %zu values for %zu "
                      "elements",
                      v.size(), n),
            std::string(), id));
    // A full overwrite redefines the contents: lift any poison before
    // the accessor (which would otherwise surface the stale failure).
    low_.clearPoison(id);
    std::memcpy(low_.dataF64(id), v.data(), n * sizeof(double));
    low_.markInitialized(id);
}

void
DiffuseRuntime::resetAfterError()
{
    // Abandon buffered work, releasing the references it holds.
    // Deferred (speculating) events are unwound likewise: submits are
    // dropped, retains/releases applied so app refcounts stay exact.
    for (TraceEvent &ev : tracePending_) {
        switch (ev.kind) {
          case TraceEventKind::Submit:
            releaseTaskRefs(ev.task);
            break;
          case TraceEventKind::Retain:
            stores_.retainApp(ev.store);
            break;
          case TraceEventKind::Release:
            applyRelease(ev.store);
            break;
        }
    }
    tracePending_.clear();
    for (IndexTask &t : window_)
        releaseTaskRefs(t);
    window_.clear();
    low_.resetAfterError();
    traceBeginEpoch();
}

bool
DiffuseRuntime::windowReadsBeyond(StoreId id,
                                  std::size_t prefix_len) const
{
    // Definition 4, condition 2: a pending task beyond the prefix
    // reads or reduces the store.
    for (std::size_t t = prefix_len; t < window_.size(); t++) {
        for (const StoreArg &arg : window_[t].args) {
            if (arg.store == id &&
                (privReads(arg.priv) || privReduces(arg.priv))) {
                return true;
            }
        }
    }
    return false;
}

bool
DiffuseRuntime::liveAfterIndex(StoreId id, std::size_t prefix_len) const
{
    // Definition 4, condition 3: live application references.
    if (stores_.get(id).appRefs > 0)
        return true;
    return windowReadsBeyond(id, prefix_len);
}

ExecutionGroup
DiffuseRuntime::buildSingleCached(const IndexTask &task)
{
    // Library task variants are compiled ahead of time in the real
    // system; cache them by type and signature.
    kir::GenSignature sig = planner_.signatureFor(task);
    std::string key;
    key.reserve(16 + sig.args.size() * 16);
    auto append = [&key](std::uint64_t v) {
        key.append(reinterpret_cast<const char *>(&v), sizeof(v));
    };
    append(task.type);
    append(std::uint64_t(sig.numScalars));
    for (const kir::ArgInfo &a : sig.args) {
        append(std::uint64_t(a.dims));
        append(std::uint64_t(a.dtype));
        append(std::uint64_t(a.aliasClass + 1));
        append(std::uint64_t(a.shapeClass + 1));
    }

    append(cacheSalt());

    ExecutionGroup group;
    group.task = task;
    group.sourceTasks = 1;
    group.fused = false;
    group.kernel = ctx_->singleKernel(
        key, [&] { return planner_.buildSingle(task).kernel; });
    return group;
}

void
DiffuseRuntime::processOne()
{
    if (window_.empty())
        return;

    bool was_full = int(window_.size()) >= windowSize_;

    FusionBlock block = FusionBlock::None;
    int f = options_.fusionEnabled
                ? planner_.findPrefix(window_, &block)
                : 1;
    diffuse_assert(f >= 1, "planner returned empty prefix");
    fusionStats_.blocks[std::size_t(block)]++;

    std::span<const IndexTask> prefix(window_.data(), std::size_t(f));
    ExecutionGroup group;
    if (f >= 2) {
        auto live = [this, f](StoreId id) {
            if (!traceCaptureUnits_)
                return liveAfterIndex(id, std::size_t(f));
            // Capture splits the liveness conditions: the in-window
            // component is implied by a matching event stream, so
            // only app-refcount-decided bits need replay validation.
            bool app = stores_.get(id).appRefs > 0;
            bool win = windowReadsBeyond(id, std::size_t(f));
            if (!win) {
                int slot = traceEnc_.slotOf(id);
                diffuse_assert(slot >= 0,
                               "liveness probe for store outside the "
                               "captured epoch");
                bool seen = false;
                for (const TraceProbe &p : traceProbes_)
                    seen = seen || p.slot == slot;
                if (!seen)
                    traceProbes_.push_back({slot, app});
            }
            return app || win;
        };
        if (options_.memoization) {
            Memoizer &memo = ctx_->memo();
            std::vector<StoreId> slots;
            std::string key = memo.encode(prefix, stores_, live, &slots);
            std::uint64_t salt = cacheSalt();
            key.append(reinterpret_cast<const char *>(&salt),
                       sizeof(salt));
            // Atomic lookup-or-build: with a shared context, sessions
            // racing on the same cold group serialize on its shard
            // and the group is planned and compiled exactly once
            // process-wide.
            const CachedGroup *plan = memo.getOrBuild(key, [&] {
                return Memoizer::canonicalize(
                    planner_.buildFused(prefix, live), slots);
            });
            group = Memoizer::instantiate(*plan, prefix, slots);
        } else {
            group = planner_.buildFused(prefix, live);
        }
        fusionStats_.fusedGroups++;
        fusionStats_.tempsEliminated += group.temps.size();
    } else {
        group = buildSingleCached(window_.front());
        fusionStats_.singleTasks++;
    }

    scheduleGroup(group);
    if (traceCaptureUnits_)
        traceRecordUnit(f, block, group);

    // Retire the emitted tasks and drop their window references.
    for (int t = 0; t < f; t++)
        releaseTaskRefs(window_[std::size_t(t)]);
    window_.erase(window_.begin(), window_.begin() + f);

    // Automatic window growth (paper §7): when a full window fused
    // entirely into one task, double the window.
    if (was_full && f >= windowSize_ &&
        windowSize_ < options_.maxWindow) {
        windowSize_ = std::min(windowSize_ * 2, options_.maxWindow);
        fusionStats_.windowGrowths++;
        traceEpochGrowths_++;
        fusionStats_.windowSize = windowSize_;
    }
}

void
DiffuseRuntime::scheduleGroup(const ExecutionGroup &group)
{
    // Submission is asynchronous: the group executes once its
    // dependencies retire (or at the next fence), letting the window
    // pipeline run ahead of the task stream.
    low_.submit(lowerGroup(group, stores_, ctx_->images()));
    fusionStats_.groupsLaunched++;
}

void
DiffuseRuntime::releaseTaskRefs(const IndexTask &task)
{
    for (const StoreArg &arg : task.args) {
        if (stores_.releaseWindow(arg.store)) {
            low_.destroyStore(arg.store);
            stores_.remove(arg.store);
        }
    }
}

// ---------------------------------------------------------------------
// Trace-memoized window replay
// ---------------------------------------------------------------------

bool
DiffuseRuntime::traceRouting() const
{
    return traceEnabled_ && traceMode_ != TraceMode::Bypassed;
}

bool
DiffuseRuntime::traceOwns(StoreId id) const
{
    // A retain or release of a store with no slot yet is foreign to
    // the open epoch: nothing buffered, deferred or recorded in it
    // references the store, so the event commutes with every deferred
    // one and applies at once, exactly as with tracing off. Left out
    // of the code stream, the releases a previous request leaves
    // behind no longer open the next request's epoch. Should the
    // store appear later in the epoch, its refcount-decided liveness
    // bits are probes, rechecked at replay against the refcount this
    // event already moved.
    return traceRouting() && traceEnc_.slotOf(id) >= 0;
}

void
DiffuseRuntime::traceBeginEpoch()
{
    if (low_.capturing())
        low_.endSubmitCapture();
    traceMode_ = TraceMode::Idle;
    traceEnc_.reset(windowSize_);
    traceSigs_.clear();
    tracePending_.clear();
    traceCands_.clear();
    traceRec_.reset();
    traceProbes_.clear();
    traceEvent_ = 0;
    traceCurEvent_ = 0;
    traceCaptureUnits_ = false;
    traceEpochGrowths_ = 0;
    traceEpochSeconds_ = 0.0;
}

void
DiffuseRuntime::traceOnEvent(TraceEvent ev)
{
    // The registry half of the salt settles only once libraries have
    // registered their task types — refresh it as the epoch's first
    // code is built (events always carry registered types).
    if (traceEvent_ == 0)
        traceEnc_.setSalt(cacheSalt());
    int idx = traceEvent_++;
    if (epochCodes_.size() <= std::size_t(idx))
        epochCodes_.emplace_back();
    std::string &code = epochCodes_[std::size_t(idx)];
    traceFresh_.clear();
    traceEnc_.encode(ev, stores_, &traceFresh_, code);
    // Fresh slots' runtime state is snapshotted before anything in
    // this epoch can have touched them: a store is only mutated by
    // processing events in which it already appeared.
    std::size_t sig_base = traceSigs_.size();
    for (StoreId sid : traceFresh_)
        traceSigs_.push_back(low_.storeStateSignature(sid));

    auto sigs_match = [&](const TraceEpoch *c) {
        for (std::size_t i = sig_base; i < traceSigs_.size(); i++) {
            if (i >= c->slotSigs.size() || c->slotSigs[i] != traceSigs_[i])
                return false;
        }
        return true;
    };

    switch (traceMode_) {
      case TraceMode::Idle: {
        // Snapshot the bucket (shared caches: candidates are held by
        // shared_ptr, so a concurrent replacement cannot invalidate
        // this session's speculation), then narrow by signature.
        bool has_bucket =
            ctx_->traceCache().candidates(code, &traceCands_);
        std::size_t live = 0;
        for (std::size_t i = 0; i < traceCands_.size(); i++) {
            if (!sigs_match(traceCands_[i].get()))
                continue;
            if (live != i)
                traceCands_[live] = std::move(traceCands_[i]);
            live++;
        }
        traceCands_.resize(live);
        if (!traceCands_.empty()) {
            traceMode_ = TraceMode::Speculating;
            tracePending_.push_back(std::move(ev));
            return;
        }
        // A full cache can still *replace* an epoch sharing this
        // first code (stale signatures); but when none does, capture
        // could never be stored — skip its overhead outright.
        if (!has_bucket &&
            ctx_->traceCache().entries() >= kTraceMaxEntries) {
            traceMode_ = TraceMode::Bypassed;
            traceCurEvent_ = idx;
            traceApplyEvent(ev);
            return;
        }
        traceMode_ = TraceMode::Capturing;
        traceBeginCapture();
        traceCurEvent_ = idx;
        traceApplyEvent(ev);
        return;
      }
      case TraceMode::Speculating: {
        std::size_t kept = 0;
        for (std::size_t i = 0; i < traceCands_.size(); i++) {
            const TraceEpoch *c = traceCands_[i].get();
            if (std::size_t(idx) < c->codes.size() &&
                c->codes[std::size_t(idx)] == code && sigs_match(c)) {
                if (kept != i)
                    traceCands_[kept] = std::move(traceCands_[i]);
                kept++;
            }
        }
        traceCands_.resize(kept);
        if (kept == 0) {
            fusionStats_.traceAborts++;
            traceMode_ = TraceMode::Capturing;
            traceBeginCapture();
            traceDrainPending();
            traceCurEvent_ = idx;
            traceApplyEvent(ev);
            return;
        }
        tracePending_.push_back(std::move(ev));
        return;
      }
      case TraceMode::Capturing: {
        if (traceEvent_ > kTraceMaxEvents)
            traceSwitchToBypass();
        traceCurEvent_ = idx;
        traceApplyEvent(ev);
        return;
      }
      case TraceMode::Bypassed:
        traceCurEvent_ = idx;
        traceApplyEvent(ev);
        return;
    }
}

void
DiffuseRuntime::traceDrainPending()
{
    std::vector<TraceEvent> pend = std::move(tracePending_);
    tracePending_.clear();
    for (std::size_t i = 0; i < pend.size(); i++) {
        traceCurEvent_ = int(i);
        traceApplyEvent(pend[i]);
    }
}

void
DiffuseRuntime::traceApplyEvent(TraceEvent &ev)
{
    switch (ev.kind) {
      case TraceEventKind::Submit:
        window_.push_back(std::move(ev.task));
        while (int(window_.size()) >= windowSize_)
            processOne();
        break;
      case TraceEventKind::Retain:
        stores_.retainApp(ev.store);
        break;
      case TraceEventKind::Release:
        applyRelease(ev.store);
        break;
    }
}

void
DiffuseRuntime::traceBeginCapture()
{
    // Recorded hazard edges must be intra-epoch: capture starts on
    // the drained stream every epoch begins with (submit() retires an
    // epoch flushWindowAsync() left in flight before the next one
    // buffers anything; beginSubmitCapture asserts it).
    traceRec_ = std::make_unique<TraceEpoch>();
    traceProbes_.clear();
    low_.beginSubmitCapture();
    traceCaptureUnits_ = true;
}

void
DiffuseRuntime::traceSwitchToBypass()
{
    if (low_.capturing())
        low_.endSubmitCapture();
    traceCaptureUnits_ = false;
    traceRec_.reset();
    traceMode_ = TraceMode::Bypassed;
}

void
DiffuseRuntime::traceOnHostAccess(StoreId id)
{
    if (traceMode_ == TraceMode::Idle ||
        traceMode_ == TraceMode::Bypassed) {
        return;
    }
    if (traceEnc_.slotOf(id) < 0)
        return; // not part of this epoch: ordering is unaffected
    if (traceMode_ == TraceMode::Speculating) {
        // The accessor reads store state the moment this observer
        // returns, so the deferred prefix must reach the runtime NOW
        // — draining lazily would hand the host bytes that predate
        // tasks the analyzed path had already submitted. The access
        // makes this epoch untraceable either way: a replay could not
        // stop between its tasks for the host to see the store.
        traceMode_ = TraceMode::Bypassed;
        traceCands_.clear();
        traceDrainPending();
    } else {
        traceSwitchToBypass();
    }
}

void
DiffuseRuntime::traceRecordUnit(int prefix_len, FusionBlock block,
                                const ExecutionGroup &group)
{
    diffuse_assert(traceRec_ != nullptr, "unit capture without epoch");
    TraceUnit u;
    u.prefixLen = prefix_len;
    u.endEvent = traceCurEvent_;
    u.block = block;
    u.fused = group.fused;
    u.temps = std::uint32_t(group.temps.size());
    u.probes = std::move(traceProbes_);
    traceProbes_.clear();
    // The unit's submissions: the program's ops since the last unit.
    u.opBegin =
        traceRec_->units.empty() ? 0 : traceRec_->units.back().opEnd;
    u.opEnd = std::uint32_t(low_.programOps());
    traceRec_->units.push_back(std::move(u));
}

void
DiffuseRuntime::traceFinalizeCapture()
{
    traceCaptureUnits_ = false;
    if (traceRec_ == nullptr)
        return;
    if (traceEvent_ > 0 && traceEvent_ <= kTraceMaxEvents) {
        traceRec_->codes.assign(epochCodes_.begin(),
                                epochCodes_.begin() + traceEvent_);
        traceRec_->slotSigs = traceSigs_;
        // Publish the program that ran, with the encoder slot of each
        // of its slots (every store it touched appeared in this
        // epoch's event stream).
        std::span<const StoreId> stores = low_.programSlotStores();
        std::shared_ptr<rt::TraceProgram> prog = low_.takeProgram();
        std::size_t covered = traceRec_->units.empty()
                                  ? 0
                                  : traceRec_->units.back().opEnd;
        diffuse_assert(covered == prog->ops.size(),
                       "captured units cover %zu of %zu ops", covered,
                       prog->ops.size());
        for (StoreId id : stores) {
            int slot = traceEnc_.slotOf(id);
            diffuse_assert(slot >= 0, "captured store %llu has no slot",
                           (unsigned long long)id);
            prog->slots.push_back(std::uint32_t(slot));
        }
        traceRec_->program = std::move(prog);
        traceRec_->windowSizeAfter = windowSize_;
        // Counted per-epoch, not by FusionStats delta: the app may
        // reset the stats mid-epoch (benches do, after warmup).
        traceRec_->growths = traceEpochGrowths_;
        if (ctx_->traceCache().store(std::move(traceRec_)))
            fusionStats_.traceEpochsCaptured++;
    } else if (low_.capturing()) {
        low_.endSubmitCapture();
    }
    traceRec_.reset();
}

bool
DiffuseRuntime::traceTryReplay()
{
    const std::shared_ptr<TraceEpoch> *match = nullptr;
    for (const std::shared_ptr<TraceEpoch> &c : traceCands_) {
        if (int(c->codes.size()) == traceEvent_) {
            match = &c;
            break;
        }
    }
    if (match == nullptr)
        return false;
    if (!traceValidateProbes(**match)) {
        fusionStats_.traceValidationFailures++;
        return false;
    }
    // Injected trace faults model a corrupted/invalidated cached epoch:
    // degrade to the analyzed path (bitwise-identical by construction);
    // the caller recaptures, so steady state recovers on its own.
    if (low_.faults().enabled() &&
        low_.faults().shouldFault(rt::FaultKind::Trace)) {
        fusionStats_.traceValidationFailures++;
        return false;
    }
    traceReplay(*match);
    return true;
}

bool
DiffuseRuntime::traceValidateProbes(const TraceEpoch &epoch)
{
    // Reconstruct each probed store's application refcount at its
    // unit's decision point: the current (epoch-entry) value plus the
    // deferred retain/release deltas of every event up to the unit's
    // endEvent, clamped to the deferred events. Units are in endEvent
    // order, so one pass over the events with per-slot running deltas
    // serves every probe.
    std::vector<int> &delta = traceDelta_;
    delta.assign(traceEnc_.slots().size(), 0);
    const int last = int(tracePending_.size()) - 1;
    int next = 0; // first event not yet counted
    for (const TraceUnit &u : epoch.units) {
        if (u.probes.empty())
            continue;
        for (int upto = std::min(u.endEvent, last); next <= upto; next++) {
            const TraceEvent &ev = tracePending_[std::size_t(next)];
            if (ev.kind != TraceEventKind::Submit)
                delta[std::size_t(traceEnc_.slotOf(ev.store))] +=
                    ev.kind == TraceEventKind::Retain ? 1 : -1;
        }
        for (const TraceProbe &p : u.probes) {
            StoreId sid = traceEnc_.slots()[std::size_t(p.slot)];
            int refs =
                stores_.get(sid).appRefs + delta[std::size_t(p.slot)];
            if ((refs > 0) != p.appLive)
                return false;
        }
    }
    return true;
}

void
DiffuseRuntime::traceReplay(const std::shared_ptr<TraceEpoch> &epoch)
{
    // The recorded hazard edges are epoch-local: nothing older may
    // still be pending (see submit()).
    diffuse_assert(low_.streamPending() == 0,
                   "trace replay must start on a drained stream");
    // The loop-variant half of the rebinding (stores are the other):
    // the deferred tasks' scalars, in submission order.
    traceScalars_.clear();
    for (const TraceEvent &ev : tracePending_) {
        if (ev.kind == TraceEventKind::Submit)
            traceScalars_.insert(traceScalars_.end(),
                                 ev.task.scalars.begin(),
                                 ev.task.scalars.end());
    }
    low_.beginProgram(epoch->program, traceEnc_.slots(), traceScalars_);
    traceQueue_.clear();
    traceQueueHead_ = 0;
    std::size_t ui = 0;
    for (int i = 0; i <= traceEvent_; i++) {
        if (i < traceEvent_) {
            TraceEvent &ev = tracePending_[std::size_t(i)];
            switch (ev.kind) {
              case TraceEventKind::Submit:
                traceQueue_.push_back(std::move(ev.task));
                break;
              case TraceEventKind::Retain:
                stores_.retainApp(ev.store);
                break;
              case TraceEventKind::Release:
                applyRelease(ev.store);
                break;
            }
        }
        while (ui < epoch->units.size() &&
               epoch->units[ui].endEvent == i) {
            traceReplayUnit(epoch->units[ui++]);
        }
    }
    diffuse_assert(ui == epoch->units.size() &&
                       traceQueueHead_ == traceQueue_.size(),
                   "trace replay consumed %zu of %zu units",
                   ui, epoch->units.size());
    traceQueue_.clear();
    tracePending_.clear();
    if (windowSize_ != epoch->windowSizeAfter) {
        windowSize_ = epoch->windowSizeAfter;
        fusionStats_.windowSize = windowSize_;
    }
    fusionStats_.windowGrowths += epoch->growths;
    fusionStats_.traceGroupsReplayed += epoch->units.size();
    epoch->replays.fetch_add(1, std::memory_order_relaxed);
}

void
DiffuseRuntime::traceReplayUnit(const TraceUnit &unit)
{
    std::size_t end = traceQueueHead_ + std::size_t(unit.prefixLen);
    diffuse_assert(end <= traceQueue_.size(),
                   "replay unit needs %d tasks, window has %zu",
                   unit.prefixLen, traceQueue_.size() - traceQueueHead_);
    low_.submitProgramOps(unit.opBegin, unit.opEnd);
    fusionStats_.groupsLaunched++;
    if (unit.fused)
        fusionStats_.fusedGroups++;
    else
        fusionStats_.singleTasks++;
    fusionStats_.tempsEliminated += unit.temps;
    fusionStats_.blocks[std::size_t(unit.block)]++;
    for (; traceQueueHead_ < end; traceQueueHead_++)
        releaseTaskRefs(traceQueue_[traceQueueHead_]);
}

} // namespace diffuse
