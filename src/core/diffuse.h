/**
 * @file
 * DiffuseRuntime — the public facade of the middle layer.
 *
 * Libraries (cunumeric-mini, sparse-mini) create stores and submit
 * index tasks here. Tasks buffer into a window; when the window fills
 * (or is flushed by a scalar read-back or an explicit flush), the
 * fusion planner carves the window into fusible groups, the memoizer
 * replays previously compiled plans for isomorphic groups, and the
 * scheduler lowers each group into legion-mini's asynchronous task
 * stream, where it retires once its dependencies do. flushWindow()
 * drains the window *and* fences the stream (see
 * docs/architecture.md for the full pipeline).
 *
 * Above all of that sits trace-memoized window replay (core/trace.h,
 * DIFFUSE_TRACE): a flushed window whose canonical event stream
 * matches a cached epoch bypasses the planner, memoizer, lowering
 * and hazard analysis entirely, replaying the epoch's compiled
 * program with only store buffers and scalars rebound.
 *
 * Window sizing follows the paper (§7): the window grows whenever all
 * tasks in a full window fused into one group, so steady state reaches
 * the maximum useful fusion length automatically.
 */

#ifndef DIFFUSE_CORE_DIFFUSE_H
#define DIFFUSE_CORE_DIFFUSE_H

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "core/context.h"
#include "core/fusion.h"
#include "core/index_task.h"
#include "core/memo.h"
#include "core/scheduler.h"
#include "core/store.h"
#include "core/trace.h"
#include "kernel/compiler.h"
#include "kernel/registry.h"
#include "runtime/runtime.h"

namespace diffuse {

/** Configuration of a DiffuseRuntime instance. */
struct DiffuseOptions
{
    /** Master switch: off = forward every task unfused (baseline). */
    bool fusionEnabled = true;
    /** Kernel optimization pipeline; off = task-fusion-only ablation. */
    bool kernelOptimization = true;
    /** Temporary store elimination (paper §5.1). */
    bool tempElimination = true;
    /** Memoization of fused-group plans (paper §5.2). */
    bool memoization = true;
    /** Initial fusion window size (paper §7 starts small and grows). */
    int initialWindow = 5;
    /** Upper bound on automatic window growth. */
    int maxWindow = 512;
    rt::ExecutionMode mode = rt::ExecutionMode::Real;
    /**
     * Worker threads sharding the per-point loop of retired index
     * tasks (Real mode); <= 0 reads DIFFUSE_WORKERS (default 1).
     * Results are bit-identical for every worker count.
     */
    int workers = 0;
    /**
     * Distributed-memory shards (ranks). 1 executes against a single
     * shared allocation (the historical path); > 1 materializes
     * per-rank shard buffers and explicit, measured exchange (Copy)
     * tasks. <= 0 reads DIFFUSE_RANKS (default 1). Results are
     * bit-identical for every rank count.
     */
    int ranks = 0;
    /**
     * Trace-memoized window replay (core/trace.h): cache the planner
     * and runtime output of each flushed window and, on a repeat,
     * resubmit it with only store buffers and scalars rebound. 1 on,
     * 0 off; < 0 reads DIFFUSE_TRACE (default on). Results — and the
     * simulated-time accounting — are bit-identical either way;
     * DIFFUSE_TRACE=0 is the differential oracle.
     */
    int trace = -1;
    /** Ignored: kept so callers that still assign it compile.
     * flushWindow() always fences; see flushWindowAsync(). */
    int pipeline = 0;
    /** Ignored: kept so callers that still assign it compile. */
    int batch = 0;
    /**
     * Share the process-wide caches (compiled kernels, memoized
     * plans, trace epochs) and worker pool when this session is
     * created via SharedContext::createSession (core/context.h). 1
     * on, 0 off (a fully isolated session — today's single-client
     * behavior bit-for-bit); < 0 reads DIFFUSE_SHARED_CACHE (default
     * on). Ignored by direct DiffuseRuntime construction, which is
     * always isolated.
     */
    int sharedCache = -1;
    /** Ignored: kept so callers that still assign it compile. */
    int jit = 0;
};

/** Counters describing fusion behaviour. */
struct FusionStats
{
    std::uint64_t tasksSubmitted = 0;
    std::uint64_t groupsLaunched = 0; ///< index tasks reaching legion-mini
    std::uint64_t fusedGroups = 0;
    std::uint64_t singleTasks = 0;
    std::uint64_t tempsEliminated = 0;
    /** Flushes that had work: a flush with nothing buffered, traced
     * or in flight counts nothing. */
    std::uint64_t flushes = 0;
    std::uint64_t windowGrowths = 0;
    int windowSize = 0;
    /** Prefix-stopping constraint counts, indexed by FusionBlock. */
    std::array<std::uint64_t, 6> blocks{};

    // ---- Trace-memoized window replay (core/trace.h) ----------------

    /** Flushed windows replayed wholesale from the trace cache. */
    std::uint64_t traceEpochsReplayed = 0;
    /** Flushed windows captured into the trace cache. */
    std::uint64_t traceEpochsCaptured = 0;
    /** Schedulable units resubmitted by replays. */
    std::uint64_t traceGroupsReplayed = 0;
    /** Speculations abandoned on an event mismatch. */
    std::uint64_t traceAborts = 0;
    /** Replays rejected by state/liveness validation. */
    std::uint64_t traceValidationFailures = 0;
    /** Wall-clock submission seconds through the analyzed pipeline
     * (planner + memoizer + lowering + hazard analysis). */
    double plannedSubmitSeconds = 0.0;
    /** Wall-clock submission seconds through trace replay. */
    double replaySubmitSeconds = 0.0;

    void
    reset()
    {
        int keep = windowSize;
        *this = FusionStats();
        windowSize = keep;
    }
};

/**
 * The Diffuse middle layer. One instance per client session; the
 * process-shareable half (compiled kernels, memoized plans, trace
 * epochs, worker pool) lives in a SharedContext (core/context.h) —
 * private to this instance when constructed directly, shared across
 * sessions when created via SharedContext::createSession.
 */
class DiffuseRuntime
{
  public:
    /** Stand-alone runtime with a private context of its own (the
     * historical single-client behavior). */
    explicit DiffuseRuntime(const rt::MachineConfig &machine,
                            DiffuseOptions options = DiffuseOptions());

    /** Session over a shared context (SharedContext::createSession).
     * The context's machine model applies. */
    DiffuseRuntime(std::shared_ptr<SharedContext> shared,
                   DiffuseOptions options);

    /** Drains in-flight work (sessions may be torn down mid-stream);
     * unflushed window tasks are abandoned, shared caches unharmed. */
    ~DiffuseRuntime();

    DiffuseRuntime(const DiffuseRuntime &) = delete;
    DiffuseRuntime &operator=(const DiffuseRuntime &) = delete;

    // ---- Store management -------------------------------------------

    /**
     * Create a store with one application reference held by the
     * caller. Real-mode allocations materialize lazily on first use.
     */
    StoreId createStore(const Point &shape, DType dtype = DType::F64,
                        double init = 0.0);

    void retainApp(StoreId id);
    void releaseApp(StoreId id);

    const StoreMeta &storeMeta(StoreId id) const;

    // ---- Task submission --------------------------------------------

    /** Submit an index task into the fusion window. Throws
     * DiffuseError(SessionFailed) while the session is failed. */
    void submit(IndexTask task);

    /** Drain the window and fence the stream (paper's flush_window):
     * every task of the epoch has retired on return. Throws
     * DiffuseError with the root cause when a task of the epoch
     * failed — the session then stays failed until
     * resetAfterError(). */
    void flushWindow();

    /** Submit the window's epoch into the task stream and return
     * before it retires, so a caller can time submission apart from
     * execution. At most one epoch is ever in flight: its tasks
     * retire at the next synchronizing point that needs them (a host
     * read, a fence, overflow of the in-flight bound, the destructor)
     * and all of them at the next submit(), which drains the stream
     * before it buffers anything — so every epoch submits into a
     * drained stream. Retirement runs on the thread that reaches that
     * point. A failure in the epoch latches the session there, and
     * submit() then refuses with SessionFailed naming the root cause.
     * Throws here only if the session is already failed. */
    void flushWindowAsync();

    /** Flush, then read back a scalar store's value. */
    double readScalar(StoreId id);

    /** Flush, then copy out an f64 store's contents (tests). */
    std::vector<double> readStoreF64(StoreId id);

    /** Host-side initialization of an f64 store (excluded from sim).
     * Overwrites every element, so it also heals a poisoned store. */
    void writeStoreF64(StoreId id, const std::vector<double> &values);

    // ---- Failure domain (see docs/architecture.md) -------------------

    /** True while a task failure has this session in the failed
     * state. Sibling sessions of a shared context are unaffected. */
    bool failed() const { return low_.failed(); }

    /** Root cause of the failed state (None when healthy). */
    const Error &error() const { return low_.error(); }

    /**
     * Recover from the failed state: abandon buffered window tasks
     * (releasing their references), drain the stream, quarantine
     * poisoned stores, and restart the trace epoch. The session is
     * usable afterwards; quarantined stores read as freshly
     * (re)initialized.
     */
    void resetAfterError();

    // ---- Components --------------------------------------------------

    kir::Registry &registry() { return registry_; }
    rt::LowRuntime &low() { return low_; }
    const rt::MachineConfig &machine() const { return low_.machine(); }
    const DiffuseOptions &options() const { return options_; }
    /** The context backing this session — private unless created via
     * SharedContext::createSession. */
    const std::shared_ptr<SharedContext> &context() const
    {
        return ctx_;
    }

    /** Intern an image partition's pieces in the context's table
     * (core/context.h): equal content yields the same id. */
    ImageId
    registerImage(rt::ImageData data)
    {
        return ctx_->images().intern(std::move(data));
    }

    // ---- Statistics ---------------------------------------------------

    FusionStats &fusionStats() { return fusionStats_; }
    /** Process-wide when the context is shared: cache-population
     * counters cover every session of the context. */
    const Memoizer::Stats &memoStats() const
    {
        return ctx_->memo().stats();
    }
    kir::CompilerStats compilerStats() const
    {
        return ctx_->compiler().stats();
    }
    rt::RuntimeStats &runtimeStats() { return low_.stats(); }
    const StoreTable &stores() const { return stores_; }

  private:
    /** Emit exactly one group from the head of the window. */
    void processOne();

    /** Definition 4 conditions (2)+(3) for the prefix [0, prefix_len). */
    bool liveAfterIndex(StoreId id, std::size_t prefix_len) const;

    /** Condition (2) alone: an in-window successor reads/reduces. */
    bool windowReadsBeyond(StoreId id, std::size_t prefix_len) const;

    void scheduleGroup(const ExecutionGroup &group);

    /** Drop window references of an emitted task; free dead stores. */
    void releaseTaskRefs(const IndexTask &task);

    /** Apply a (possibly deferred) application release. */
    void applyRelease(StoreId id);

    ExecutionGroup buildSingleCached(const IndexTask &task);

    /** Shared flush body: `drain` fences the submitted epoch; without
     * it the epoch stays in flight until the next submit(). */
    void flushWindowImpl(bool drain);

    // ---- Trace-memoized window replay (core/trace.h) ----------------

    enum class TraceMode : std::uint8_t {
        Idle,        ///< epoch open, no event yet
        Speculating, ///< events buffered, matching cached epochs
        Capturing,   ///< processing normally while recording
        Bypassed,    ///< processing normally, recording nothing
    };

    /** Tracing routes events (not disabled, not bypassed)? */
    bool traceRouting() const;

    /** Tracing routes app retain/release events of `id`: the store
     * already has a slot in the open epoch. */
    bool traceOwns(StoreId id) const;

    /** Reset all per-epoch trace state; called after every flush. */
    void traceBeginEpoch();

    /** Route one event through the trace state machine. */
    void traceOnEvent(TraceEvent ev);

    /** Apply an event's semantics (window push + drain, retain,
     * release) at event index `traceCurEvent_`. */
    void traceApplyEvent(TraceEvent &ev);

    /** Apply every deferred event in order (speculation fallback —
     * the one drain all abort/poison paths share). */
    void traceDrainPending();

    /** Enter capture: the runtime keeps the epoch's program. */
    void traceBeginCapture();

    /** Stop recording this epoch (kept processing normally). */
    void traceSwitchToBypass();

    /** Capture hook: record one emitted unit (after scheduleGroup). */
    void traceRecordUnit(int prefix_len, FusionBlock block,
                         const ExecutionGroup &group);

    /** Store the captured epoch, if it stayed recordable. */
    void traceFinalizeCapture();

    /** At flush while speculating: replay if a candidate matched the
     * whole epoch and validation passes. */
    bool traceTryReplay();

    /** Revalidate the liveness bits a candidate's units consumed. */
    bool traceValidateProbes(const TraceEpoch &epoch);

    /** Replay `epoch`'s program, applying the deferred events in
     * between its units as the analyzed path would have. */
    void traceReplay(const std::shared_ptr<TraceEpoch> &epoch);

    /** Submit one unit's program ops, consuming its tasks from
     * traceQueue_. */
    void traceReplayUnit(const TraceUnit &unit);

    /** Host code accesses `id`, to read or to write it (LowRuntime
     * observer). Mid-speculation this drains the deferred prefix
     * eagerly, before the accessor reads store state. */
    void traceOnHostAccess(StoreId id);

    /** Shared (or private) caches + pool. Declared first: low_ and
     * planner_ borrow from it during construction. */
    std::shared_ptr<SharedContext> ctx_;
    DiffuseOptions options_;
    rt::LowRuntime low_;
    kir::Registry registry_;
    StoreTable stores_;
    FusionPlanner planner_;
    FusionStats fusionStats_;
    /**
     * Planning fingerprint appended (via cacheSalt()) to every cache
     * key and trace code: the per-session configuration outside the
     * event stream that shapes planner/runtime output (planner
     * options, execution mode, worker and rank counts, window
     * bounds). Sessions sharing a context only reuse artifacts
     * produced under an identical fingerprint.
     */
    std::uint64_t planSalt_ = 0;

    /** planSalt_ plus the registry's registration-history
     * fingerprint (lazily populated by libraries, so mixed at key
     * construction time, not at session construction): sessions
     * whose task libraries diverge never share cache entries even
     * when their numeric task-type ids coincide. */
    std::uint64_t cacheSalt() const;

    std::vector<IndexTask> window_;
    int windowSize_;
    /** flushWindowAsync() may have left its epoch in flight; the
     * next submit() retires it first. */
    bool epochInFlight_ = false;

    // ---- Trace state (see the private trace* methods) ----------------

    bool traceEnabled_ = false;
    TraceMode traceMode_ = TraceMode::Idle;
    EpochEncoder traceEnc_;
    /** Canonical codes of this epoch's events: the first traceEvent_
     * entries. Entries beyond stay allocated, so encoding a repeating
     * event stream reuses their capacity instead of allocating. */
    std::vector<std::string> epochCodes_;
    /** New stores of the event being encoded (reused scratch). */
    std::vector<StoreId> traceFresh_;
    /** Per-slot runtime state signatures (first appearance). */
    std::vector<std::uint64_t> traceSigs_;
    /** Deferred events while speculating. */
    std::vector<TraceEvent> tracePending_;
    /** Surviving candidate epochs while speculating (shared_ptr: a
     * concurrent session replacing a cache entry cannot pull a
     * candidate out from under this session's speculation). */
    std::vector<std::shared_ptr<TraceEpoch>> traceCands_;
    /** Epoch under capture. */
    std::unique_ptr<TraceEpoch> traceRec_;
    /** Probes collected by the wrapped liveness callback. */
    std::vector<TraceProbe> traceProbes_;
    /** Events received this epoch (live prefix of epochCodes_). */
    int traceEvent_ = 0;
    /** Index of the event currently being applied (capture). */
    int traceCurEvent_ = 0;
    /** Unit-recording hooks active (Capturing mode). */
    bool traceCaptureUnits_ = false;
    /** Window growths this epoch (immune to FusionStats::reset). */
    std::uint32_t traceEpochGrowths_ = 0;
    /** traceReplay's scratch, reused across epochs: the deferred
     * tasks (consumed from traceQueueHead_ on), the scalar block (the
     * deferred tasks' scalars, in order) and traceValidateProbes'
     * per-slot refcount deltas. */
    std::vector<IndexTask> traceQueue_;
    std::size_t traceQueueHead_ = 0;
    std::vector<double> traceScalars_;
    std::vector<int> traceDelta_;
    /** Submission-side wall seconds accumulated this epoch. */
    double traceEpochSeconds_ = 0.0;
};

} // namespace diffuse

#endif // DIFFUSE_CORE_DIFFUSE_H
