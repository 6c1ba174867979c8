/**
 * @file
 * legion-mini: the low-level task runtime Diffuse targets.
 *
 * This layer plays Legion's role (paper §3.2: "the dynamic semantics of
 * Diffuse's IR are defined by a translation to an underlying task-based
 * runtime system"). Unlike Diffuse's scale-free IR, this layer is
 * deliberately *scale-aware*: launched tasks carry one explicit piece
 * (rectangle) per launch-domain point — the "lower-level, unstructured
 * partitions" the paper describes — and coherence/communication are
 * computed by intersecting those pieces.
 *
 * Execution is asynchronous: submit() appends a task to the open
 * epoch's program in a dependency-tracked TaskStream (RAW/WAR/WAW
 * hazards derived from privileges and piece intersections) and returns
 * immediately. Tasks retire out of submission order when dependencies
 * allow; fence() forces retirement, and host-side accessors
 * (readScalarValue, dataF64/I32/I64) fence the affected store
 * implicitly. In Real mode retired point tasks run against host
 * allocations on the vectorized kernel executor (strip-mined tapes
 * from the kernel's cached ExecutablePlan); with multiple workers the
 * WorkerPool splits strip ranges — not raw points — with a
 * deterministic reduction merge, so numerics are bit-identical for
 * any worker count (DIFFUSE_SCALAR_EXEC=1 selects the scalar oracle
 * instead). With DIFFUSE_RANKS > 1 execution is sharded across
 * distributed-memory ranks: stores live in per-rank shard buffers and
 * explicit, hazard-tracked Copy tasks move exactly the rectangles a
 * task needs (see runtime/shard.h) — results stay bit-identical to
 * ranks=1. In Simulated mode only the cost model advances. Both modes account
 * identical simulated time: the critical path through the task graph
 * on per-processor timelines, not the serialized sum of task
 * latencies.
 */

#ifndef DIFFUSE_RUNTIME_RUNTIME_H
#define DIFFUSE_RUNTIME_RUNTIME_H

#include <cstddef>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/error.h"
#include "common/geometry.h"
#include "common/node_recycler.h"
#include "common/types.h"
#include "kernel/compiler.h"
#include "kernel/exec.h"
#include "runtime/buffer_pool.h"
#include "runtime/fault.h"
#include "runtime/machine.h"
#include "runtime/shard.h"
#include "runtime/task_stream.h"

namespace diffuse {
namespace rt {

/**
 * Counters accumulated by the runtime. Submission-side counters are a
 * function of each submitted op, added when it is submitted, analyzed
 * or replayed alike; execution-side ones (materialization, sharding,
 * the buffer pool, poisoning) accrue as ops retire.
 */
struct RuntimeStats
{
    /**
     * Simulated seconds: critical path of the overlap-aware schedule
     * (the makespan; independent tasks overlap on distinct
     * processors, and dependence analysis overlaps with execution).
     */
    double simTime = 0.0;
    /**
     * Aggregate busy seconds summed over all processor timelines —
     * the no-overlap upper bound. busyTime / simTime measures the
     * parallelism the asynchronous pipeline exposed.
     */
    double busyTime = 0.0;
    double computeTime = 0.0;    ///< kernel-execution component
    double commTime = 0.0;       ///< point-to-point communication
    double collectiveTime = 0.0; ///< reductions/broadcast trees
    double overheadTime = 0.0;   ///< runtime analysis + launch overhead
    std::uint64_t indexTasks = 0;
    std::uint64_t pointTasks = 0;
    /** Retired tasks whose point loop sharded across the pool. */
    std::uint64_t tasksSharded = 0;
    double bytesHbm = 0.0;
    double bytesIntraNode = 0.0;
    double bytesInterNode = 0.0;
    std::uint64_t collectives = 0;
    /** Stores that actually materialized an allocation (lazy). */
    std::uint64_t storesMaterialized = 0;
    double bytesMaterialized = 0.0;
    /**
     * Measured exchange volume (ranks > 1): bytes moved by charged
     * Copy tasks — rank-to-rank pulls and gathers into the canonical
     * copy. Exactly 0 when ranks == 1 (no exchanges exist).
     */
    double exchangeBytes = 0.0;
    /** Copy tasks submitted to the stream (including free pulls),
     * and the three kinds they split into: rank-to-rank pulls, gathers
     * into the canonical copy, and free pulls from it. */
    std::uint64_t copyTasks = 0;
    std::uint64_t rankCopies = 0;
    std::uint64_t gathers = 0;
    std::uint64_t hostPulls = 0;
    /** Host buffers (canonical and shard) served by the recycling
     * pool vs. freshly allocated (runtime/buffer_pool.h). */
    std::uint64_t bufferPoolHits = 0;
    std::uint64_t bufferPoolMisses = 0;
    /** Stores poisoned by failed or cancelled tasks. */
    std::uint64_t storesPoisoned = 0;
    /** Recycled buffers (canonical or shard) dropped under
     * DIFFUSE_MEM_BUDGET pressure. */
    std::uint64_t budgetEvictions = 0;

    /**
     * Zero every counter. Exact at a flush boundary, where every
     * submitted op has been counted and has retired. Between two, ops
     * the fusion window or a trace speculation still holds are counted
     * when they are submitted, after the reset, and ops in flight add
     * their execution-side counts when they retire.
     */
    void reset() { *this = RuntimeStats(); }
};

/** Pieces of an image partition, registered by libraries and
 * interned by content in the session context's ImageTable
 * (core/context.h). */
struct ImageData
{
    std::vector<Rect> pieces;
    std::vector<coord_t> volumes;
    /**
     * When true, kernels address elements of this view absolutely
     * from the allocation origin (CSR values/column indices, gathered
     * vectors); when false, addressing is relative to the piece
     * origin (row-pointer windows).
     */
    bool absolute = true;
};

/**
 * The low-level runtime: stores, coherence, asynchronous execution,
 * statistics.
 */
class LowRuntime : private TaskStream::Runner
{
  public:
    /**
     * Fan-out grain of sharded nests, in kir::ResolvedNest::work units
     * (about one element operation each). A nest whose work over all
     * points falls below it runs inline on the retiring thread and
     * submits no pool job; no chunk of a larger nest holds less work.
     * Handing a chunk to a parked pool helper costs more than the
     * kernels of a small nest. DIFFUSE_CHUNK > 0 bypasses the grain.
     *
     * Measured sweep: perfbench p50 in ms on a shared 4-vCPU host,
     * median of 10 s runs; (a) 2 runs on an earlier build of this
     * rule, (b) 3 runs on this one.
     *
     *   grain   solvers_small    serving_mix     apps_dram (a)
     *   none    a 24.5           a 2.71          578
     *   16K     a 20.3           a 2.57          635
     *   32K     b 12.1           b 2.11
     *   64K     a 19.5  b 11.7   a 2.17  b 2.37  560
     *   128K    b 14.7           b 2.07
     *   256K    a 15.0  b 15.0   a 2.31  b 2.13  598
     *   1M      a 20.6           a 2.58          602
     *
     * Every grain from 32K to 256K beats none (every nest fans out)
     * and 1M (the largest serving requests run inline) by more than
     * the run-to-run spread; inside that band the differences are
     * noise, and 64K sits in its middle. At 64K a solvers_small step
     * (4096-element vectors and operators on 4 ranks) submits no pool
     * job at all, while serving_mix's 136^2 Black-Scholes and SpMV
     * nests still fan out. apps_dram's nests are far above every
     * candidate, so its column is noise.
     */
    static constexpr double kFanOutGrain = 65536.0;

    /**
     * @param workers Point-task worker threads; <= 0 reads
     *        DIFFUSE_WORKERS from the environment (default 1).
     * @param ranks Distributed-memory shards; <= 0 reads
     *        DIFFUSE_RANKS from the environment (default 1 — the
     *        single-allocation path). Results are bit-identical for
     *        every rank count.
     * @param shared_pool Worker pool to execute on. Null constructs a
     *        private pool (the historical per-runtime behavior); a
     *        shared pool (core/context.h sessions) is reserve()d up
     *        to `workers` and multiplexed across runtimes, while this
     *        runtime's sharding decisions and per-slot scratch keep
     *        using its own `workers` — behavior is identical to a
     *        private pool of that size.
     */
    LowRuntime(const MachineConfig &machine, ExecutionMode mode,
               int workers = 0, int ranks = 0,
               std::shared_ptr<kir::WorkerPool> shared_pool = nullptr);

    /** The stream holds this runtime's address (its runner). */
    LowRuntime(const LowRuntime &) = delete;
    LowRuntime &operator=(const LowRuntime &) = delete;

    /**
     * Create a store. In Real mode the allocation is host memory
     * initialized to `init` (interpreted per dtype).
     */
    StoreId createStore(const Point &shape, DType dtype,
                        double init = 0.0);

    /**
     * Release a store's allocation. Deferred while tasks referencing
     * the store are still in flight; the allocation is freed when the
     * last such task retires.
     */
    void destroyStore(StoreId id);

    /**
     * Raw data access (Real mode; host initialization and readback).
     * Fences the store: every in-flight task touching it retires
     * first. Throws DiffuseError: InvalidArgument on a dtype
     * mismatch, StoreError when the store has no allocation
     * (Simulated mode), StorePoisoned after an upstream failure.
     */
    double *dataF64(StoreId id);
    std::int32_t *dataI32(StoreId id);
    std::int64_t *dataI64(StoreId id);

    /**
     * Mark a store's contents as freshly initialized everywhere
     * (host-side writes, excluded from timing like the paper's setup).
     */
    void markInitialized(StoreId id);

    /**
     * Submit one (possibly fused) index task to the asynchronous
     * stream, as the next op of the open epoch's program (begun on the
     * drained stream by the first submission after a drain, unless a
     * capture keeps the program open). Dependence analysis, the cost
     * model and coherence updates run immediately; real execution is
     * deferred until a fence or a host-side accessor retires the task.
     */
    void submit(LaunchedTask task);

    /** Retire every in-flight task. Never throws — failures are
     * recorded (check failed()/error()); safe from destructors. */
    void fence();

    /** Tasks submitted but not yet retired. */
    std::size_t streamPending() const { return stream_.pending(); }

    /** The worker pool executing sharded nests (possibly shared). */
    kir::WorkerPool &pool() { return *pool_; }

    /**
     * Host-side read of a scalar store's value (Real mode). Fences
     * the store implicitly. Throws DiffuseError when the store was
     * poisoned by an upstream failure.
     */
    double readScalarValue(StoreId id);

    // ---- Failure domain (see docs/architecture.md) -------------------

    /** True once any task of this runtime failed or was cancelled. */
    bool failed() const { return !sessionError_.ok(); }

    /** Root-cause error of the failed state (None when healthy). */
    const Error &error() const { return sessionError_; }

    /**
     * Clear the failed state: drain the stream (recording, not
     * throwing, any further cascade), forget event failures, and
     * quarantine poisoned stores — their allocations are dropped and
     * their coherence reset, so the next use reinitializes them from
     * `init` instead of exposing partial results.
     */
    void resetAfterError();

    /** True when `id`'s contents are undefined (upstream failure). */
    bool storePoisoned(StoreId id) const
    {
        return poisoned_.count(id) != 0;
    }

    /** Un-poison `id`: the caller is about to overwrite every element
     * from the host, which redefines the contents. */
    void clearPoison(StoreId id) { poisoned_.erase(id); }

    /** The deterministic fault injector (tests arm shots here). */
    FaultInjector &faults() { return faults_; }

    /** Session id used to attribute warnings/errors (0 = unset). */
    void setSessionId(std::uint64_t id) { sessionId_ = id; }

    const MachineConfig &machine() const { return machine_; }
    ExecutionMode mode() const { return mode_; }
    RuntimeStats &stats() { return stats_; }
    const RuntimeStats &stats() const { return stats_; }
    const StreamStats &streamStats() const { return stream_.stats(); }
    int workers() const { return workers_; }
    int ranks() const { return shards_.ranks(); }
    /** Bytes held by the buffer-recycling pool (bounded by
     * BufferPool::kMaxPooledBytes). */
    std::size_t pooledBytes() const { return buffers_.pooledBytes(); }

    /** Live store count, excluding zombies (leak checks in tests). */
    std::size_t liveStores() const { return stores_.size() - zombies_; }

    // ---- Trace capture & replay (see core/trace.h) -------------------

    /**
     * Begin a program for publication on the drained stream: every
     * submission (compute and Copy) until takeProgram() is one of its
     * ops, kept whole. A drain in between does not end it.
     */
    void beginSubmitCapture();

    /** Drop the capture: the program runs on as an uncaptured one. */
    void endSubmitCapture();

    bool capturing() const { return capturing_; }

    /**
     * End the capture and hand over its program for publication;
     * slot s of its ops names store programSlotStores()[s]. The stream
     * may still retire its ops (after flushWindowAsync()), reading it
     * and writing nothing to it.
     */
    std::shared_ptr<TraceProgram> takeProgram();

    /** Ops of the program in flight (a capture's unit boundaries). */
    std::size_t programOps() const { return program_->ops.size(); }

    /** Store of each slot of the program in flight. */
    std::span<const StoreId> programSlotStores() const
    {
        return stream_.slotStores();
    }

    /**
     * Start replaying a published program on the drained stream. Its
     * slot s is the store of encoder slot `program->slots[s]`, i.e.
     * `encoder_slots[program->slots[s]]`: each slot is resolved once,
     * to its record (placement state and history included), and every
     * op reads through that table. `scalars` is the replay's scalar block
     * (TraceProgram::scalarCount values). The program stays referenced
     * until the next one begins.
     */
    void beginProgram(std::shared_ptr<const TraceProgram> program,
                      std::span<const StoreId> encoder_slots,
                      std::span<const double> scalars);

    /**
     * Submit program ops [first, last), the next ones in order: count
     * each op and re-apply its placement and coherence effects, then
     * hand it to the stream, which places it on the schedule and
     * retires through the in-flight window exactly as the analyzed
     * path would have.
     */
    void submitProgramOps(std::size_t first, std::size_t last);

    /**
     * Digest of everything submission-side planning reads from a
     * store's mutable runtime state: the coherence record (last-write
     * layout and pieces, replicated validity) and the shard placement
     * maps. Two stores with equal shapes/dtypes and equal signatures
     * make `submit` plan identical exchanges, charge identical
     * communication, and record identical timing — the precondition
     * for replaying a recorded submission against them.
     */
    std::uint64_t storeStateSignature(StoreId id) const;

    /**
     * Observer invoked whenever host code accesses a store
     * (dataF64/I32/I64, markInitialized, readScalarValue), before the
     * accessor fences it. The trace layer uses it to submit the
     * epoch's deferred tasks before the host sees the store, and to
     * stop recording epochs whose stores the host touches behind the
     * submission stream's back.
     */
    void
    setHostAccessObserver(std::function<void(StoreId)> fn)
    {
        hostAccessObserver_ = std::move(fn);
    }

  private:
    /**
     * Everything the runtime keeps per store. A record lives in a node
     * of stores_, so its address — and its placement state's and
     * history's — is stable while any op names the store; a destroyed
     * store's record is recycled whole.
     */
    struct StoreRec
    {
        StoreId id = INVALID_STORE;
        /** Placement state (used when ranks > 1). */
        ShardManager::StoreState shard;
        /** Access history, read by the stream through its slot. */
        StoreHistory history;
        /** Slot in the open epoch's program, valid while slotProgram
         * is that program's number. */
        std::uint32_t slot = 0;
        std::uint64_t slotProgram = 0;
        Rect shape;
        DType dtype = DType::F64;
        double init = 0.0;
        /** Lazily materialized on first use (Real mode). */
        RawBuffer data;
        /** Coherence: identity of the partition that last wrote. */
        std::uint64_t lastWriteLayout = 0;
        std::vector<Rect> lastWritePieces;
        /** Valid everywhere (post-init, post-reduction/broadcast). */
        bool replicatedValid = true;
        /** In-flight tasks referencing this store. */
        int pendingUses = 0;
        /** Destroyed by the application while still in use. */
        bool zombie = false;
    };
    using StoreMap = std::unordered_map<StoreId, StoreRec>;

    StoreRec &rec(StoreId id);
    const StoreRec &rec(StoreId id) const;

    /** The records of a program op's arguments, in argument order,
     * read from the slot table into `out`. */
    std::span<StoreRec *const> resolveArgs(const LaunchedTask &task,
                                           std::vector<StoreRec *> &out);

    /**
     * Begin the open epoch's program on the drained stream, reusing
     * the storage of an uncaptured predecessor.
     */
    void beginOpenProgram();

    /** `r`'s slot in the open program, bound on its first touch. */
    std::uint32_t slotOf(StoreRec &r);

    /**
     * Append `task` (store ids already slots) to the open program,
     * count it and submit it: the stream finds its hazard edges and
     * runs it through the window.
     */
    void appendOp(LaunchedTask task, TaskTiming timing);

    /**
     * Add an op's submission-side counters: everything but the
     * schedule clocks (folded from the stream) and the execution-side
     * counters. A function of the op, so an analyzed and a replayed
     * submission of it count the same.
     */
    void count(const ProgramOp &op);

    /** Destroy the store of record `it`, whose ops have all retired:
     * its buffers return to the pool and the record is recycled. */
    void destroyRecord(StoreMap::iterator it);

    /** Release a retired op's task storage (an uncaptured program). */
    static void releaseOp(ProgramOp &op);

    /** The arguments' placement states (ranks > 1), in shardArgs_. */
    std::span<ShardManager::StoreState *const>
    shardStates(std::span<StoreRec *const> recs);

    /**
     * Materialize the allocation of a store (Real mode). With
     * `skip_init` the memory is left uninitialized — legal only when
     * the caller proved the first access overwrites every element.
     */
    void ensureAllocated(StoreRec &store, bool skip_init = false);

    /** Does `arg` write every element of the store (disjoint pieces
     * covering the full shape, or a replicated write)? */
    static bool writeCoversStore(const LowArg &arg,
                                 const StoreRec &store);

    /** Point-to-point communication seconds for point `p` of `arg`,
     * adding the bytes it moves to `timing` (the analytic model;
     * ranks == 1 only — sharded execution charges the measured Copy
     * tasks instead). */
    double commSecondsFor(const LowArg &arg, const StoreRec &store,
                          int p, int num_points, TaskTiming &timing);

    /** Submit one planned exchange as a Copy op (hazard-tracked). */
    void submitCopy(const CopyDesc &c);

    /** Coherence updates for written/reduced stores (program order). */
    void applyCoherence(const LaunchedTask &task,
                        std::span<StoreRec *const> recs);

    /** Fold the stream's schedule clocks into simTime/busyTime. */
    void foldScheduleClocks();

    /** Build executor bindings for point `p`; `recs[i]` is argument
     * i's record. */
    void buildBindings(const LaunchedTask &task,
                       std::span<StoreRec *const> recs, int p,
                       std::vector<kir::BufferBinding> &out,
                       bool with_pointers);

    /**
     * May the point tasks run concurrently? False when a point's
     * writes overlap another point's accesses (then the sequential
     * point order is semantically relevant and is preserved).
     */
    bool pointsIndependent(const LaunchedTask &task,
                           std::span<StoreRec *const> recs) const;

    /** TaskStream::Runner: execute (or cancel) one retired op,
     * poison what a failure leaves undefined, and release its per-task
     * state. */
    Error retire(EventId id, std::size_t op,
                 const Error *cancel) override;

    /** Run one retired task against host memory (Real mode), with
     * `scalars` bound in place of the task's own. */
    void executeRetired(const LaunchedTask &task,
                        std::span<StoreRec *const> recs,
                        std::span<const double> scalars);

    /**
     * Strip-sharded execution of a parallel-safe retired task on the
     * vector plan: workers claim strip (or Gemv/Csr row) ranges
     * flattened across points, nest by nest. `prepare(p, bindings)`
     * fills point `p`'s external bindings (including reduction-slot
     * diversion).
     */
    template <typename Prepare>
    void executeSharded(const LaunchedTask &task,
                        std::span<const double> scalars,
                        Prepare &&prepare);

    /** A reduction argument's per-point partial accumulators on the
     * sharded path (merged in point order after the loop). */
    struct RedSlot
    {
        std::size_t arg = 0;
        coord_t vol = 0;
        std::vector<double> partials;
    };

    /** Drop per-task runtime state once a task has retired. */
    void finishRetired(std::span<StoreRec *const> recs);

    /** Return a destroyed store's allocation to the recycling pool.
     * Always leaves `store.data` empty and updates the live-byte
     * accounting (buffers the pool declines are freed eagerly). */
    void recycleAllocation(StoreRec &store);

    /** Poison the failed task's outputs, record the session's
     * root-cause error. */
    void onTaskFailed(const LaunchedTask &task,
                      std::span<StoreRec *const> recs, const Error &e,
                      bool cancelled);

    /** Throw StorePoisoned if `id`'s contents are undefined. */
    void throwIfPoisoned(StoreId id) const;

    /** The typed accessors' one body: notify the observer, fence the
     * store, check poison, dtype and allocation, gather the shards
     * into the canonical allocation and make it the sole owner. */
    std::byte *hostData(StoreId id, DType dtype, const char *type_name);

    MachineConfig machine_;
    ExecutionMode mode_;
    RuntimeStats stats_;
    StoreMap stores_;
    /** Records of destroyed stores, reused by createStore. */
    NodeRecycler<StoreMap> storeNodes_{1024};
    /** Bytes currently held by canonical store allocations. Shard
     * buffers come from the same pool (buffers_) but are not counted
     * here, so DIFFUSE_MEM_BUDGET only refuses canonical
     * allocations. */
    std::size_t liveBytes_ = 0;
    /** DIFFUSE_MEM_BUDGET in bytes; 0 = unlimited. Fresh canonical
     * allocations that would exceed it (with the pooled bytes) first
     * evict the whole recycling pool, shard buffers included, then
     * fail with a structured MemBudgetExceeded instead of
     * OOM-aborting. */
    std::size_t memBudgetBytes_ = 0;
    /** Destroyed-but-in-flight stores still held in stores_. */
    std::size_t zombies_ = 0;
    StoreId nextStore_ = 1;
    /** This runtime's worker budget: sharding decisions and per-slot
     * scratch sizing use it, never the (possibly larger, shared)
     * pool's thread target. */
    int workers_ = 1;
    /** DIFFUSE_CHUNK: fixed chunk size for sharded nests, which also
     * bypasses the fan-out grain (0 = auto: total/(workers*8), but no
     * chunk below the grain). It is the pool's claim size: small
     * values make every worker claim many chunks in the determinism
     * tests; results are chunk-invariant by design. */
    int chunkOverride_ = 0;
    /** DIFFUSE_SCALAR_EXEC, read at construction: run every kernel on
     * the scalar oracle. */
    bool scalarOracle_ = false;
    std::shared_ptr<kir::WorkerPool> pool_;
    /** Per-worker executor state (executors are not thread-safe). */
    std::vector<kir::Executor> executors_;
    std::vector<std::vector<kir::BufferBinding>> workerBindings_;
    /** Per-point plan resolutions for the strip-sharded path. */
    std::vector<kir::PointContext> pointCtxs_;
    /** Sharded-path scratch, reused across tasks: per-point work-item
     * offsets of a nest, and reduction slots (the first ones a task
     * needs are live; the rest keep their capacity). */
    std::vector<coord_t> shardOffsets_;
    std::vector<RedSlot> redSlots_;
    /** Identifies strip dispatches so workers splat loop invariants
     * into their register files exactly once per dispatch. */
    std::uint64_t stripEpoch_ = 0;
    /** Recycled canonical and shard buffers (one cap, one eviction
     * path); declared before shards_, which returns buffers to it. */
    BufferPool buffers_;
    /** Per-rank shard buffers and exchange planning (ranks > 1). */
    ShardManager shards_;
    TaskStream stream_;
    /** Stream clocks at the previous submit (stats are deltas so
     * RuntimeStats::reset() keeps working). */
    double lastCriticalPath_ = 0.0;
    double lastBusyTime_ = 0.0;

    /** Resolved argument records: of the task being submitted, and
     * of the task retiring (retirement may run inside a submission). */
    std::vector<StoreRec *> submitRecs_;
    std::vector<StoreRec *> retireRecs_;
    /** shardStates' output. */
    std::vector<ShardManager::StoreState *> shardArgs_;

    /** The program the stream runs (the open one, or a replayed one;
     * held until the next begins), its slot table (each slot's record)
     * and its scalar block. */
    std::shared_ptr<const TraceProgram> program_;
    std::vector<StoreRec *> slotRecs_;
    std::vector<double> programScalars_;
    /** The open epoch's program, which analyzed submissions append to
     * (null once a capture took it), and its number (StoreRec::slot). */
    std::shared_ptr<TraceProgram> open_;
    std::uint64_t openNumber_ = 0;
    /** A capture keeps the open program; else it is discarded at its
     * end, its retired ops released on the way. */
    bool capturing_ = false;

    std::function<void(StoreId)> hostAccessObserver_;

    /** Failure-domain state. */
    FaultInjector faults_;
    /** Stores whose contents are undefined, with the root cause.
     * Bounded: cleared by resetAfterError() / store destruction. */
    std::unordered_map<StoreId, Error> poisoned_;
    /** First root-cause error since the last resetAfterError(). */
    Error sessionError_;
    std::uint64_t sessionId_ = 0;
};

} // namespace rt
} // namespace diffuse

#endif // DIFFUSE_RUNTIME_RUNTIME_H
