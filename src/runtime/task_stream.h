/**
 * @file
 * Asynchronous task stream with store-level dependence tracking.
 *
 * legion-mini's analogue of Legion's dynamic dependence analysis and
 * deferred-execution pipeline: launched tasks are *submitted* rather
 * than executed, the stream derives RAW/WAR/WAW hazards from the
 * privileges and piece rectangles of each task's store arguments, and
 * tasks retire (execute, in Real mode) only when their dependencies
 * have retired — possibly out of submission order when independent
 * work allows it.
 *
 * The stream also owns the overlap-aware simulated-time schedule: each
 * point task is placed on a per-processor timeline no earlier than its
 * dependencies' finish times and the (serialized) dependence-analysis
 * clock, so simulated time is the critical path through the task graph
 * rather than the sum of every task's latency.
 *
 * A trace program (a captured epoch compiled for replay, see
 * TraceProgram) retires through the same in-flight window: its ops
 * trust their recorded hazard edges, so the stream keeps no per-task
 * map for them — an op's retirement is known by its index.
 */

#ifndef DIFFUSE_RUNTIME_TASK_STREAM_H
#define DIFFUSE_RUNTIME_TASK_STREAM_H

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/error.h"
#include "common/geometry.h"
#include "common/node_recycler.h"
#include "common/types.h"
// PartitionDesc is a pure value type over common/geometry.h; carrying
// it on lowered arguments lets the shard manager plan exchanges
// structurally (constant-time owner lookup) instead of scanning
// pieces. This is the one core -> runtime type dependency.
#include "core/partition.h"
#include "runtime/machine.h"

namespace diffuse {
namespace kir {
struct CompiledKernel;
} // namespace kir

namespace rt {

/** Completion event of a submitted task. */
using EventId = std::uint64_t;

/** Reserved event: already complete, depends on nothing. */
constexpr EventId NO_EVENT = 0;

/**
 * One store argument of a launched task, lowered to explicit pieces.
 */
struct LowArg
{
    StoreId store = INVALID_STORE;
    Privilege priv = Privilege::Read;
    ReductionOp redop = ReductionOp::Sum;
    /** Replicated access: every point sees the whole store. */
    bool replicated = false;
    /**
     * Elements are addressed absolutely from the allocation origin
     * (CSR values/column indices and gathered vectors).
     */
    bool absolute = false;
    /** Identity of (partition, launch domain); 0 is reserved. */
    std::uint64_t layoutKey = 0;
    /**
     * The structured partition this argument was lowered from (None
     * for replicated access and runtime-internal tasks). Lets the
     * shard manager find piece owners in constant time.
     */
    PartitionDesc part;
    /** Sub-rectangle accessed by each launch-domain point. */
    std::vector<Rect> pieces;
    /** Optional per-point irregular element counts (CSR nnz). */
    std::vector<coord_t> irregular;
};

/** What a submitted task does when it retires. */
enum class TaskKind : std::uint8_t {
    Compute, ///< run the compiled kernel over its pieces
    Copy,    ///< move one rectangle between shards (data exchange)
};

/**
 * Description of one exchange: move `rect` of `store` from the shard
 * of `srcRank` into the shard of `dstRank`. Rank -1 denotes the
 * canonical (host-replicated) copy — pulls from it model data that is
 * already resident everywhere (initialization, post-collective) and
 * cost nothing; pushes to it are gathers and are charged.
 */
struct CopyDesc
{
    StoreId store = INVALID_STORE;
    Rect rect;
    int srcRank = -1;
    int dstRank = -1;
    double bytes = 0.0;
};

/** A fully lowered index task ready for submission. */
struct LaunchedTask
{
    TaskKind kind = TaskKind::Compute;
    std::shared_ptr<const kir::CompiledKernel> kernel;
    int numPoints = 1;
    std::vector<LowArg> args;
    std::vector<double> scalars;
    std::string name;
    /** Launch domain the pieces were enumerated from (Compute). */
    Rect launchDomain;
    /** Exchange descriptor (Copy tasks only). */
    CopyDesc copy;
    /**
     * Processor timeline this task occupies in the simulated
     * schedule; <0 derives the processor from the point index. Copy
     * tasks pin themselves to the destination rank's processor.
     */
    int procHint = -1;
    /**
     * Point tasks may run concurrently: no replicated write, and no
     * piece of any point overlaps another point's written pieces.
     * Computed by the runtime at submission.
     */
    bool parallelSafe = false;
    /**
     * Per-argument binding decision under sharded execution (ranks >
     * 1): 1 = bind the canonical allocation, 0 = bind the rank's
     * shard. Filled by ShardManager::planTask; empty when sharding is
     * inactive.
     */
    std::vector<std::uint8_t> argCanonical;
};

/** Cost-model inputs of one submitted task (computed at submission). */
struct TaskTiming
{
    /** Per-point seconds: communication + launch + compute. */
    std::vector<double> pointSeconds;
    /** Reduction collective appended after the slowest point. */
    double collectiveSeconds = 0.0;
    /** Serialized dynamic dependence-analysis seconds. */
    double analysisSeconds = 0.0;
};

/**
 * The result of one hazard analysis, exported so trace capture can
 * record it and a trace program can replay it (ProgramOp) without the
 * history scan.
 */
struct SubmitTrace
{
    /** Pending tasks the submission depends on (deduplicated). */
    std::vector<EventId> deps;
    /** Dependence-edge counts by hazard kind (stats parity). */
    std::uint32_t rawDeps = 0;
    std::uint32_t warDeps = 0;
    std::uint32_t wawDeps = 0;
};

/** Counters and clocks maintained by the stream. */
struct StreamStats
{
    std::uint64_t submitted = 0;
    std::uint64_t retired = 0;
    /** Tasks retired while an earlier submission was still pending. */
    std::uint64_t retiredOutOfOrder = 0;
    /** Fences that retired a task (an empty fence counts nothing). */
    std::uint64_t fences = 0;
    /** Dependence edges recorded, by hazard kind. */
    std::uint64_t rawDeps = 0;
    std::uint64_t warDeps = 0;
    std::uint64_t wawDeps = 0;
    /** Makespan of the overlap-aware schedule (simulated seconds). */
    double criticalPathTime = 0.0;
    /** Aggregate busy seconds across all processor timelines. */
    double busyTime = 0.0;
    /** Collective seconds included in busyTime (they occupy the
     * interconnect, not a single processor timeline). */
    double collectiveTime = 0.0;
    std::size_t maxPendingSeen = 0;
    /** Tasks whose execution raised a structured error. */
    std::uint64_t tasksFailed = 0;
    /** Tasks cancelled because a hazard dependency failed. */
    std::uint64_t tasksCancelled = 0;
};

/**
 * Submission-side stat increments attributed to one recorded stream
 * submission: everything `LowRuntime::submit`/`submitCopy` adds to
 * RuntimeStats and ShardStats *except* the schedule clocks
 * (simTime/busyTime), which replay recomputes exactly through the
 * stream, and the execution-side counters (storesMaterialized,
 * tasksSharded), which accrue at retirement either way.
 */
struct SubmitStatsDelta
{
    double bytesHbm = 0.0;
    double commTime = 0.0;
    double computeTime = 0.0;
    double overheadTime = 0.0;
    double collectiveTime = 0.0;
    double bytesIntraNode = 0.0;
    double bytesInterNode = 0.0;
    double exchangeBytes = 0.0;
    std::uint64_t collectives = 0;
    std::uint64_t copyTasks = 0;
    std::uint64_t indexTasks = 0;
    std::uint64_t pointTasks = 0;
    std::uint64_t shardCopies = 0;
    std::uint64_t shardGathers = 0;
    std::uint64_t shardHostPulls = 0;
};

/**
 * One op of a trace program: a stream submission captured on the
 * analyzed path — the fully lowered task (pieces expanded, shard
 * bindings and parallel-safety decided), its cost model, its hazard
 * edges as indices into the program's op order, and its stat
 * increments. Store ids inside `task` (and `task.copy`) are epoch slot
 * indices; its scalars are rebound at replay.
 */
struct ProgramOp
{
    LaunchedTask task;
    TaskTiming timing;
    /** Hazard edges: positions in the program's op order. */
    std::vector<std::uint32_t> deps;
    std::uint32_t rawDeps = 0;
    std::uint32_t warDeps = 0;
    std::uint32_t wawDeps = 0;
    SubmitStatsDelta stats;
    /** A compute op's scalars: [scalarBegin, scalarBegin + scalarCount)
     * of the replay's scalar block, which holds every submitted task's
     * scalars in submission order (its unit's tasks, in task order). */
    std::uint32_t scalarBegin = 0;
    std::uint32_t scalarCount = 0;
};

/**
 * A captured epoch compiled for replay: its submissions, flattened in
 * submission order. Built once when the epoch is captured and
 * immutable once published, so every session replaying the epoch
 * reads the same object (LowRuntime::beginProgram).
 */
struct TraceProgram
{
    std::vector<ProgramOp> ops;
    /** The slots some op's arguments reference, ascending (the rest
     * are eliminated temporaries and stores only retained or
     * released): the only ones a replay resolves. */
    std::vector<std::uint32_t> slots;
    /** Length of the replay's scalar block. */
    std::size_t scalarCount = 0;
};

/**
 * Dependency-tracked stream of launched tasks.
 *
 * Ownership of real execution stays with the runtime: the stream hands
 * each task to its Runner exactly once, in an order that respects
 * every recorded hazard, when the task retires.
 */
class TaskStream
{
  public:
    /** Program op index of an analyzed task (Runner::retire). */
    static constexpr std::size_t kAnalyzed = ~std::size_t(0);

    /** The runtime's side of retirement. */
    class Runner
    {
      public:
        /**
         * Retire `task`, whose event is `id` and whose program op
         * index is `op` (kAnalyzed for an analyzed task): run it — or,
         * when `cancel` is set because a dependency failed, skip it
         * and poison its outputs with that error — then release its
         * per-task state either way. Returns the error the task ended
         * with (a cancelled task's is `*cancel`; None on success).
         */
        virtual Error retire(EventId id, const LaunchedTask &task,
                             std::size_t op, const Error *cancel) = 0;

        /** The program in flight retired its last op. */
        virtual void programRetired() {}

      protected:
        /** The stream never owns its runner. */
        ~Runner() = default;
    };

    TaskStream(const MachineConfig &machine,
               std::size_t max_pending = 256);

    /** Who retires tasks; none retires nothing but the bookkeeping. */
    void setRunner(Runner *runner) { runner_ = runner; }

    /**
     * Submit a task: record hazards against in-flight tasks, extend
     * the simulated schedule, and queue the task for deferred
     * execution. Returns the task's completion event. No program may
     * be in flight.
     *
     * @param trace_out When non-null, receives the derived dependence
     *        edges so a trace can replay them without re-analysis.
     */
    EventId submit(LaunchedTask task, const TaskTiming &timing,
                   SubmitTrace *trace_out = nullptr);

    // ---- Trace programs ----------------------------------------------
    //
    // A program replays on a drained stream: its recorded edges are
    // epoch-local. Op k's event is the program's base + k, so events
    // (and error origins) are those of the analyzed path. Its ops are
    // submitted in order and retire through the same window as
    // analyzed tasks — at overflow, fence(), wait() and waitStore() —
    // so which ops have retired at each submission, and hence the
    // history floors and the simulated schedule, match the analyzed
    // path exactly.

    /**
     * Start `program` (which must outlive its last op's retirement)
     * on the drained stream; `slot_stores[s]` is slot s's store. Each
     * slot the program uses is resolved to its history floors once.
     */
    void beginProgram(const TraceProgram &program,
                      std::span<const StoreId> slot_stores);

    /**
     * Submit the program's next op: count its recorded hazards and
     * place it no earlier than its slots' floors and its recorded
     * dependencies still pending, then retire overflow.
     */
    void submitProgramOp();

    /** A program is in flight: begun, and not every op retired. */
    bool programInFlight() const { return program_ != nullptr; }

    /** Retire `id` and (transitively) everything it depends on. */
    void wait(EventId id);

    /** Retire every pending task touching store `id`. */
    void waitStore(StoreId id);

    /** Retire all pending tasks, in submission order. */
    void fence();

    /** True when `id` has retired (or was never issued). */
    bool complete(EventId id) const;

    /** Forget recorded failures (session resetAfterError()). */
    void clearFailures() { failed_.clear(); }

    /** Number of submitted-but-unretired tasks (or program ops). */
    std::size_t pending() const
    {
        return pending_.size() + (programSubmitted_ - programRetired_);
    }

    /** Drop dependence history of a destroyed store. */
    void forgetStore(StoreId id);

    const StreamStats &stats() const { return stats_; }

  private:
    /** Finish times of retired accesses to one store: later
     * conflicting accesses are placed after them. */
    struct Floors
    {
        double write = 0.0;
        double read = 0.0;
    };

    /**
     * One access to a store, remembered for hazard detection. `pieces`
     * points into the argument of the pending task that made the
     * access: a record is only read while that task is pending (every
     * scan compacts retired records out first), and a pending task's
     * arguments neither move nor change.
     */
    struct AccessRec
    {
        EventId id = NO_EVENT;
        double finish = 0.0;
        bool replicated = false;
        const std::vector<Rect> *pieces = nullptr;
    };

    /**
     * Remembered accesses to one store. Writes are kept as a list —
     * a partial write supersedes only what it overlaps, so earlier
     * writes of other regions stay visible to hazard detection.
     * Retired records are pruned (they can never be dependencies);
     * their finish times fold into per-store floors so the simulated
     * schedule still orders later conflicting accesses after them.
     */
    struct StoreHistory
    {
        std::vector<AccessRec> writes;
        std::vector<AccessRec> reads;
        Floors floors;
    };

    /** Drop retired records, folding them into the floors. */
    void compactHistory(StoreHistory &h);

    /**
     * Place a task on the simulated schedule no earlier than
     * `dep_finish` and the serialized analysis clock: the arithmetic
     * both analyzed tasks and program ops go through. Returns its
     * finish time.
     */
    double place(const TaskTiming &timing, int num_points, int proc_hint,
                 double dep_finish);

    struct PendingTask
    {
        LaunchedTask task;
        /** Unretired tasks this task must run after. */
        std::vector<EventId> deps;
        double finish = 0.0;
    };
    using PendingMap = std::map<EventId, PendingTask>;
    using HistoryMap = std::unordered_map<StoreId, StoreHistory>;

    /** The history of `id`, created (from a spare node) on first use. */
    StoreHistory &historyFor(StoreId id);

    /** Any-pair piece overlap between two accesses of one store. */
    static bool overlaps(bool a_replicated,
                         const std::vector<Rect> &a_pieces,
                         const AccessRec &b);

    /** Execute and retire exactly one pending task. */
    void retireOne(EventId id);

    /**
     * The retirement both paths share: count it, cancel the task if
     * `dep_err` names a failed dependency (else run it), and record
     * how it ended.
     */
    void retireTask(EventId id, const LaunchedTask &task, std::size_t op,
                    const Error *dep_err);

    /** Has program op `k` retired? */
    bool opRetired(std::size_t k) const
    {
        return opRetiredAt_[k] != kOpPending;
    }

    /** Retire program op `k` and, first, its pending dependencies. */
    void retireOpWithDeps(std::size_t k);

    /** Retire program op `k`, whose dependencies have retired. */
    void retireOp(std::size_t k);

    /**
     * The shared submission tail: place the task on the simulated
     * schedule (no earlier than `dep_finish`), enqueue it pending with
     * the dependencies gathered in `deps_`, append its accesses to the
     * history, and retire overflow.
     */
    EventId finishSubmit(LaunchedTask task, const TaskTiming &timing,
                         double dep_finish);

    MachineConfig machine_;
    std::size_t maxPending_;
    Runner *runner_ = nullptr;

    /** Ordered by EventId == submission order (a topological order). */
    PendingMap pending_;
    HistoryMap history_;
    /**
     * Recycled map nodes of retired tasks and destroyed stores'
     * histories, so a steady stream of submissions reaches the
     * allocator rarely.
     */
    static constexpr std::size_t kMaxSpare = 1024;
    NodeRecycler<PendingMap> pendingNodes_{kMaxSpare};
    NodeRecycler<HistoryMap> historyNodes_{kMaxSpare};
    /** Dependencies of the submission in progress (submit gathers,
     * finishSubmit consumes). */
    std::vector<EventId> deps_;
    /** waitStore's collected users, reused across calls. */
    std::vector<EventId> users_;

    /**
     * The program in flight (null when none) and its suffix. Program
     * ops append no access records: nothing scans for hazards while a
     * program is in flight, so an op only leaves its finish time, which
     * folds into its slots' floors when it retires — the value the
     * analyzed path's lazy compaction reads at the next access.
     */
    const TraceProgram *program_ = nullptr;
    EventId programBase_ = NO_EVENT;
    std::size_t programSubmitted_ = 0;
    std::size_t programRetired_ = 0;
    /** Oldest op not yet retired. */
    std::size_t programHead_ = 0;
    /** Slot table: each used slot's store and history floors. */
    std::vector<StoreId> slotStores_;
    std::vector<Floors *> slotFloors_;
    /** Per op: its finish time, and how many ops had been submitted
     * when it retired (kOpPending until then). A failed dependency
     * cancels an op only if it was still pending at the op's
     * submission, as on the analyzed path. */
    static constexpr std::uint32_t kOpPending = ~std::uint32_t(0);
    std::vector<double> opFinish_;
    std::vector<std::uint32_t> opRetiredAt_;
    /** Events that retired unsuccessfully, with their errors. Bounded
     * by clearFailures(): a failed session drains, surfaces the error
     * and resets — failures never accumulate across healthy epochs. */
    std::map<EventId, Error> failed_;
    EventId next_ = 1;

    /** Simulated schedule state. */
    std::vector<double> procFree_;
    double analysisClock_ = 0.0;

    StreamStats stats_;
};

} // namespace rt
} // namespace diffuse

#endif // DIFFUSE_RUNTIME_TASK_STREAM_H
