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
 */

#ifndef DIFFUSE_RUNTIME_TASK_STREAM_H
#define DIFFUSE_RUNTIME_TASK_STREAM_H

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
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
 * record it and trace replay can feed it back verbatim
 * (`submitPrelinked`), skipping the history scan entirely.
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
 * Dependency-tracked stream of launched tasks.
 *
 * Ownership of real execution stays with the runtime: the stream calls
 * `executeFn` exactly once per task, in an order that respects every
 * recorded hazard, when the task retires.
 */
class TaskStream
{
  public:
    using ExecuteFn = std::function<void(const LaunchedTask &)>;
    /** Failure notification: the task whose event failed, its error,
     * and whether it was cancelled (upstream failure) rather than the
     * root cause. The runtime poisons the task's outputs here. */
    using FailFn = std::function<void(const LaunchedTask &, const Error &,
                                      bool cancelled)>;

    TaskStream(const MachineConfig &machine,
               std::size_t max_pending = 256);

    /** Called when a task retires; runs the task in Real mode. */
    void setExecuteFn(ExecuteFn fn) { executeFn_ = std::move(fn); }

    /** Called after execution to release per-task runtime state. */
    void setRetireFn(ExecuteFn fn) { retireFn_ = std::move(fn); }

    /** Called when a task fails or is cancelled (before its retire
     * fn, which still runs — resource release must not leak). */
    void setFailFn(FailFn fn) { failFn_ = std::move(fn); }

    /**
     * Submit a task: record hazards against in-flight tasks, extend
     * the simulated schedule, and queue the task for deferred
     * execution. Returns the task's completion event.
     *
     * @param trace_out When non-null, receives the derived dependence
     *        edges so a trace can replay them without re-analysis.
     */
    EventId submit(LaunchedTask task, const TaskTiming &timing,
                   SubmitTrace *trace_out = nullptr);

    /**
     * Submit a task whose hazard edges were recorded by a previous,
     * structurally identical submission (trace replay): the history
     * scan is skipped and `trace.deps` (of which only still-pending
     * events count) order the task instead. The recorded edges are
     * epoch-local, so the replayed epoch must have started on a
     * drained stream. The schedule placement, history update and
     * retirement behaviour are identical to `submit`, so simulated
     * time matches the analyzed path exactly.
     */
    EventId submitPrelinked(LaunchedTask task, const TaskTiming &timing,
                            const SubmitTrace &trace);

    /**
     * Storage of a retired task with `num_args` arguments, for the
     * caller to copy-assign a new task into: its vectors and strings
     * keep their capacity, so a replayed submission copies its
     * recorded task without allocating. Contents are unspecified; an
     * empty task when none is spare.
     */
    LaunchedTask recycledTask(std::size_t num_args);

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

    /** Number of submitted-but-unretired tasks. */
    std::size_t pending() const { return pending_.size(); }

    /** Drop dependence history of a destroyed store. */
    void forgetStore(StoreId id);

    const StreamStats &stats() const { return stats_; }

  private:
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
        double writeFinishFloor = 0.0;
        double readFinishFloor = 0.0;
    };

    /** Drop retired records, folding them into the floors. */
    void compactHistory(StoreHistory &h);

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

    /** Keep a retired task's map node and storage for reuse. */
    void recycle(PendingMap::node_type node);

    /** Any-pair piece overlap between two accesses of one store. */
    static bool overlaps(bool a_replicated,
                         const std::vector<Rect> &a_pieces,
                         const AccessRec &b);

    /** Execute and retire exactly one pending task. */
    void retireOne(EventId id);

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
    ExecuteFn executeFn_;
    ExecuteFn retireFn_;
    FailFn failFn_;

    /** Ordered by EventId == submission order (a topological order). */
    PendingMap pending_;
    HistoryMap history_;
    /**
     * Recycled allocations, so a steady stream of submissions (trace
     * replay above all) reaches the allocator rarely: map nodes of
     * retired tasks and destroyed stores' histories, and retired task
     * storage bucketed by argument count (a copy-assignment into a task
     * of the same shape reuses every vector).
     */
    static constexpr std::size_t kMaxSpare = 1024;
    NodeRecycler<PendingMap> pendingNodes_{kMaxSpare};
    NodeRecycler<HistoryMap> historyNodes_{kMaxSpare};
    std::vector<std::vector<LaunchedTask>> spareTasks_;
    std::size_t spareTaskCount_ = 0;
    /** Dependencies of the submission in progress (submit and
     * submitPrelinked gather, finishSubmit consumes). */
    std::vector<EventId> deps_;
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
