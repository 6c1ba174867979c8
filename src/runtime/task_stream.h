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
 * Every submission is an op of an epoch's program (TraceProgram): an
 * analyzed epoch's ops are appended as the epoch is planned and their
 * hazard edges found by the history scan, a replayed epoch's ops carry
 * the edges recorded when it was captured. Both retire through one
 * in-flight window, and an op's retirement is known by its index.
 */

#ifndef DIFFUSE_RUNTIME_TASK_STREAM_H
#define DIFFUSE_RUNTIME_TASK_STREAM_H

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "common/error.h"
#include "common/geometry.h"
#include "common/types.h"
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

/** Cost-model results of one submitted task (computed at submission). */
struct TaskTiming
{
    /** Per-point seconds: communication + launch + compute. */
    std::vector<double> pointSeconds;
    /** Reduction collective appended after the slowest point. */
    double collectiveSeconds = 0.0;
    /** Serialized dynamic dependence-analysis seconds. */
    double analysisSeconds = 0.0;
    /**
     * What only the cost model of a compute task knows, kept for the
     * runtime's counters: the HBM bytes of all points, the slowest
     * point's communication and compute seconds, and the analytic
     * model's intra- and inter-node bytes (ranks == 1; sharded
     * execution moves its bytes in Copy tasks instead).
     */
    double hbmBytes = 0.0;
    double commSeconds = 0.0;
    double computeSeconds = 0.0;
    double intraNodeBytes = 0.0;
    double interNodeBytes = 0.0;
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
 * One op of an epoch's program: a stream submission — the fully
 * lowered task (pieces expanded, shard bindings and parallel-safety
 * decided), its cost model and its hazard edges as indices into the
 * program's op order. Everything the runtime counts for it follows
 * from the op. Store ids inside `task` (and `task.copy`) are the
 * program's slots; its scalars are a range of the run's scalar block.
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
    /** A compute op's scalars: [scalarBegin, scalarBegin + scalarCount)
     * of the run's scalar block, which holds every compute op's scalars
     * in submission order — for a replay, its window tasks' scalars in
     * task order. */
    std::uint32_t scalarBegin = 0;
    std::uint32_t scalarCount = 0;
};

// Growing a program moves its ops; access records point into their
// arguments, which a move (unlike a copy) leaves in place.
static_assert(std::is_nothrow_move_constructible_v<ProgramOp>);

/**
 * An epoch's submissions in submission order: appended op by op while
 * an analyzed epoch is planned, or replayed from the trace cache.
 * Capture publishes the program that ran; a published program is never
 * written again, so every session replaying it — and the capturing
 * session, still retiring it — reads the same object.
 */
struct TraceProgram
{
    std::vector<ProgramOp> ops;
    /** Slot s of the ops is encoder slot `slots[s]` of the epoch's
     * event stream (set at publication): a replay binds its slots
     * through it. */
    std::vector<std::uint32_t> slots;
    /** Length of the scalar block. */
    std::size_t scalarCount = 0;
};

/**
 * Remembered accesses to one store, which the stream reads and writes
 * through its slot table; the store's owner keeps it, and its address
 * must stay put while an op of the program in flight names the store.
 * Writes are kept as a list — a partial write supersedes only what it
 * overlaps, so earlier writes of other regions stay visible to hazard
 * detection. An op folds its finish time into its stores' floors when
 * it retires, so the simulated schedule orders later conflicting
 * accesses after it; its records are then dead weight, pruned at the
 * next scan.
 */
struct StoreHistory
{
    /**
     * One access, remembered for hazard detection. `pieces` points into
     * the argument of the op that made the access: a record is only
     * read while that op is pending (every scan compacts retired
     * records out first), and a pending op's arguments neither move nor
     * change.
     */
    struct AccessRec
    {
        EventId id = NO_EVENT;
        bool replicated = false;
        const std::vector<Rect> *pieces = nullptr;
    };

    /** Finish times of retired accesses: later conflicting accesses
     * are placed after them. */
    struct Floors
    {
        double write = 0.0;
        double read = 0.0;
    };

    std::vector<AccessRec> writes;
    std::vector<AccessRec> reads;
    Floors floors;

    /** A new store's history (the lists keep their capacity). */
    void
    reset()
    {
        writes.clear();
        reads.clear();
        floors = Floors();
    }
};

/**
 * Dependency-tracked stream of launched tasks.
 *
 * Ownership of real execution stays with the runtime: the stream hands
 * each op to its Runner exactly once, in an order that respects every
 * hazard edge, when the op retires.
 */
class TaskStream
{
  public:
    /** The runtime's side of retirement. */
    class Runner
    {
      public:
        /**
         * Retire op `op` of the program in flight, whose event is `id`:
         * run it — or, when `cancel` is set because a dependency
         * failed, skip it and poison its outputs with that error — then
         * release its per-task state either way. Returns the error the
         * op ended with (a cancelled op's is `*cancel`; None on
         * success).
         */
        virtual Error retire(EventId id, std::size_t op,
                             const Error *cancel) = 0;

      protected:
        /** The stream never owns its runner. */
        ~Runner() = default;
    };

    TaskStream(const MachineConfig &machine,
               std::size_t max_pending = 256);

    /** Who retires ops; none retires nothing but the bookkeeping. */
    void setRunner(Runner *runner) { runner_ = runner; }

    // ---- Programs ----------------------------------------------------
    //
    // A program begins on a drained stream, so its hazard edges are
    // epoch-local. Op k's event is the program's base + k: events (and
    // error origins) are numbered in submission order across programs.
    // Ops are submitted in order and retire through one window — at
    // overflow, fence() and waitStore() — so which ops have retired at
    // each submission, and hence the history floors and the simulated
    // schedule, do not depend on how an op's edges were found.

    /**
     * Begin `program` on the drained stream. It must outlive its ops'
     * retirement; the stream reads it until the next beginProgram.
     */
    void beginProgram(const TraceProgram &program);

    /** Bind the program's next slot to store `id`, whose access
     * history is `history`. */
    void addSlot(StoreId id, StoreHistory &history);

    /**
     * Submit `op`, the program's next op, just appended: find its
     * hazard edges by scanning the access history and record them in
     * `op`, submit it, and remember its accesses for later scans.
     */
    void submitAnalyzed(ProgramOp &op);

    /**
     * Submit the program's next op by its recorded hazard edges (a
     * replay). It leaves no access records: nothing scans while a
     * replay is in flight.
     */
    void submitReplayed();

    /** Retire every pending op touching store `id`, each after its
     * pending dependencies. */
    void waitStore(StoreId id);

    /** Retire all pending ops, in submission order. */
    void fence();

    /** Forget recorded failures (session resetAfterError()). */
    void clearFailures() { failed_.clear(); }

    /** Number of submitted-but-unretired ops. */
    std::size_t pending() const { return submitted_ - retired_; }

    /** Has op `k` of the program in flight retired? */
    bool opRetired(std::size_t k) const
    {
        return opRetiredAt_[k] != kOpPending;
    }

    /** Store of each slot of the program in flight. */
    std::span<const StoreId> slotStores() const { return slotStores_; }

    const StreamStats &stats() const { return stats_; }

  private:
    using AccessRec = StoreHistory::AccessRec;
    using Floors = StoreHistory::Floors;

    /** Has the op that made a record retired? A record of an earlier
     * program has: its event is below the base. */
    bool retired(EventId id) const
    {
        return id < base_ || opRetired(std::size_t(id - base_));
    }

    /** Drop retired records. */
    void compactHistory(StoreHistory &h);

    /**
     * Place an op on the simulated schedule no earlier than
     * `dep_finish` and the serialized analysis clock. Returns its
     * finish time.
     */
    double place(const TaskTiming &timing, int num_points, int proc_hint,
                 double dep_finish);

    /** Any-pair piece overlap between two accesses of one store. */
    static bool overlaps(bool a_replicated,
                         const std::vector<Rect> &a_pieces,
                         const AccessRec &b);

    /**
     * The one submission tail: place the next op no earlier than its
     * slots' floors and its pending dependencies, apply the
     * replicated-write floor rule, append its access records when
     * `record`, and retire overflow.
     */
    void submitOp(bool record);

    /** Retire op `k` and, first, its pending dependencies. */
    void retireOpWithDeps(std::size_t k);

    /**
     * Retire op `k`, whose dependencies have retired: fold its finish
     * into its slots' floors, cancel it if a dependency that was
     * pending at its submission failed (else run it), and record how
     * it ended.
     */
    void retireOp(std::size_t k);

    MachineConfig machine_;
    std::size_t maxPending_;
    Runner *runner_ = nullptr;

    /** waitStore's collected users, reused across calls. */
    std::vector<std::size_t> users_;

    /** The program in flight and its progress: op k's event is base_ +
     * k; `head_` is its oldest op not yet retired. */
    const TraceProgram *program_ = nullptr;
    EventId base_ = 1;
    std::size_t submitted_ = 0;
    std::size_t retired_ = 0;
    std::size_t head_ = 0;
    /** Slot table: each slot's store and history. waitStore matches
     * by store: a destroyed store's history may serve a store created
     * while the program is in flight, under a second slot. */
    std::vector<StoreId> slotStores_;
    std::vector<StoreHistory *> slotHistory_;
    /** Per submitted op: its finish time, and how many ops had been
     * submitted when it retired (kOpPending until then). A failed
     * dependency cancels an op only if it was still pending at the
     * op's submission. */
    static constexpr std::uint32_t kOpPending = ~std::uint32_t(0);
    std::vector<double> opFinish_;
    std::vector<std::uint32_t> opRetiredAt_;
    /** Events that retired unsuccessfully, with their errors. Bounded
     * by clearFailures(): a failed session drains, surfaces the error
     * and resets — failures never accumulate across healthy epochs. */
    std::map<EventId, Error> failed_;

    /** Simulated schedule state. */
    std::vector<double> procFree_;
    double analysisClock_ = 0.0;

    StreamStats stats_;
};

} // namespace rt
} // namespace diffuse

#endif // DIFFUSE_RUNTIME_TASK_STREAM_H
