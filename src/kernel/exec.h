/**
 * @file
 * Kernel execution and cost profiling.
 *
 * Two execution engines share this file:
 *
 *  - The **vector executor** (the default): executes an
 *    ExecutablePlan — the strip-mined tape lowered once per compiled
 *    kernel (see plan.h). A PointContext resolves the plan's access
 *    sites against concrete bindings once per invocation (classifying
 *    each as contiguous / strided / broadcast), allocates task-local
 *    temporaries from a reusable arena, and the executor then runs
 *    pointer-bumping inner loops over strips of N elements held in a
 *    register-vector file; contiguous Loads the plan marks in place
 *    are read from the bound buffer instead of copied into it.
 *    Reductions fold lanes in element order, so results are
 *    bit-identical to the scalar oracle at every strip width. The
 *    strip loop is compiled twice from one body, as a baseline copy
 *    and an AVX-512 (x86-64-v4) copy; each process runs the widest
 *    copy its CPU supports (see VmCopy).
 *
 *  - The **scalar interpreter** (the oracle): the original
 *    element-at-a-time switch interpreter, retained verbatim behind
 *    DIFFUSE_SCALAR_EXEC=1 for differential testing and as the
 *    fallback for nest instances whose resolved views genuinely
 *    overlap at shifted indices (element-interleaved semantics).
 *
 * Both engines take Exp, Log and Erf from common/fastmath.h, never
 * from libm, so every copy of the VM matches the oracle bitwise.
 *
 * A binding is a strided view of a physical allocation — the moral
 * equivalent of the memrefs the paper's MLIR kernels receive. In Real
 * execution mode bindings carry live pointers; in Simulated mode they
 * carry extents only and just the cost profile is evaluated.
 *
 * Broadcasting: a binding whose extent along a dimension is 1 always
 * contributes index 0 along that dimension, which is how scalar stores
 * (shape (1,)) participate in dense element-wise bodies.
 */

#ifndef DIFFUSE_KERNEL_EXEC_H
#define DIFFUSE_KERNEL_EXEC_H

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "common/geometry.h"
#include "common/types.h"
#include "kernel/ir.h"
#include "kernel/plan.h"

namespace diffuse {
namespace kir {

struct CompiledKernel;

/** A strided view of a physical allocation bound to a kernel buffer. */
struct BufferBinding
{
    void *base = nullptr; ///< pointer to the view origin; null in sim mode
    DType dtype = DType::F64;
    int dims = 1;
    coord_t extent[2] = {1, 1};  ///< view extents
    coord_t stride[2] = {0, 0};  ///< strides in elements of the parent
    /** Element count for irregular (CSR nnz) views; <0 when dense. */
    coord_t irregular = -1;

    coord_t
    volume() const
    {
        coord_t v = 1;
        for (int i = 0; i < dims; i++)
            v *= extent[i];
        return v;
    }
};

/** Aggregate cost of executing one point task. */
struct TaskCost
{
    double bytes = 0.0;  ///< HBM traffic in bytes
    double wflops = 0.0; ///< weighted floating-point operations
    coord_t elements = 0;

    TaskCost &
    operator+=(const TaskCost &o)
    {
        bytes += o.bytes;
        wflops += o.wflops;
        elements += o.elements;
        return *this;
    }
};

/**
 * Compute the cost profile of running `fn` over the given bindings.
 * Pure function of the IR and view extents; used identically in Real
 * and Simulated modes so the two agree.
 */
TaskCost profileCost(const KernelFunction &fn,
                     std::span<const BufferBinding> bindings);

/**
 * Plan-metadata variant: identical result, but reads the per-nest
 * flop/traffic summaries recorded at plan-lowering time instead of
 * re-walking the IR for every point of every submission.
 */
TaskCost profileCost(const CompiledKernel &kernel,
                     std::span<const BufferBinding> bindings);

/**
 * The instruction-set copies of the tape VM's strip loop. Both are
 * compiled from one body: Baseline for the build's target, and Avx512
 * for x86-64-v4 (GCC on x86-64 only), which vectorizes exp, log and
 * erf. The process picks the widest copy its CPU supports, once; every
 * copy is bitwise equal to the scalar oracle.
 */
enum class VmCopy { Baseline, Avx512 };

/** "baseline" or "avx512". */
const char *vmCopyName(VmCopy copy);

/** True when the build contains `copy` and this CPU can run it. */
bool vmCopySupported(VmCopy copy);

/** The copy every Executor in the process runs now: the widest
 * supported one, unless forceVmCopy() replaced it. */
VmCopy vmCopy();

/**
 * Run `copy` from now on, process-wide, and return the copy it
 * replaces. For tests and benches that check or time one copy on a
 * host that supports several; `copy` must be supported. Not meant to
 * race running kernels: set it between them.
 */
VmCopy forceVmCopy(VmCopy copy);

/** An access site resolved against a concrete binding. */
struct ResolvedAccess
{
    double *base = nullptr; ///< view origin
    coord_t rowStride = 0;  ///< elements advanced per outer row
    coord_t step = 0;       ///< elements advanced per inner element
    AccessKind kind = AccessKind::Broadcast;
};

/** One nest of a plan resolved against a point's bindings. */
struct ResolvedNest
{
    coord_t outer = 1;        ///< rows (1 for 1-D domains)
    coord_t inner = 0;        ///< contiguous inner run length
    coord_t stripsPerRow = 0;
    coord_t strips = 0;       ///< outer * stripsPerRow
    coord_t rows = 0;         ///< Gemv/Csr row count (sharding)
    /**
     * Estimated work of this instance, for the runtime's fan-out
     * grain: Dense, strips * stripWidth * (1 + flopsPerElem); Gemv,
     * its matrix elements; Csr, rows plus nonzeros.
     */
    double work = 0.0;
    /**
     * This nest instance must run on the scalar oracle: a store site
     * resolved to a genuinely shifted aliasing view or to a broadcast
     * (extent-1) target with more than one iteration.
     */
    bool scalarFallback = false;
    /**
     * Strips of this instance may run concurrently (no fallback; for
     * Gemv/Csr, rows may shard when the plan says rowParallel).
     */
    bool stripParallel = false;
    std::vector<ResolvedAccess> accesses;
};

/**
 * Per-point execution state shared by every worker sharding one
 * point's strips: the full binding table (external args + arena-backed
 * locals) and the plan's nests resolved against it. Reusable —
 * bind() recycles the local-temporary arena across invocations, so
 * steady-state execution performs no heap allocation.
 */
class PointContext
{
  public:
    /**
     * Resolve `plan` against external bindings. Allocates live local
     * buffers from the internal arena (grown monotonically, reused
     * across calls) and classifies every access site.
     */
    void bind(const KernelFunction &fn, const ExecutablePlan &plan,
              std::span<const BufferBinding> bindings,
              std::span<const double> scalars);

    const ResolvedNest &nest(int i) const
    {
        return nests_[std::size_t(i)];
    }
    int nestCount() const { return nestCount_; }

  private:
    friend class Executor;

    const KernelFunction *fn_ = nullptr;
    const ExecutablePlan *plan_ = nullptr;
    std::span<const double> scalars_;
    std::vector<BufferBinding> all_;
    std::vector<double> arena_; ///< local-temporary storage, reused
    /** The first nestCount_ entries are the bound plan's; entries
     * beyond stay allocated for plans with more nests. */
    std::vector<ResolvedNest> nests_;
    int nestCount_ = 0;
};

/**
 * Executes kernel functions. One instance per worker thread: holds
 * the (scalar and vector) register files and scratch state, which are
 * not thread-safe; PointContexts may be shared across executors.
 */
class Executor
{
  public:
    /**
     * Execute `fn` over `bindings` with the given scalar arguments.
     * Bindings must cover the external arguments; live local buffers
     * are allocated internally. Reduction accumulators are combined
     * into their bound memory with the reduction operator.
     *
     * Runs the vector engine by lowering an ad-hoc plan (or the
     * scalar oracle under DIFFUSE_SCALAR_EXEC=1). Callers on the hot
     * path pass the kernel's cached plan instead.
     */
    void run(const KernelFunction &fn,
             std::span<const BufferBinding> bindings,
             std::span<const double> scalars);

    /** Execute a pre-lowered plan (the compile-once fast path). */
    void run(const KernelFunction &fn, const ExecutablePlan &plan,
             std::span<const BufferBinding> bindings,
             std::span<const double> scalars);

    /** The element-at-a-time reference interpreter (the oracle). */
    void runScalar(const KernelFunction &fn,
                   std::span<const BufferBinding> bindings,
                   std::span<const double> scalars);

    // ---- Sharded execution pieces (used by the runtime's worker
    // pool; see LowRuntime::executeRetired) --------------------------

    /**
     * Execute one whole nest of a bound context: vector engine with
     * scalar fallback; reductions fold in element order and combine
     * into the bound accumulator.
     */
    void runNest(PointContext &ctx, int nest);

    /**
     * Execute strips [strip0, strip1) of a reduction-free Dense nest.
     * `epoch` identifies the dispatch: the first call of an epoch
     * splats the nest's loop invariants into this executor's register
     * file (invariants are identical across the points of a task, so
     * one splat serves every point).
     */
    void runStrips(PointContext &ctx, int nest, coord_t strip0,
                   coord_t strip1, std::uint64_t epoch);

    /** Execute rows [row0, row1) of a Gemv nest. */
    void runGemvRows(PointContext &ctx, int nest, coord_t row0,
                     coord_t row1);

    /** Execute rows [row0, row1) of a Csr nest. */
    void runCsrRows(PointContext &ctx, int nest, coord_t row0,
                    coord_t row1);

    /**
     * True when DIFFUSE_SCALAR_EXEC=1: execute every kernel on the
     * scalar oracle (differential-testing toggle). Reads the
     * environment on each call; rt::LowRuntime samples it once, at
     * construction.
     */
    static bool scalarForced();

  private:
    void ensureVecRegs(const ExecutablePlan &plan);
    void splatInvariants(const DensePlan &dp, int width,
                         std::span<const double> scalars);
    /** Strips [strip0, strip1) of a Dense nest, on the copy of the
     * strip loop the process runs (vmCopy()). */
    void execStrips(const DensePlan &dp, const ResolvedNest &rn,
                    coord_t strip0, coord_t strip1, int width,
                    std::span<const double> scalars, double *partials);

    void runDense(const KernelFunction &fn, const LoopNest &nest,
                  std::span<const BufferBinding> bindings,
                  std::span<const double> scalars);
    void runGemv(const LoopNest &nest,
                 std::span<const BufferBinding> bindings,
                 coord_t row0, coord_t row1);
    void runCsr(const LoopNest &nest,
                std::span<const BufferBinding> bindings, coord_t row0,
                coord_t row1);

    /** Bindings table extended with arena-backed local allocations. */
    std::vector<BufferBinding> all_;
    std::vector<double> scalarArena_; ///< scalar-path locals, reused
    std::vector<double> regs_;        ///< scalar register file
    std::vector<double> vregs_;       ///< vector register file
    /**
     * Where each register slot's current strip lives: its row of
     * vregs_, or the bound buffer for an in-place Load. Ops, Stores
     * and reduction folds read through it; ops write only vregs_.
     */
    std::vector<const double *> operands_;
    std::vector<double> partials_;    ///< reduction scratch
    std::uint64_t invariantEpoch_ = 0;
    PointContext ownCtx_; ///< context for the sequential run() API
};

/**
 * Task scheduler sharding the strip/row ranges of retired index tasks.
 * A `parallelFor`/`parallelForChunked` call submits one *job* — a
 * range [0, n) cut into fixed chunks — and the calling thread
 * immediately participates as the job's slot 0. Up to `workers() - 1`
 * helper threads are spawned **lazily** on the first job that can use
 * them (a pool that never runs parallel work never spawns a thread)
 * and parked on a condition variable between jobs.
 *
 * Each job hands out its chunks from one atomic claim cursor: every
 * participant claims the next `[b, min(n, b + chunk))` with
 * `b = next.fetch_add(chunk)` until `b >= n`. Which slot runs which
 * chunk is a race, so any determinism requirement must be met by
 * indexing results by item (not by worker), as the runtime's
 * reduction merge does.
 *
 * One pool may be shared by several runtime sessions (see
 * core/context.h). Concurrent jobs coexist: every job is registered
 * with the scheduler, and idle helpers lease a free worker slot on
 * *any* active job that still has chunks to claim, so N sessions'
 * point-task shards interleave instead of queueing. `reserve()`
 * raises the thread target to the largest session request, and each
 * job caps its dense worker-slot ids at the caller's `max_workers` —
 * so a workers=1 session sharing an 8-thread pool still executes
 * exactly like an isolated workers=1 runtime, and per-session scratch
 * arrays sized for `max_workers` slots are never indexed beyond it.
 */
class WorkerPool
{
  public:
    /** `workers` <= 0 selects defaultWorkers(). No threads spawn
     * until the first parallel job needs them. */
    explicit WorkerPool(int workers = 0);
    ~WorkerPool();

    WorkerPool(const WorkerPool &) = delete;
    WorkerPool &operator=(const WorkerPool &) = delete;

    /** Target worker count, including the calling thread. */
    int workers() const
    {
        return target_.load(std::memory_order_relaxed);
    }

    /** Raise the thread target (shared pools: sessions requesting
     * more workers grow the one pool instead of spawning their own).
     * Never shrinks. */
    void reserve(int workers);

    /** Helper threads actually spawned so far (lazy-start tests). */
    int threadsSpawned() const;

    /** Process-wide gauge of live pool helper threads (tests: N
     * sessions sharing one pool spawn at most one pool's worth). */
    static int liveThreads();

    /**
     * Run `fn(worker, item)` for every item in [0, n), distributing
     * items across workers; blocks until all items complete. `worker`
     * is a dense id in [0, min(max_workers, workers())) usable to
     * index scratch state. Must not be called re-entrantly from
     * inside a job.
     */
    template <typename Fn>
    void
    parallelFor(coord_t n, int max_workers, Fn &&fn)
    {
        parallelForChunked(n, 1, max_workers,
                           [&fn](int worker, coord_t begin, coord_t end) {
                               for (coord_t i = begin; i < end; i++)
                                   fn(worker, i);
                           });
    }
    template <typename Fn>
    void
    parallelFor(coord_t n, Fn &&fn)
    {
        parallelFor(n, workers(), fn);
    }

    /**
     * Run `fn(worker, begin, end)` over [0, n) in chunks of `chunk`
     * items claimed dynamically; blocks until all chunks complete.
     * This is how workers split strip ranges: claiming ranges instead
     * of single items keeps the claim cursor off the hot path. A
     * range of one chunk (or a one-worker cap) runs inline on the
     * calling thread: no job, and no copy of `fn`.
     */
    template <typename Fn>
    void
    parallelForChunked(coord_t n, coord_t chunk, int max_workers, Fn &&fn)
    {
        if (n <= 0)
            return;
        if (chunk <= 0)
            chunk = 1;
        int cap = std::min(max_workers, workers());
        if (cap <= 1 || n <= chunk) {
            fn(0, coord_t(0), n);
            return;
        }
        // By reference: wrapping a reference_wrapper never allocates.
        runJob(n, chunk, cap,
               std::function<void(int, coord_t, coord_t)>(std::ref(fn)));
    }

    /**
     * Worker count from the environment: DIFFUSE_WORKERS when set (>=
     * 1), else 1 — parallel execution is opt-in so that default runs
     * match the reference semantics exactly.
     */
    static int defaultWorkers();

    /** Chunks claimed by helper slots (not the submitting thread's
     * slot 0) so far: the work callers handed off to the pool. */
    std::uint64_t steals() const
    {
        return steals_.load(std::memory_order_relaxed);
    }

  private:
    /**
     * One submitted parallel job. Participants claim chunks from
     * `next`; helpers lease the dense slot ids 1..`freeSlots` for
     * good (the caller permanently owns slot 0), `itemsDone` drives
     * completion, and the first exception cancels the remainder —
     * cancelled chunks are credited without executing, so accounting
     * always converges and the error is rethrown on the submitting
     * thread.
     */
    struct Job
    {
        const std::function<void(int, coord_t, coord_t)> *fn = nullptr;
        coord_t numItems = 0;
        coord_t chunk = 1;
        /** Start of the next unclaimed chunk; >= numItems once every
         * chunk is claimed. */
        std::atomic<coord_t> next{0};

        /** Guards the fields below. Lock order: pool mutex_ before
         * any Job::m; never the reverse. */
        std::mutex m;
        std::condition_variable cv;
        int freeSlots = 0; ///< helper slots not yet leased
        coord_t itemsDone = 0;
        std::exception_ptr error;
        bool cancelled = false;
        bool done = false;
    };

    void workerLoop();
    /** Execute (or credit, once cancelled) chunks of `job` as slot
     * `slot` until the claim cursor passes the end of the range. */
    void runStint(Job &job, int slot);
    /** Submit a job to the scheduler and run the caller's stint. */
    void runJob(coord_t n, coord_t chunk, int cap,
                const std::function<void(int, coord_t, coord_t)> &fn);
    /** Spawn helper threads up to min(target, job cap) (mutex_
     * held). */
    void ensureSpawnedLocked(int cap);

    std::vector<std::thread> threads_;
    mutable std::mutex mutex_;
    std::condition_variable start_;
    /** Jobs with potentially claimable work (registration order).
     * Guarded by mutex_. */
    std::vector<std::shared_ptr<Job>> activeJobs_;
    /** Bumped (under mutex_) whenever claimable work may have
     * appeared; parked helpers wait for it to move. */
    std::uint64_t signal_ = 0;
    /** Thread target (callers may reserve() it upward at any time). */
    std::atomic<int> target_{1};
    std::atomic<std::uint64_t> steals_{0};
    bool stop_ = false;
};

} // namespace kir
} // namespace diffuse

#endif // DIFFUSE_KERNEL_EXEC_H
