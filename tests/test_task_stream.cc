/**
 * @file
 * Asynchronous pipeline tests: RAW/WAR/WAW hazard ordering in the
 * TaskStream, out-of-order retirement of independent tasks, fence and
 * implicit host-access fence semantics, stream schedules computed by
 * hand, WorkerPool sharding, overlap-aware simulated time, and
 * bit-identical numerics for any worker count (CG residual histories
 * with 1 vs. 8 workers).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <vector>

#include "apps/apps.h"
#include "cunumeric/ndarray.h"
#include "runtime/runtime.h"
#include "runtime/task_stream.h"
#include "solvers/solvers.h"
#include "sparse/csr.h"

namespace diffuse {
namespace {

// ---------------------------------------------------------------------
// TaskStream unit tests (no kernels: a runner that records names)
// ---------------------------------------------------------------------

struct ArgSpec
{
    StoreId store;
    Privilege priv;
    coord_t lo;
    coord_t hi;
    bool replicated = false;
};

rt::LaunchedTask
streamTask(const std::string &name, std::vector<ArgSpec> args)
{
    rt::LaunchedTask t;
    t.numPoints = 1;
    t.name = name;
    for (const ArgSpec &s : args) {
        rt::LowArg a;
        a.store = s.store;
        a.priv = s.priv;
        a.replicated = s.replicated;
        if (!s.replicated)
            a.pieces = {Rect(Point(s.lo), Point(s.hi))};
        t.args.push_back(std::move(a));
    }
    return t;
}

rt::TaskTiming
timing()
{
    rt::TaskTiming t;
    t.pointSeconds = {1e-3};
    return t;
}

/** Stores the fixture's programs can name (slot s names store s). */
constexpr StoreId kStores = 16;
/** A store no other task touches: waiting on it retires its one user
 * after that user's dependencies, and nothing else. */
constexpr StoreId kMarker = kStores - 1;

struct StreamFixture : rt::TaskStream::Runner
{
    rt::TaskStream stream;
    rt::TraceProgram program;
    rt::StoreHistory history[kStores];
    std::vector<std::string> order;

    explicit StreamFixture(std::size_t max_pending = 256)
        : stream(rt::MachineConfig::withGpus(4), max_pending)
    {
        stream.setRunner(this);
        beginEpoch();
    }

    /** Begin the next epoch's program on the drained stream. */
    void
    beginEpoch()
    {
        program.ops.clear();
        stream.beginProgram(program);
        for (StoreId s = 0; s < kStores; s++)
            stream.addSlot(s, history[s]);
    }

    Error
    retire(rt::EventId, std::size_t op, const Error *) override
    {
        order.push_back(program.ops[op].task.name);
        return Error();
    }

    /** Submit a 1 ms, 1-point task (on processor `proc`, if set). */
    void
    submit(const std::string &name, std::vector<ArgSpec> args,
           int proc = -1)
    {
        rt::ProgramOp &op = program.ops.emplace_back();
        op.task = streamTask(name, std::move(args));
        op.task.procHint = proc;
        op.timing = timing();
        stream.submitAnalyzed(op);
    }
};

TEST(TaskStream, RawHazardOrdersReadAfterWrite)
{
    StreamFixture f;
    f.submit("A", {{1, Privilege::Write, 0, 100}});
    f.submit("B", {{1, Privilege::Read, 0, 100},
                   {kMarker, Privilege::Write, 0, 1}});
    f.stream.waitStore(kMarker);
    EXPECT_EQ(f.order, (std::vector<std::string>{"A", "B"}));
    EXPECT_EQ(f.stream.pending(), 0u); // A retired first
    EXPECT_EQ(f.stream.stats().rawDeps, 1u);
}

TEST(TaskStream, WarHazardOrdersWriteAfterRead)
{
    StreamFixture f;
    f.submit("A", {{1, Privilege::Read, 0, 100}});
    f.submit("B", {{1, Privilege::Write, 0, 100},
                   {kMarker, Privilege::Write, 0, 1}});
    f.stream.waitStore(kMarker);
    EXPECT_EQ(f.order, (std::vector<std::string>{"A", "B"}));
    EXPECT_EQ(f.stream.stats().warDeps, 1u);
}

TEST(TaskStream, WawHazardOrdersWrites)
{
    StreamFixture f;
    f.submit("A", {{1, Privilege::Write, 0, 100}});
    f.submit("B", {{1, Privilege::Write, 0, 100},
                   {kMarker, Privilege::Write, 0, 1}});
    f.stream.waitStore(kMarker);
    EXPECT_EQ(f.order, (std::vector<std::string>{"A", "B"}));
    EXPECT_EQ(f.stream.stats().wawDeps, 1u);
}

TEST(TaskStream, IndependentTasksRetireOutOfOrder)
{
    StreamFixture f;
    f.submit("A", {{1, Privilege::Write, 0, 100}});
    f.submit("B", {{2, Privilege::Write, 0, 100}});
    f.stream.waitStore(2);
    EXPECT_EQ(f.order, (std::vector<std::string>{"B"}));
    EXPECT_EQ(f.stream.pending(), 1u); // B retired, A still pending
    EXPECT_EQ(f.stream.stats().retiredOutOfOrder, 1u);
    f.stream.fence();
    EXPECT_EQ(f.order, (std::vector<std::string>{"B", "A"}));
    EXPECT_EQ(f.stream.pending(), 0u);
}

TEST(TaskStream, DisjointPiecesDoNotConflict)
{
    StreamFixture f;
    f.submit("A", {{1, Privilege::Write, 0, 50}});
    f.submit("B", {{1, Privilege::Write, 50, 100},
                   {kMarker, Privilege::Write, 0, 1}});
    f.stream.waitStore(kMarker);
    // Disjoint halves of the same store: no WAW hazard, B retires
    // alone.
    EXPECT_EQ(f.order, (std::vector<std::string>{"B"}));
    EXPECT_EQ(f.stream.stats().wawDeps, 0u);
    f.stream.fence();
}

TEST(TaskStream, ReplicatedAccessConflictsWithAnyPiece)
{
    StreamFixture f;
    f.submit("A", {{1, Privilege::Write, 0, 50}});
    f.submit("B", {{1, Privilege::Read, 0, 0, /*replicated=*/true},
                   {kMarker, Privilege::Write, 0, 1}});
    f.stream.waitStore(kMarker);
    EXPECT_EQ(f.order, (std::vector<std::string>{"A", "B"}));
}

TEST(TaskStream, PartialWriteKeepsEarlierRecordsAlive)
{
    StreamFixture f;
    f.submit("R1", {{1, Privilege::Read, 0, 50}});
    f.submit("W2", {{1, Privilege::Write, 50, 100}});
    f.submit("W3", {{1, Privilege::Write, 0, 50},
                    {kMarker, Privilege::Write, 0, 1}});
    f.stream.waitStore(kMarker);
    // W3 must order after the pending read of [0,50) even though the
    // disjoint write W2 came between them.
    EXPECT_EQ(f.order, (std::vector<std::string>{"R1", "W3"}));
    f.stream.fence();
    EXPECT_EQ(f.order.back(), "W2");
}

TEST(TaskStream, ReadDependsOnAllOverlappingWriters)
{
    StreamFixture f;
    f.submit("W1", {{1, Privilege::Write, 0, 50}});
    f.submit("W2", {{1, Privilege::Write, 50, 100}});
    f.submit("R", {{1, Privilege::Read, 0, 100},
                   {kMarker, Privilege::Write, 0, 1}});
    f.stream.waitStore(kMarker);
    EXPECT_EQ(f.order, (std::vector<std::string>{"W1", "W2", "R"}));
    EXPECT_EQ(f.stream.stats().rawDeps, 2u);
}

TEST(TaskStream, TransitiveDependenciesRetireInOrder)
{
    StreamFixture f;
    f.submit("A", {{1, Privilege::Write, 0, 100}});
    f.submit("B", {{1, Privilege::Read, 0, 100},
                   {2, Privilege::Write, 0, 100}});
    f.submit("C", {{2, Privilege::Read, 0, 100},
                   {3, Privilege::Write, 0, 100}});
    f.submit("D", {{4, Privilege::Write, 0, 100}});
    f.stream.waitStore(3); // C's own store
    EXPECT_EQ(f.order, (std::vector<std::string>{"A", "B", "C"}));
    f.stream.fence();
    EXPECT_EQ(f.order.back(), "D");
}

TEST(TaskStream, FenceRetiresEverythingInSubmissionOrder)
{
    StreamFixture f;
    f.submit("A", {{1, Privilege::Write, 0, 100}});
    f.submit("B", {{2, Privilege::Write, 0, 100}});
    f.submit("C", {{1, Privilege::Read, 0, 100}});
    f.stream.fence();
    EXPECT_EQ(f.order, (std::vector<std::string>{"A", "B", "C"}));
    EXPECT_EQ(f.stream.stats().fences, 1u);
    EXPECT_EQ(f.stream.stats().retired, 3u);
}

TEST(TaskStream, WaitStoreRetiresOnlyUsers)
{
    StreamFixture f;
    f.submit("A", {{1, Privilege::Write, 0, 100}});
    f.submit("B", {{2, Privilege::Write, 0, 100}});
    f.stream.waitStore(2);
    EXPECT_EQ(f.order, (std::vector<std::string>{"B"}));
    EXPECT_EQ(f.stream.pending(), 1u);
    f.stream.fence();
}

TEST(TaskStream, BoundedPendingWindowRetiresOldest)
{
    StreamFixture f(/*max_pending=*/4);
    for (int i = 0; i < 10; i++)
        f.submit("T" + std::to_string(i),
                 {{StoreId(i + 1), Privilege::Write, 0, 100}});
    EXPECT_LE(f.stream.pending(), 4u);
    EXPECT_EQ(f.order.front(), "T0");
    EXPECT_GE(f.stream.stats().retired, 6u);
}

// ---------------------------------------------------------------------
// Schedules computed by hand: every task is one 1 ms point with no
// analysis time, on the 4-processor timeline its procHint names.
// ---------------------------------------------------------------------

constexpr double kMs = 1e-3;

TEST(StreamSchedule, FencedWriteDelaysNextEpochReadThroughTheFloor)
{
    StreamFixture f;
    // W: proc 0, [0, 1] ms. The fence retires it, leaving its finish
    // in store 1's write floor.
    f.submit("W", {{1, Privilege::Write, 0, 100}}, 0);
    f.stream.fence();
    f.beginEpoch();
    // R: proc 1 is free at 0, but the write floor holds it to
    // [1, 2] ms. W retired, so R records no edge.
    f.submit("R", {{1, Privilege::Read, 0, 100}}, 1);
    f.stream.fence();
    const rt::StreamStats &s = f.stream.stats();
    EXPECT_DOUBLE_EQ(s.criticalPathTime, 2 * kMs);
    EXPECT_DOUBLE_EQ(s.busyTime, 2 * kMs); // two 1 ms points
    EXPECT_EQ(s.rawDeps, 0u);
    EXPECT_EQ(s.warDeps, 0u);
    EXPECT_EQ(s.wawDeps, 0u);
    EXPECT_EQ(s.maxPendingSeen, 1u);
    EXPECT_EQ(s.retiredOutOfOrder, 0u);
    EXPECT_EQ(s.fences, 2u);
}

TEST(StreamSchedule, ReplicatedWriteResetsTheReadFloor)
{
    StreamFixture f;
    // R0: proc 0, [0, 1] ms.
    f.submit("R0", {{1, Privilege::Read, 0, 100}}, 0);
    // W replicated: WAR on R0, proc 1, [1, 2] ms. It supersedes every
    // earlier access of store 1: R0's record goes, the write floor
    // becomes 2 ms and the read floor restarts from 0.
    f.submit("W", {{1, Privilege::Write, 0, 0, /*replicated=*/true}}, 1);
    // R1: RAW on W, proc 2, [2, 3] ms.
    f.submit("R1", {{1, Privilege::Read, 0, 100}}, 2);
    // W2: WAW on W and WAR on R1 only (not on R0), proc 3, [3, 4] ms.
    f.submit("W2", {{1, Privilege::Write, 0, 100}}, 3);
    f.stream.fence();
    EXPECT_EQ(f.order,
              (std::vector<std::string>{"R0", "W", "R1", "W2"}));
    const rt::StreamStats &s = f.stream.stats();
    EXPECT_EQ(s.rawDeps, 1u);
    EXPECT_EQ(s.warDeps, 2u); // W on R0, W2 on R1
    EXPECT_EQ(s.wawDeps, 1u);
    EXPECT_DOUBLE_EQ(s.criticalPathTime, 4 * kMs);
    EXPECT_DOUBLE_EQ(s.busyTime, 4 * kMs);
    EXPECT_EQ(s.maxPendingSeen, 4u);
    EXPECT_EQ(s.retiredOutOfOrder, 0u);
}

TEST(StreamSchedule, WindowOverflowRetiresOldestAndItsFloorsBound)
{
    StreamFixture f(/*max_pending=*/2);
    // T0..T3 write stores 1..4 back to back on proc 0: [k, k + 1] ms.
    // Each submission beyond two pending retires the oldest: T2's
    // retires T0, T3's retires T1.
    for (int k = 0; k < 4; k++)
        f.submit("T" + std::to_string(k),
                 {{StoreId(k + 1), Privilege::Write, 0, 100}}, 0);
    EXPECT_EQ(f.order, (std::vector<std::string>{"T0", "T1"}));
    // R reads store 1 on proc 1: T0 retired, so no edge, but its
    // floor holds R to [1, 2] ms. R's submission retires T2.
    f.submit("R", {{1, Privilege::Read, 0, 100}}, 1);
    // W writes store 2 on proc 2: T1's floor holds it to [2, 3] ms.
    // W's submission retires T3.
    f.submit("W", {{2, Privilege::Write, 0, 100}}, 2);
    EXPECT_EQ(f.order,
              (std::vector<std::string>{"T0", "T1", "T2", "T3"}));
    f.stream.fence();
    EXPECT_EQ(f.order.back(), "W");
    const rt::StreamStats &s = f.stream.stats();
    EXPECT_DOUBLE_EQ(s.criticalPathTime, 4 * kMs); // T3 ends last
    EXPECT_DOUBLE_EQ(s.busyTime, 6 * kMs);
    EXPECT_EQ(s.rawDeps + s.warDeps + s.wawDeps, 0u);
    EXPECT_EQ(s.maxPendingSeen, 3u); // counted before overflow retires
    EXPECT_EQ(s.retiredOutOfOrder, 0u);
    EXPECT_EQ(s.retired, 6u);
}

// ---------------------------------------------------------------------
// WorkerPool
// ---------------------------------------------------------------------

TEST(WorkerPool, ExecutesEveryItemExactlyOnce)
{
    kir::WorkerPool pool(4);
    EXPECT_EQ(pool.workers(), 4);
    const coord_t n = 5000;
    std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
    for (auto &h : hits)
        h.store(0);
    std::atomic<bool> bad_worker{false};
    pool.parallelFor(n, [&](int worker, coord_t i) {
        if (worker < 0 || worker >= 4)
            bad_worker.store(true);
        hits[std::size_t(i)].fetch_add(1);
    });
    EXPECT_FALSE(bad_worker.load());
    for (coord_t i = 0; i < n; i++)
        ASSERT_EQ(hits[std::size_t(i)].load(), 1) << "item " << i;
}

TEST(WorkerPool, ReusableAcrossJobs)
{
    kir::WorkerPool pool(3);
    for (int round = 0; round < 50; round++) {
        std::atomic<coord_t> sum{0};
        pool.parallelFor(100, [&](int, coord_t i) { sum += i; });
        ASSERT_EQ(sum.load(), 4950);
    }
}

TEST(WorkerPool, DefaultWorkersReadsEnvironment)
{
    setenv("DIFFUSE_WORKERS", "3", 1);
    EXPECT_EQ(kir::WorkerPool::defaultWorkers(), 3);
    unsetenv("DIFFUSE_WORKERS");
    EXPECT_EQ(kir::WorkerPool::defaultWorkers(), 1);
}

// ---------------------------------------------------------------------
// Runtime integration: implicit fences and deferred destruction
// ---------------------------------------------------------------------

DiffuseOptions
asyncOpts(rt::ExecutionMode mode = rt::ExecutionMode::Real,
          int workers = 0)
{
    DiffuseOptions o;
    o.fusionEnabled = false; // lower each task into the stream at once
    o.maxWindow = 1;         // no automatic window growth either
    o.mode = mode;
    o.workers = workers;
    return o;
}

TEST(AsyncRuntime, HostReadFencesTheStoreImplicitly)
{
    DiffuseRuntime rt(rt::MachineConfig::withGpus(4), asyncOpts());
    num::Context ctx(rt);
    num::NDArray a = ctx.zeros(64, 1.5);
    num::NDArray b = ctx.mulScalar(2.0, a);
    // The task is in flight: submitted but not retired.
    EXPECT_GT(rt.low().streamStats().submitted,
              rt.low().streamStats().retired);
    // Host access fences the store without an explicit flush.
    const double *p = rt.low().dataF64(b.store());
    EXPECT_DOUBLE_EQ(p[0], 3.0);
    EXPECT_DOUBLE_EQ(p[63], 3.0);
}

TEST(AsyncRuntime, ScalarReadbackFencesImplicitly)
{
    DiffuseRuntime rt(rt::MachineConfig::withGpus(4), asyncOpts());
    num::Context ctx(rt);
    num::NDArray x = ctx.zeros(32, 2.0);
    num::NDArray d = ctx.dot(x, x);
    EXPECT_GT(rt.low().streamStats().submitted,
              rt.low().streamStats().retired);
    EXPECT_DOUBLE_EQ(rt.low().readScalarValue(d.store()), 128.0);
}

TEST(AsyncRuntime, IndependentChainRemainsPendingAcrossHostRead)
{
    DiffuseRuntime rt(rt::MachineConfig::withGpus(4), asyncOpts());
    num::Context ctx(rt);
    num::NDArray a = ctx.zeros(64, 1.0);
    num::NDArray b = ctx.zeros(64, 2.0);
    num::NDArray a2 = ctx.mulScalar(2.0, a); // chain 1
    num::NDArray b2 = ctx.mulScalar(3.0, b); // chain 2
    const double *p = rt.low().dataF64(b2.store());
    EXPECT_DOUBLE_EQ(p[0], 6.0);
    // Chain 1 is untouched: retired out of order, still pending.
    EXPECT_GT(rt.low().streamStats().submitted,
              rt.low().streamStats().retired);
    EXPECT_GE(rt.low().streamStats().retiredOutOfOrder, 1u);
    EXPECT_DOUBLE_EQ(rt.low().dataF64(a2.store())[0], 2.0);
}

TEST(AsyncRuntime, StoresDestroyedWhileInFlightAreDeferred)
{
    DiffuseRuntime rt(rt::MachineConfig::withGpus(2), asyncOpts());
    num::Context ctx(rt);
    num::NDArray c;
    {
        num::NDArray a = ctx.zeros(64, 1.0);
        num::NDArray b = ctx.mulScalar(2.0, a);
        c = ctx.mulScalar(3.0, b);
    }
    // a and b handles are gone while their producer/consumer tasks
    // are still in flight; the allocations must survive until
    // retirement.
    EXPECT_DOUBLE_EQ(ctx.toHost(c)[0], 6.0);
    rt.flushWindow();
}

TEST(AsyncRuntime, FlushWindowFencesTheStream)
{
    // flushWindow() must retire everything in place (the
    // asynchronous counterpart is FlushWindowAsyncLeavesEpochInFlight
    // below).
    DiffuseRuntime rt(rt::MachineConfig::withGpus(4), asyncOpts());
    num::Context ctx(rt);
    num::NDArray a = ctx.zeros(64, 1.0);
    num::NDArray b = ctx.mulScalar(2.0, a);
    (void)b;
    rt.flushWindow();
    EXPECT_EQ(rt.low().streamStats().submitted,
              rt.low().streamStats().retired);
    EXPECT_GE(rt.low().streamStats().fences, 1u);
}

TEST(AsyncRuntime, HostCopyFlushesAndFencesOnce)
{
    // A host copy synchronizes once, in readStoreF64's flush. A copy
    // with nothing buffered or pending synchronizes nothing, and so
    // counts neither a flush nor a fence.
    DiffuseOptions o;
    o.mode = rt::ExecutionMode::Real;
    DiffuseRuntime rt(rt::MachineConfig::withGpus(4), o);
    num::Context ctx(rt);
    num::NDArray a = ctx.random(64, 3);
    num::NDArray b = ctx.mulScalar(2.0, a);
    const std::uint64_t flushes = rt.fusionStats().flushes;
    const std::uint64_t fences = rt.low().streamStats().fences;
    std::vector<double> got = ctx.toHost(b);
    EXPECT_EQ(rt.fusionStats().flushes, flushes + 1);
    EXPECT_EQ(rt.low().streamStats().fences, fences + 1);
    rt.flushWindow();
    std::vector<double> in = ctx.toHost(a);
    EXPECT_EQ(rt.fusionStats().flushes, flushes + 1);
    EXPECT_EQ(rt.low().streamStats().fences, fences + 1);
    ASSERT_EQ(got.size(), in.size());
    for (std::size_t i = 0; i < got.size(); i++)
        EXPECT_EQ(got[i], 2.0 * in[i]) << "index " << i;
}

TEST(AsyncRuntime, FlushWindowAsyncLeavesEpochInFlight)
{
    DiffuseRuntime rt(rt::MachineConfig::withGpus(4), asyncOpts());
    num::Context ctx(rt);
    num::NDArray a = ctx.zeros(64, 1.0);
    num::NDArray b = ctx.mulScalar(2.0, a);
    rt.flushWindowAsync();
    // The flush registered the epoch but did not drain it...
    EXPECT_GT(rt.low().streamPending(), 0u);
    EXPECT_EQ(rt.low().streamStats().fences, 0u);
    // ...and the next window's first submit retires it before it
    // buffers anything.
    num::NDArray c = ctx.mulScalar(3.0, b);
    EXPECT_DOUBLE_EQ(ctx.toHost(c)[0], 6.0);
}

TEST(AsyncRuntime, ParallelPointExecutionEngages)
{
    DiffuseRuntime rt(rt::MachineConfig::withGpus(8),
                      asyncOpts(rt::ExecutionMode::Real, 4));
    num::Context ctx(rt);
    num::NDArray a = ctx.zeros(1024, 1.0);
    num::NDArray b = ctx.mulScalar(2.0, a);
    num::NDArray d = ctx.dot(b, b); // reduction also shards
    rt.flushWindow();
    // flushWindow() fenced d's chain, so sharded execution has
    // happened by the time the counter is read.
    EXPECT_DOUBLE_EQ(ctx.value(d), 4.0 * 1024.0);
    EXPECT_GT(rt.runtimeStats().tasksSharded, 0u);
}

// ---------------------------------------------------------------------
// Overlap-aware simulated time
// ---------------------------------------------------------------------

TEST(AsyncRuntime, AnalysisOverheadOverlapsExecution)
{
    DiffuseRuntime rt(rt::MachineConfig::withGpus(1),
                      asyncOpts(rt::ExecutionMode::Simulated));
    num::Context ctx(rt);
    const int chains = 16;
    std::vector<num::NDArray> arrays;
    for (int i = 0; i < chains; i++)
        arrays.push_back(ctx.zeros(1 << 14));
    for (int i = 0; i < chains; i++)
        arrays[std::size_t(i)] =
            ctx.mulScalar(2.0, arrays[std::size_t(i)]);
    rt.flushWindow();
    const rt::RuntimeStats &stats = rt.runtimeStats();
    double serialized =
        double(stats.indexTasks) * rt.machine().runtimeOverhead() +
        stats.busyTime;
    // The old synchronous pipeline accounted exactly `serialized`
    // seconds; the asynchronous stream hides dependence analysis
    // behind execution, so the critical path must beat it.
    EXPECT_GT(stats.simTime, 0.0);
    EXPECT_LT(stats.simTime, serialized);
    EXPECT_GT(stats.busyTime, 0.0);
}

TEST(AsyncRuntime, SimAndRealModesAccountIdenticalTime)
{
    auto run = [](rt::ExecutionMode mode) {
        DiffuseRuntime rt(rt::MachineConfig::withGpus(4),
                          asyncOpts(mode));
        num::Context ctx(rt);
        num::NDArray x = ctx.zeros(1024, 1.0);
        num::NDArray y = ctx.mulScalar(2.0, x);
        num::NDArray d = ctx.dot(y, y);
        (void)d;
        rt.flushWindow();
        return rt.runtimeStats().simTime;
    };
    EXPECT_DOUBLE_EQ(run(rt::ExecutionMode::Real),
                     run(rt::ExecutionMode::Simulated));
}

// ---------------------------------------------------------------------
// Worker-count determinism (the paper's reproducibility requirement:
// sharded execution must not perturb numerics)
// ---------------------------------------------------------------------

/** CG with a per-iteration residual history read-back. */
std::vector<double>
cgResidualHistory(int workers, int gpus, int iters,
                  std::vector<double> *x_out)
{
    DiffuseOptions o;
    o.mode = rt::ExecutionMode::Real;
    o.workers = workers;
    DiffuseRuntime rt(rt::MachineConfig::withGpus(gpus), o);
    num::Context np(rt);
    sp::SparseContext sp_ctx(np);

    sp::CsrMatrix a = sp_ctx.poisson2d(8, 8);
    num::NDArray b = np.random(64, 55);

    num::NDArray x = np.zeros(b.size());
    num::NDArray r = np.mulScalar(1.0, b);
    num::NDArray p = np.mulScalar(1.0, r);
    num::NDArray rsold = np.dot(r, r);

    std::vector<double> history;
    for (int it = 0; it < iters; it++) {
        num::NDArray ap = sp_ctx.spmv(a, p);
        num::NDArray pap = np.dot(p, ap);
        num::NDArray alpha = np.scalarDiv(rsold, pap);
        x = np.axpyS(x, alpha, p);
        r = np.axmyS(r, alpha, ap);
        num::NDArray rsnew = np.dot(r, r);
        num::NDArray beta = np.scalarDiv(rsnew, rsold);
        p = np.aypxS(p, beta, r);
        rsold = rsnew;
        history.push_back(np.value(rsold));
    }
    if (x_out)
        *x_out = np.toHost(x);
    return history;
}

TEST(Determinism, CgResidualHistoryIdenticalForAnyWorkerCount)
{
    std::vector<double> x1, x8;
    std::vector<double> h1 = cgResidualHistory(1, 4, 20, &x1);
    std::vector<double> h8 = cgResidualHistory(8, 4, 20, &x8);
    ASSERT_EQ(h1.size(), h8.size());
    for (std::size_t i = 0; i < h1.size(); i++)
        EXPECT_EQ(h1[i], h8[i]) << "iteration " << i;
    ASSERT_EQ(x1.size(), x8.size());
    for (std::size_t i = 0; i < x1.size(); i++)
        EXPECT_EQ(x1[i], x8[i]) << "element " << i;
    // Sanity: the solve actually converged.
    EXPECT_LT(h1.back(), h1.front());
}

TEST(Determinism, StencilGridIdenticalForAnyWorkerCount)
{
    auto run = [](int workers) {
        DiffuseOptions o;
        o.mode = rt::ExecutionMode::Real;
        o.workers = workers;
        DiffuseRuntime rt(rt::MachineConfig::withGpus(8), o);
        num::Context ctx(rt);
        apps::Stencil app(ctx, 64);
        for (int i = 0; i < 5; i++)
            app.step();
        return ctx.toHost(app.grid());
    };
    std::vector<double> g1 = run(1);
    std::vector<double> g8 = run(8);
    ASSERT_EQ(g1.size(), g8.size());
    for (std::size_t i = 0; i < g1.size(); i++)
        ASSERT_EQ(g1[i], g8[i]) << "element " << i;
}

} // namespace
} // namespace diffuse
