/**
 * @file
 * Work-stealing scheduler and cross-window pipelining tests.
 *
 * The first suite drives kir::WorkerPool directly: concurrent jobs
 * from different sessions must both execute in parallel (the
 * regression for the old one-job-at-a-time pool, whose busy-pool
 * fallback ran the losing caller 100% serial), and helpers must
 * acquire work by stealing. The second suite locks the determinism
 * contract: results and simulated schedules are bitwise-identical
 * across worker counts, steal-heavy chunk sizes, and
 * DIFFUSE_PIPELINE 0/1 — and a failure inside a pipelined window
 * still cancels dependents and latches the session with the root
 * cause at the next synchronizing read.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/env.h"
#include "core/diffuse.h"
#include "cunumeric/ndarray.h"
#include "kernel/exec.h"

namespace diffuse {
namespace {

using num::Context;
using num::NDArray;

/** Spin until `pred` holds, failing the test after ~10s. */
template <typename Pred>
bool
spinUntil(Pred &&pred)
{
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!pred()) {
        if (std::chrono::steady_clock::now() > deadline)
            return false;
        std::this_thread::yield();
    }
    return true;
}

// ---------------------------------------------------------------------
// WorkerPool: concurrent jobs and stealing
// ---------------------------------------------------------------------

TEST(Scheduler, ConcurrentJobsBothExecuteInParallel)
{
    // Two sessions submit jobs into one shared pool at the same time.
    // Each caller blocks inside its own first chunk until a helper
    // thread has executed a chunk of the *same* job: with the old
    // one-job-at-a-time pool the try_lock loser degraded to a fully
    // serial loop on the calling thread (helpers never touched its
    // job), so one of the two flags would never be set and this test
    // timed out.
    kir::WorkerPool pool(4);
    std::atomic<bool> helperTouched[2] = {{false}, {false}};
    std::atomic<bool> ok[2] = {{false}, {false}};
    std::vector<std::thread> callers;
    for (int j = 0; j < 2; j++) {
        callers.emplace_back([&, j] {
            pool.parallelForChunked(
                8, 1, 4, [&, j](int worker, coord_t begin, coord_t) {
                    if (worker != 0) {
                        helperTouched[j].store(true);
                    } else if (begin == 0) {
                        // The caller's first chunk parks until a
                        // helper proves it is serving this job too.
                        if (!spinUntil([&] {
                                return helperTouched[j].load();
                            }))
                            return; // ok[j] stays false
                    }
                });
            ok[j].store(helperTouched[j].load());
        });
    }
    for (std::thread &t : callers)
        t.join();
    EXPECT_TRUE(ok[0].load()) << "job 0 ran serially on its caller";
    EXPECT_TRUE(ok[1].load()) << "job 1 ran serially on its caller";
}

TEST(Scheduler, HelpersAcquireWorkByStealing)
{
    kir::WorkerPool pool(8);
    std::uint64_t steals0 = pool.steals();
    std::atomic<std::uint64_t> executed{0};
    pool.parallelForChunked(
        4096, 1, 8, [&](int worker, coord_t begin, coord_t end) {
            if (worker == 0 && begin == 0) {
                // Hold the caller inside item 0: the only way the
                // remaining items (parked in the caller's deque) get
                // executed promptly is a helper stealing them.
                (void)spinUntil(
                    [&] { return pool.steals() > steals0; });
            }
            executed.fetch_add(std::uint64_t(end - begin));
        });
    EXPECT_EQ(executed.load(), 4096u);
    EXPECT_GT(pool.steals(), steals0);
}

TEST(Scheduler, CallerThreadParticipates)
{
    // A pool with one thread target runs everything on the caller —
    // no handoff to a worker thread, no deadlock.
    kir::WorkerPool pool(1);
    std::atomic<std::uint64_t> sum{0};
    pool.parallelForChunked(100, 8, 1,
                            [&](int, coord_t begin, coord_t end) {
                                for (coord_t i = begin; i < end; i++)
                                    sum.fetch_add(std::uint64_t(i));
                            });
    EXPECT_EQ(sum.load(), 4950u);
}

TEST(Scheduler, JobErrorPropagatesToItsCaller)
{
    kir::WorkerPool pool(4);
    EXPECT_THROW(
        pool.parallelForChunked(1024, 1, 4,
                                [&](int, coord_t begin, coord_t) {
                                    if (begin == 512)
                                        throw std::runtime_error("x");
                                }),
        std::runtime_error);
    // The pool stays serviceable after a failed job.
    std::atomic<std::uint64_t> n{0};
    pool.parallelForChunked(64, 4, 4, [&](int, coord_t b, coord_t e) {
        n.fetch_add(std::uint64_t(e - b));
    });
    EXPECT_EQ(n.load(), 64u);
}

// ---------------------------------------------------------------------
// Determinism: workers x chunk x pipeline
// ---------------------------------------------------------------------

/** Scoped DIFFUSE_CHUNK override (0 = auto). */
struct ChunkGuard
{
    explicit ChunkGuard(int chunk)
    {
        if (chunk > 0)
            setenv("DIFFUSE_CHUNK", std::to_string(chunk).c_str(), 1);
        else
            unsetenv("DIFFUSE_CHUNK");
    }
    ~ChunkGuard() { unsetenv("DIFFUSE_CHUNK"); }
};

/** Vector length whose element-wise nests run inline at any worker
 * count: below the fan-out grain. */
constexpr coord_t kBelowGrain = 2048;
/** Vector length whose element-wise nests fan out over the pool:
 * twice the grain in elements, so even a copy nest spans two chunks. */
constexpr coord_t kAboveGrain = coord_t(2 * rt::LowRuntime::kFanOutGrain);

std::vector<double>
schedulerProgram(const DiffuseOptions &base, int chunk,
                 rt::StreamStats *stats_out = nullptr,
                 std::uint64_t *steals_out = nullptr,
                 coord_t n = kBelowGrain, int *spawned_out = nullptr)
{
    ChunkGuard guard(chunk);
    DiffuseOptions o = base;
    o.mode = rt::ExecutionMode::Real;
    DiffuseRuntime rt(rt::MachineConfig::withGpus(4), o);
    // Counting helper threads pins the default engine: an ambient
    // compile fault would degrade a task to the scalar oracle, which
    // shards whole points over the pool whatever their size.
    if (spawned_out)
        rt.low().faults().configure(1, 0, 0);
    Context ctx(rt);
    NDArray x = ctx.random(n, 0x5eed, -1.0, 1.0);
    NDArray y = ctx.random(n, 0xfeed, -1.0, 1.0);
    for (int i = 0; i < 4; i++) {
        NDArray t = ctx.axpy(x, 0.25 * (i + 1), y);
        ctx.assign(x, t);
        NDArray alpha = ctx.dot(x, y);
        NDArray u = ctx.axpyS(y, alpha, x);
        ctx.assign(y, u);
        rt.flushWindow();
    }
    std::vector<double> out = ctx.toHost(x);
    std::vector<double> yh = ctx.toHost(y);
    out.insert(out.end(), yh.begin(), yh.end());
    out.push_back(ctx.value(ctx.sum(y)));
    if (stats_out) {
        rt.low().fence(); // retire everything so counters are final
        *stats_out = rt.low().streamStats();
    }
    if (steals_out)
        *steals_out = rt.low().pool().steals();
    if (spawned_out)
        *spawned_out = rt.low().pool().threadsSpawned();
    return out;
}

/** The schedule-parity slice of StreamStats: everything that must be
 * bitwise-identical across DIFFUSE_PIPELINE 0/1 and chunk sizes.
 * fences, maxPendingSeen and retiredOutOfOrder legitimately differ —
 * they describe *when* retirement happened, not what was computed. */
void
expectScheduleParity(const rt::StreamStats &a, const rt::StreamStats &b,
                     const std::string &label)
{
    EXPECT_EQ(a.submitted, b.submitted) << label;
    EXPECT_EQ(a.retired, b.retired) << label;
    EXPECT_EQ(a.rawDeps, b.rawDeps) << label;
    EXPECT_EQ(a.warDeps, b.warDeps) << label;
    EXPECT_EQ(a.wawDeps, b.wawDeps) << label;
    EXPECT_EQ(a.tasksFailed, b.tasksFailed) << label;
    EXPECT_EQ(a.tasksCancelled, b.tasksCancelled) << label;
    // Bitwise, not approximate: the simulated schedule must be the
    // same double-for-double regardless of execution interleaving.
    EXPECT_EQ(a.criticalPathTime, b.criticalPathTime) << label;
    EXPECT_EQ(a.busyTime, b.busyTime) << label;
    EXPECT_EQ(a.collectiveTime, b.collectiveTime) << label;
}

TEST(Scheduler, ResultsAndSchedulesBitwiseAcrossWorkersChunkPipeline)
{
    struct Case
    {
        int workers;
        int chunk; // 0 = auto; 1 = steal-heavy
        int pipeline;
    };
    const Case reference{1, 0, 0};
    const Case cases[] = {
        {1, 0, 1}, {8, 0, 0}, {8, 0, 1},
        {8, 1, 0}, {8, 1, 1}, {1, 1, 1},
    };
    // Below the fan-out grain every nest runs inline at any worker
    // count; above it the default chunking fans out over the pool.
    for (coord_t n : {kBelowGrain, kAboveGrain}) {
        auto run = [n](const Case &c, rt::StreamStats *st,
                       std::uint64_t *steals) {
            DiffuseOptions o;
            o.workers = c.workers;
            o.pipeline = c.pipeline;
            return schedulerProgram(o, c.chunk, st, steals, n);
        };
        rt::StreamStats refStats;
        auto expect = run(reference, &refStats, nullptr);
        for (const Case &c : cases) {
            std::string label = "n " + std::to_string(n) + " workers " +
                                std::to_string(c.workers) + " chunk " +
                                std::to_string(c.chunk) + " pipeline " +
                                std::to_string(c.pipeline);
            rt::StreamStats st;
            std::uint64_t steals = 0;
            auto got = run(c, &st, &steals);
            ASSERT_EQ(got, expect) << label;
            expectScheduleParity(st, refStats, label);
            // Whether helpers actually stole here is a host-scheduling
            // race (on a loaded single-core runner the caller can
            // drain every chunk first); HelpersAcquireWorkByStealing
            // pins the steal path deterministically by parking the
            // caller.
            (void)steals;
        }
    }
}

TEST(Scheduler, NestsBelowTheGrainNeverReachThePool)
{
    // Each runtime here owns a private pool, which spawns its helper
    // threads lazily on the first job that can use them: a program
    // whose nests all stay below the fan-out grain must run inline
    // and spawn none, even at workers=8.
    DiffuseOptions o;
    o.workers = 8;
    o.pipeline = 0;
    int spawned = -1;
    schedulerProgram(o, 0, nullptr, nullptr, kBelowGrain, &spawned);
    EXPECT_EQ(spawned, 0);
    // Above the grain the same program hands chunks to helpers...
    schedulerProgram(o, 0, nullptr, nullptr, kAboveGrain, &spawned);
    EXPECT_GT(spawned, 0);
    // ...and DIFFUSE_CHUNK=1 fans out every nest, grain or not.
    schedulerProgram(o, 1, nullptr, nullptr, kBelowGrain, &spawned);
    EXPECT_GT(spawned, 0);
}

// ---------------------------------------------------------------------
// Pipelined failure semantics
// ---------------------------------------------------------------------

DiffuseOptions
pipelinedOpts()
{
    DiffuseOptions o;
    o.mode = rt::ExecutionMode::Real;
    o.pipeline = 1;
    o.fusionEnabled = false; // distinct tasks: dependents must cancel
    o.maxWindow = 1;
    return o;
}

TEST(Scheduler, PipelinedWindowFailureCancelsAndLatchesAtNextSync)
{
    DiffuseRuntime rt(rt::MachineConfig::withGpus(2), pipelinedOpts());
    Context ctx(rt);
    NDArray a = ctx.random(64, 0x1, -1.0, 1.0);
    (void)ctx.toHost(a); // materialize cleanly
    rt.low().faults().armOneShot(rt::FaultKind::Kernel, /*skip=*/0);
    NDArray t = ctx.add(a, a);   // faults at retirement
    NDArray u = ctx.mul(t, t);   // dependent: must cancel
    NDArray v = ctx.add(u, a);   // transitively dependent
    // The pipelined flush registers the epoch without draining it, so
    // the armed fault has not fired yet and nothing throws here.
    rt.flushWindow();
    EXPECT_FALSE(rt.failed());
    // The host read is the synchronizing point: the kernel fault
    // fires, dependents cancel, and the poison surfaces with the
    // original root cause attached.
    bool threw = false;
    try {
        (void)ctx.toHost(v);
    } catch (const DiffuseError &e) {
        threw = true;
        EXPECT_EQ(e.code(), ErrorCode::StorePoisoned);
        EXPECT_FALSE(e.error().originTask.empty());
    }
    ASSERT_TRUE(threw);
    EXPECT_TRUE(rt.failed());
    EXPECT_GT(rt.low().streamStats().tasksCancelled, 0u);
    // Recovery: the session unlatches and a clean pipelined rerun
    // matches a never-faulted reference bitwise.
    rt.resetAfterError();
    EXPECT_FALSE(rt.failed());
    NDArray t2 = ctx.add(a, a);
    NDArray u2 = ctx.mul(t2, t2);
    NDArray v2 = ctx.add(u2, a);
    rt.flushWindow();
    std::vector<double> got = ctx.toHost(v2);

    DiffuseRuntime ref(rt::MachineConfig::withGpus(2), pipelinedOpts());
    Context rctx(ref);
    NDArray ra = rctx.random(64, 0x1, -1.0, 1.0);
    NDArray rt1 = rctx.add(ra, ra);
    NDArray ru = rctx.mul(rt1, rt1);
    NDArray rv = rctx.add(ru, ra);
    ref.flushWindow();
    EXPECT_EQ(got, rctx.toHost(rv));
}

TEST(Scheduler, DestructorDrainsPipelinedEpochs)
{
    // A runtime destroyed with an epoch still in flight must fence it
    // out; the host-visible side effect (the buffers backing the
    // returned host copy) proves the work ran.
    std::vector<double> got;
    {
        DiffuseRuntime rt(rt::MachineConfig::withGpus(2),
                          pipelinedOpts());
        Context ctx(rt);
        NDArray a = ctx.zeros(64, 1.0);
        NDArray b = ctx.mulScalar(2.0, a);
        got = ctx.toHost(b);
        NDArray c = ctx.mulScalar(3.0, b);
        rt.flushWindow();
        (void)c; // still in flight when rt is destroyed
    }
    EXPECT_EQ(got, std::vector<double>(64, 2.0));
}

} // namespace
} // namespace diffuse
