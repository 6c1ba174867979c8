/**
 * @file
 * Worker-pool scheduler and asynchronous flush tests.
 *
 * The first suite drives kir::WorkerPool directly: concurrent jobs
 * from different sessions must both execute in parallel (the
 * regression for the old one-job-at-a-time pool, whose busy-pool
 * fallback ran the losing caller 100% serial), helpers must claim
 * chunks while the caller is busy, and every item of concurrent jobs
 * runs exactly once, with steals() counting the chunks helpers
 * claimed. The second suite locks the determinism contract: results
 * and simulated schedules are bitwise-identical across worker counts,
 * chunk sizes down to one item, and the draining vs asynchronous
 * flush. The third locks flushWindowAsync()'s contract: at most one
 * epoch in flight, retired by the next submit() at the latest, and a
 * failure inside it still cancels dependents and latches the session
 * with the root cause at the next synchronizing point.
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
// WorkerPool: concurrent jobs and chunk claiming
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

TEST(Scheduler, HelpersClaimChunksWhileCallerIsParked)
{
    kir::WorkerPool pool(8);
    std::uint64_t steals0 = pool.steals();
    std::atomic<std::uint64_t> executed{0};
    pool.parallelForChunked(
        4096, 1, 8, [&](int worker, coord_t begin, coord_t end) {
            if (worker == 0 && begin == 0) {
                // Hold the caller inside item 0: the remaining items
                // only run while it is parked if a helper claims them.
                (void)spinUntil(
                    [&] { return pool.steals() > steals0; });
            }
            executed.fetch_add(std::uint64_t(end - begin));
        });
    EXPECT_EQ(executed.load(), 4096u);
    EXPECT_GT(pool.steals(), steals0);
}

TEST(Scheduler, ConcurrentJobsRunEveryItemExactlyOnce)
{
    // Three callers share one 4-thread pool, each with a range that is
    // not a multiple of the chunk, so every job ends on a short chunk.
    constexpr coord_t kItems = 1000;
    constexpr coord_t kChunk = 7;
    constexpr int kJobs = 3;
    kir::WorkerPool pool(4);
    std::vector<std::atomic<int>> hits(std::size_t(kJobs * kItems));
    std::atomic<std::uint64_t> chunks{0};
    std::atomic<std::uint64_t> helperChunks{0};
    std::uint64_t steals0 = pool.steals();
    std::vector<std::thread> callers;
    for (int j = 0; j < kJobs; j++) {
        callers.emplace_back([&, j] {
            pool.parallelForChunked(
                kItems, kChunk, 4,
                [&, j](int worker, coord_t begin, coord_t end) {
                    EXPECT_LE(end - begin, kChunk);
                    chunks.fetch_add(1);
                    if (worker != 0)
                        helperChunks.fetch_add(1);
                    for (coord_t i = begin; i < end; i++)
                        hits[std::size_t(j * kItems + i)].fetch_add(1);
                });
        });
    }
    for (std::thread &t : callers)
        t.join();
    for (std::size_t i = 0; i < hits.size(); i++)
        ASSERT_EQ(hits[i].load(), 1) << "job " << i / kItems << " item "
                                     << i % kItems;
    // One callback per claimed chunk, and steals() counts exactly the
    // chunks helper slots claimed.
    EXPECT_EQ(chunks.load(),
              std::uint64_t(kJobs * ((kItems + kChunk - 1) / kChunk)));
    EXPECT_EQ(pool.steals() - steals0, helperChunks.load());
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
// Determinism: workers x chunk, draining vs asynchronous flush
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

/** What one run of schedulerProgram computed and how it ran. */
struct ProgramRun
{
    std::vector<double> values;
    /** Final: every task has retired. */
    rt::StreamStats stream;
    std::uint64_t epochsReplayed = 0;
    /** Helper threads the pool spawned (-1 unless counted). */
    int spawned = -1;
};

/**
 * Four solver-like iterations, each closed by a flush: flushWindow(),
 * or flushWindowAsync() when `async` is set. With `count_spawned` the
 * run records the helper threads the pool spawned.
 */
ProgramRun
schedulerProgram(const DiffuseOptions &base, int chunk,
                 coord_t n = kBelowGrain, bool async = false,
                 bool count_spawned = false)
{
    ChunkGuard guard(chunk);
    DiffuseOptions o = base;
    o.mode = rt::ExecutionMode::Real;
    DiffuseRuntime rt(rt::MachineConfig::withGpus(4), o);
    Context ctx(rt);
    NDArray x = ctx.random(n, 0x5eed, -1.0, 1.0);
    NDArray y = ctx.random(n, 0xfeed, -1.0, 1.0);
    for (int i = 0; i < 4; i++) {
        NDArray t = ctx.axpy(x, 0.25 * (i + 1), y);
        ctx.assign(x, t);
        NDArray alpha = ctx.dot(x, y);
        NDArray u = ctx.axpyS(y, alpha, x);
        ctx.assign(y, u);
        if (async)
            rt.flushWindowAsync();
        else
            rt.flushWindow();
    }
    ProgramRun run;
    run.values = ctx.toHost(x);
    std::vector<double> yh = ctx.toHost(y);
    run.values.insert(run.values.end(), yh.begin(), yh.end());
    run.values.push_back(ctx.value(ctx.sum(y)));
    rt.low().fence(); // retire everything so counters are final
    run.stream = rt.low().streamStats();
    run.epochsReplayed = rt.fusionStats().traceEpochsReplayed;
    if (count_spawned)
        run.spawned = rt.low().pool().threadsSpawned();
    return run;
}

/**
 * StreamStats must be identical across worker counts, chunk sizes
 * and the flush variant: the hazard graph, the simulated schedule,
 * and when and in what order tasks retire. Fences count only those
 * that retire work, so an epoch that flushWindowAsync() leaves to the
 * next host read's fence counts the same as one fenced at its flush.
 */
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
    EXPECT_EQ(a.fences, b.fences) << label;
    EXPECT_EQ(a.maxPendingSeen, b.maxPendingSeen) << label;
    EXPECT_EQ(a.retiredOutOfOrder, b.retiredOutOfOrder) << label;
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
        int chunk; // 0 = auto; 1 = one item per claim
        bool async;
    };
    const Case reference{1, 0, false};
    const Case cases[] = {
        {8, 0, false},
        {8, 1, false},
        {1, 1, false},
        // The asynchronous flush over one-item chunks:
        // each epoch retires in the next iteration's first submit.
        {8, 1, true},
    };
    // Below the fan-out grain every nest runs inline at any worker
    // count; above it the default chunking fans out over the pool.
    // Whether helpers actually claim a chunk is a host-scheduling race
    // (on a loaded single-core runner the caller can drain every chunk
    // first); HelpersClaimChunksWhileCallerIsParked pins that path.
    for (coord_t n : {kBelowGrain, kAboveGrain}) {
        auto run = [n](const Case &c) {
            DiffuseOptions o;
            o.workers = c.workers;
            return schedulerProgram(o, c.chunk, n, c.async);
        };
        const ProgramRun ref = run(reference);
        for (const Case &c : cases) {
            std::string label = "n " + std::to_string(n) + " workers " +
                                std::to_string(c.workers) + " chunk " +
                                std::to_string(c.chunk) +
                                (c.async ? " async" : "");
            const ProgramRun got = run(c);
            ASSERT_EQ(got.values, ref.values) << label;
            expectScheduleParity(got.stream, ref.stream, label);
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
    EXPECT_EQ(schedulerProgram(o, 0, kBelowGrain, false, true).spawned,
              0);
    // Above the grain the same program hands chunks to helpers...
    EXPECT_GT(schedulerProgram(o, 0, kAboveGrain, false, true).spawned,
              0);
    // ...and DIFFUSE_CHUNK=1 fans out every nest, grain or not.
    EXPECT_GT(schedulerProgram(o, 1, kBelowGrain, false, true).spawned,
              0);
}

// ---------------------------------------------------------------------
// flushWindowAsync: one epoch in flight
// ---------------------------------------------------------------------

/** Unfused, window of one, one rank: each submit() lowers its task
 * into the stream at once, with no exchange copies, so the stream's
 * counters show exactly which task retired when. */
DiffuseOptions
asyncOpts()
{
    DiffuseOptions o;
    o.mode = rt::ExecutionMode::Real;
    o.fusionEnabled = false; // distinct tasks: dependents must cancel
    o.maxWindow = 1;
    o.ranks = 1;
    return o;
}

TEST(Scheduler, AsyncFlushKeepsOneEpochInFlight)
{
    {
        // The next submit() retires the in-flight epoch before it
        // buffers anything. Tracing off: the new task reaches the
        // stream in the same call instead of being deferred.
        DiffuseOptions o = asyncOpts();
        o.trace = 0;
        DiffuseRuntime rt(rt::MachineConfig::withGpus(2), o);
        Context ctx(rt);
        NDArray a = ctx.random(64, 0x1, -1.0, 1.0);
        NDArray b = ctx.mulScalar(2.0, a);
        NDArray c = ctx.add(b, a);
        rt.flushWindowAsync();
        const rt::StreamStats &st = rt.low().streamStats();
        ASSERT_EQ(rt.low().streamPending(), 2u);
        const std::uint64_t retired = st.retired;
        const std::uint64_t fences = st.fences;
        NDArray d = ctx.mulScalar(3.0, c);
        // One fence retired exactly the old epoch; d's task, submitted
        // after it, is the only one pending.
        EXPECT_EQ(st.fences, fences + 1);
        EXPECT_EQ(st.retired, retired + 2);
        EXPECT_EQ(rt.low().streamPending(), 1u);
        EXPECT_EQ(st.maxPendingSeen, 2u);
        std::vector<double> ah = ctx.toHost(a);
        std::vector<double> dh = ctx.toHost(d);
        for (std::size_t i = 0; i < ah.size(); i++)
            EXPECT_EQ(dh[i], 3.0 * (2.0 * ah[i] + ah[i])) << i;
    }
    {
        // A kernel fault in the in-flight epoch latches there, and the
        // submit is refused naming the root-cause task.
        DiffuseRuntime rt(rt::MachineConfig::withGpus(2), asyncOpts());
        Context ctx(rt);
        NDArray a = ctx.random(64, 0x1, -1.0, 1.0);
        rt.low().faults().armOneShot(rt::FaultKind::Kernel, /*skip=*/0);
        NDArray t = ctx.add(a, a); // faults at retirement
        NDArray u = ctx.mul(t, t); // dependent: cancelled
        rt.flushWindowAsync();
        EXPECT_FALSE(rt.failed());
        bool refused = false;
        try {
            NDArray v = ctx.mulScalar(2.0, u);
        } catch (const DiffuseError &e) {
            refused = true;
            EXPECT_EQ(e.code(), ErrorCode::SessionFailed);
            EXPECT_EQ(e.error().originTask, "add");
            EXPECT_NE(e.error().message.find("KernelFault"),
                      std::string::npos);
        }
        ASSERT_TRUE(refused);
        EXPECT_EQ(rt.error().code, ErrorCode::KernelFault);
        EXPECT_EQ(rt.error().originTask, "add");
        EXPECT_EQ(rt.low().streamStats().tasksFailed, 1u);
        EXPECT_EQ(rt.low().streamStats().tasksCancelled, 1u);
        EXPECT_EQ(rt.low().streamPending(), 0u);
    }
    {
        // Replayed epochs that follow an asynchronous flush match the
        // draining path bitwise, with the same dep-kind counts and
        // simulated schedule.
        DiffuseOptions o;
        o.trace = 1;
        const ProgramRun drained = schedulerProgram(o, 0);
        const ProgramRun async = schedulerProgram(o, 0, kBelowGrain, true);
        EXPECT_GT(async.epochsReplayed, 0u);
        EXPECT_EQ(async.epochsReplayed, drained.epochsReplayed);
        EXPECT_EQ(async.values, drained.values);
        EXPECT_EQ(async.stream.rawDeps, drained.stream.rawDeps);
        EXPECT_EQ(async.stream.warDeps, drained.stream.warDeps);
        EXPECT_EQ(async.stream.wawDeps, drained.stream.wawDeps);
        EXPECT_EQ(async.stream.criticalPathTime,
                  drained.stream.criticalPathTime);
        EXPECT_EQ(async.stream.busyTime, drained.stream.busyTime);
    }
}

// ---------------------------------------------------------------------
// Failure semantics of an epoch left in flight
// ---------------------------------------------------------------------

TEST(Scheduler, PipelinedWindowFailureCancelsAndLatchesAtNextSync)
{
    // "Pipelined": the epoch flushWindowAsync() leaves in flight.
    DiffuseRuntime rt(rt::MachineConfig::withGpus(2), asyncOpts());
    Context ctx(rt);
    NDArray a = ctx.random(64, 0x1, -1.0, 1.0);
    (void)ctx.toHost(a); // materialize cleanly
    rt.low().faults().armOneShot(rt::FaultKind::Kernel, /*skip=*/0);
    NDArray t = ctx.add(a, a);   // faults at retirement
    NDArray u = ctx.mul(t, t);   // dependent: must cancel
    NDArray v = ctx.add(u, a);   // transitively dependent
    // The asynchronous flush submits the epoch without draining it,
    // so the armed fault has not fired yet and nothing throws here.
    rt.flushWindowAsync();
    EXPECT_FALSE(rt.failed());
    // The host read of v is the synchronizing point: it retires v's
    // chain, the kernel fault fires, dependents cancel, and the
    // poison surfaces with the original root cause attached.
    bool threw = false;
    try {
        (void)rt.low().dataF64(v.store());
    } catch (const DiffuseError &e) {
        threw = true;
        EXPECT_EQ(e.code(), ErrorCode::StorePoisoned);
        EXPECT_FALSE(e.error().originTask.empty());
    }
    ASSERT_TRUE(threw);
    EXPECT_TRUE(rt.failed());
    EXPECT_GT(rt.low().streamStats().tasksCancelled, 0u);
    // Recovery: the session unlatches and a clean asynchronous rerun
    // matches a never-faulted draining reference bitwise.
    rt.resetAfterError();
    EXPECT_FALSE(rt.failed());
    NDArray t2 = ctx.add(a, a);
    NDArray u2 = ctx.mul(t2, t2);
    NDArray v2 = ctx.add(u2, a);
    rt.flushWindowAsync();
    std::vector<double> got = ctx.toHost(v2);

    DiffuseRuntime ref(rt::MachineConfig::withGpus(2), asyncOpts());
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
    // A runtime destroyed with the epoch of flushWindowAsync() still
    // in flight must fence it out; the host-visible side effect (the
    // buffers backing the returned host copy) proves the work ran.
    std::vector<double> got;
    {
        DiffuseRuntime rt(rt::MachineConfig::withGpus(2), asyncOpts());
        Context ctx(rt);
        NDArray a = ctx.zeros(64, 1.0);
        NDArray b = ctx.mulScalar(2.0, a);
        got = ctx.toHost(b);
        NDArray c = ctx.mulScalar(3.0, b);
        rt.flushWindowAsync();
        (void)c; // still in flight when rt is destroyed
    }
    EXPECT_EQ(got, std::vector<double>(64, 2.0));
}

} // namespace
} // namespace diffuse
