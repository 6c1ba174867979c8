/**
 * @file
 * The session/serving layer (core/context.h): sessions created from
 * one SharedContext share the compiled-kernel, memoized-plan and
 * trace-epoch caches plus a single lazily-started worker pool, and
 * still behave bit-for-bit like isolated runtimes.
 *
 *  - a second session running the identical window stream lowers
 *    zero plans and replays the shared trace wholesale;
 *  - fusion/runtime statistics stay per-session while the
 *    cache-population counters are process-wide, also while several
 *    sessions replay the same epochs concurrently;
 *  - a counter reset inside an epoch one session captures changes
 *    nothing another session's replays of it count;
 *  - a session replays a program while the session that captured it
 *    still retires it;
 *  - `sharedCache = 0` (the DIFFUSE_SHARED_CACHE opt-out) hands out
 *    fully isolated sessions;
 *  - tearing a session down mid-flight leaves the shared caches
 *    usable;
 *  - 100 sessions share one worker pool, and the pool spawns no
 *    threads until parallel work actually runs (lazy start);
 *  - a serving loop that rebuilds the same operator every request
 *    stops planning, lowering and capturing after the first request:
 *    image ids name content, equal in every session of a context and
 *    distinct for different structure, also when interned
 *    concurrently.
 */

#include <gtest/gtest.h>

#include <array>
#include <barrier>
#include <cstdint>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "core/context.h"
#include "cunumeric/ndarray.h"
#include "solvers/solvers.h"
#include "sparse/csr.h"
#include "stats_parity.h"

namespace diffuse {
namespace {

using num::Context;
using num::NDArray;

rt::MachineConfig
machine()
{
    return rt::MachineConfig::withGpus(4);
}

DiffuseOptions
realOpts(int workers = 1)
{
    DiffuseOptions o;
    o.mode = rt::ExecutionMode::Real;
    o.workers = workers;
    // This suite tests the shared-cache and trace machinery itself:
    // pin both on so the DIFFUSE_SHARED_CACHE=0 / DIFFUSE_TRACE=0
    // environment matrices (which disable them as oracles) cannot
    // invert what is under test.
    o.sharedCache = 1;
    o.trace = 1;
    return o;
}

std::vector<std::uint64_t>
bits(const std::vector<double> &v)
{
    std::vector<std::uint64_t> out(v.size());
    std::memcpy(out.data(), v.data(), v.size() * sizeof(double));
    return out;
}

/**
 * The canonical serving workload: the same fixed solver-flavored loop
 * body every client session submits (axpy chains, an aliasing slice
 * write, a reduction fed back as a coefficient, scalar read-backs),
 * three repetitions with a flush each — enough to populate and then
 * replay the trace cache within one session, and entirely across
 * sessions.
 */
std::vector<std::vector<std::uint64_t>>
runServingBody(DiffuseRuntime &rt, int reps = 3, coord_t n = 48)
{
    Context ctx(rt);
    NDArray a = ctx.random(n, 0xA11CE, -1.0, 1.0);
    NDArray b = ctx.random(n, 0xB0B, -1.0, 1.0);
    for (int rep = 0; rep < reps; rep++) {
        NDArray t = ctx.add(a, b);
        ctx.assign(a, t);
        NDArray alpha = ctx.dot(a, b);
        NDArray u = ctx.axpyS(a, alpha, b);
        ctx.assign(b, u);
        ctx.assign(a.slice(1, n), b.slice(0, n - 1));
        NDArray v = ctx.mulScalar(0.5, ctx.erf(a));
        ctx.assign(a, v);
        (void)ctx.value(ctx.sum(b));
        rt.flushWindow();
    }
    return {bits(ctx.toHost(a)), bits(ctx.toHost(b))};
}

TEST(Sessions, SecondSessionLowersZeroPlansAndReplaysSharedTrace)
{
    // Isolated single-client reference.
    std::vector<std::vector<std::uint64_t>> expect;
    {
        DiffuseRuntime iso(machine(), realOpts());
        expect = runServingBody(iso);
    }

    auto ctx = SharedContext::create(machine());
    auto s1 = ctx->createSession(realOpts());
    auto r1 = runServingBody(*s1);
    EXPECT_EQ(r1, expect);

    int plans = ctx->compiler().stats().plansLowered;
    std::uint64_t misses = ctx->memo().stats().misses;
    std::uint64_t captured = s1->fusionStats().traceEpochsCaptured;
    EXPECT_GT(plans, 0);
    EXPECT_GT(captured, 0u);

    // The second session's identical window stream: bitwise-identical
    // results, zero plans lowered, zero memo misses, every epoch
    // replayed from the cache the first session populated — nothing
    // new captured.
    auto s2 = ctx->createSession(realOpts());
    auto r2 = runServingBody(*s2);
    EXPECT_EQ(r2, expect);
    EXPECT_EQ(ctx->compiler().stats().plansLowered, plans);
    EXPECT_EQ(ctx->memo().stats().misses, misses);
    EXPECT_GT(s2->fusionStats().traceEpochsReplayed, 0u);
    EXPECT_EQ(s2->fusionStats().traceEpochsCaptured, 0u);
}

TEST(Sessions, EachUniqueKernelLowersExactlyOnceAcrossEightSessions)
{
    auto ctx = SharedContext::create(machine());
    auto first = ctx->createSession(realOpts());
    auto expect = runServingBody(*first);
    int plans = ctx->compiler().stats().plansLowered;
    for (int s = 0; s < 7; s++) {
        auto session = ctx->createSession(realOpts());
        EXPECT_EQ(runServingBody(*session), expect);
    }
    // Steady state compiles each unique kernel exactly once
    // process-wide, regardless of session count.
    EXPECT_EQ(ctx->compiler().stats().plansLowered, plans);
    EXPECT_EQ(ctx->sessionsCreated(), 8u);
}

TEST(Sessions, StatsStayPerSessionWhileCacheCountersAreProcessWide)
{
    auto ctx = SharedContext::create(machine());
    auto s1 = ctx->createSession(realOpts());
    auto s2 = ctx->createSession(realOpts());
    runServingBody(*s1);
    std::uint64_t misses_after_s1 = ctx->memo().stats().misses;
    runServingBody(*s2);

    // Per-session: each session counted its own window activity, and
    // the warm session's fusion outcome is identical to the cold one.
    EXPECT_EQ(s1->fusionStats().tasksSubmitted,
              s2->fusionStats().tasksSubmitted);
    EXPECT_EQ(s1->fusionStats().flushes, s2->fusionStats().flushes);
    EXPECT_EQ(s1->fusionStats().groupsLaunched,
              s2->fusionStats().groupsLaunched);
    EXPECT_EQ(s1->fusionStats().fusedGroups,
              s2->fusionStats().fusedGroups);
    EXPECT_EQ(s1->runtimeStats().simTime, s2->runtimeStats().simTime);

    // Process-wide: both sessions read the *same* cache counters
    // (the accessors resolve to the shared context), and the second
    // session's run never missed.
    EXPECT_EQ(&s1->memoStats(), &s2->memoStats());
    EXPECT_EQ(s1->context(), s2->context());
    EXPECT_EQ(ctx->memo().stats().misses, misses_after_s1);
}

TEST(Sessions, StatsResetDuringCaptureKeepsReplaysExact)
{
    // Session A resets its counters between two operations of its
    // second iteration, an epoch it captures; session B then replays
    // that epoch's program from the shared cache. A replayed op counts
    // from the op itself, so the reset changes nothing B counts: with
    // trace on and off every counter of each session is the same, and
    // B's equal a lone session's.
    auto body = [](DiffuseRuntime &rt, bool reset) {
        Context ctx(rt);
        NDArray x = ctx.random(64, 11);
        NDArray y = ctx.random(64, 12);
        for (int i = 0; i < 6; i++) {
            NDArray t = ctx.add(x, y);
            if (reset && i == 1)
                rt.runtimeStats().reset();
            NDArray w = ctx.mul(t, t);
            (void)ctx.value(ctx.sum(w));
        }
    };
    auto opts = [](int trace) {
        DiffuseOptions o = realOpts();
        o.fusionEnabled = false;
        o.trace = trace;
        return o;
    };
    rt::RuntimeStats a[2], b[2];
    for (int trace : {0, 1}) {
        auto ctx = SharedContext::create(machine());
        auto sa = ctx->createSession(opts(trace));
        auto sb = ctx->createSession(opts(trace));
        body(*sa, true);
        body(*sb, false);
        a[trace] = sa->runtimeStats();
        b[trace] = sb->runtimeStats();
        if (trace == 1) {
            EXPECT_GT(sa->fusionStats().traceEpochsCaptured, 0u);
            EXPECT_GT(sb->fusionStats().traceEpochsReplayed, 0u);
        }
    }
    DiffuseRuntime lone(machine(), opts(1));
    body(lone, false);

    expectRuntimeStatsEqual(a[1], a[0]);
    expectRuntimeStatsEqual(b[1], b[0]);
    expectRuntimeStatsEqual(b[1], lone.runtimeStats());
    EXPECT_EQ(b[1].indexTasks, 18u);
}

/** The per-session numbers a shared session must attribute exactly as
 * an isolated one does (the trace capture/replay split differs between
 * the first and later sessions of a warm context, so it stays out). */
struct SessionNumbers
{
    double simTime = 0.0;
    double busyTime = 0.0;
    std::uint64_t tasksSharded = 0;
    std::uint64_t tasksSubmitted = 0;
    std::uint64_t flushes = 0;
    std::uint64_t groupsLaunched = 0;
    std::uint64_t fusedGroups = 0;

    bool operator==(const SessionNumbers &) const = default;
};

SessionNumbers
numbersOf(DiffuseRuntime &rt)
{
    SessionNumbers n;
    n.simTime = rt.runtimeStats().simTime;
    n.busyTime = rt.runtimeStats().busyTime;
    n.tasksSharded = rt.runtimeStats().tasksSharded;
    n.tasksSubmitted = rt.fusionStats().tasksSubmitted;
    n.flushes = rt.fusionStats().flushes;
    n.groupsLaunched = rt.fusionStats().groupsLaunched;
    n.fusedGroups = rt.fusionStats().fusedGroups;
    return n;
}

TEST(Sessions, ConcurrentReplayKeepsPerSessionStatsEqualToIsolated)
{
    // Warm sessions of one context replay the same shared epochs from
    // barrier-released threads, every round. Each session's results
    // and its own schedule clocks, sharding and fusion counters must
    // equal an isolated session that ran the identical lifetime: no
    // stat leaks between sessions that share caches and a pool.
    //
    // gtest assertions are not thread-safe: threads only compute; all
    // comparisons happen on main after join.
    const int kSessions = 4;
    const int kRounds = 4;
    const coord_t kPoints = 1 << 14;
    using Results = std::vector<std::vector<std::uint64_t>>;

    Results expect;
    SessionNumbers expect_numbers;
    {
        DiffuseRuntime iso(machine(), realOpts(4));
        expect = runServingBody(iso, 3, kPoints);
        for (int round = 0; round < kRounds; round++)
            EXPECT_EQ(runServingBody(iso, 3, kPoints), expect);
        expect_numbers = numbersOf(iso);
    }
    EXPECT_GT(expect_numbers.tasksSharded, 0u);

    auto ctx = SharedContext::create(machine());
    std::vector<std::unique_ptr<DiffuseRuntime>> sessions;
    std::vector<Results> warm(static_cast<std::size_t>(kSessions));
    for (int i = 0; i < kSessions; i++) {
        // Warm sequentially: session 0 captures the epochs, the rest
        // already replay — every concurrent round below is pure replay.
        sessions.push_back(ctx->createSession(realOpts(4)));
        warm[std::size_t(i)] =
            runServingBody(*sessions.back(), 3, kPoints);
    }

    std::barrier sync(kSessions);
    std::vector<std::vector<Results>> got(
        static_cast<std::size_t>(kSessions));
    std::vector<std::thread> threads;
    for (int i = 0; i < kSessions; i++) {
        threads.emplace_back([&, i] {
            for (int round = 0; round < kRounds; round++) {
                sync.arrive_and_wait();
                got[std::size_t(i)].push_back(
                    runServingBody(*sessions[std::size_t(i)], 3, kPoints));
            }
        });
    }
    for (std::thread &t : threads)
        t.join();

    for (int i = 0; i < kSessions; i++) {
        DiffuseRuntime &session = *sessions[std::size_t(i)];
        EXPECT_EQ(warm[std::size_t(i)], expect) << "session " << i;
        ASSERT_EQ(got[std::size_t(i)].size(), std::size_t(kRounds));
        for (int round = 0; round < kRounds; round++)
            EXPECT_EQ(got[std::size_t(i)][std::size_t(round)], expect)
                << "session " << i << " round " << round;
        EXPECT_EQ(numbersOf(session), expect_numbers) << "session " << i;
        EXPECT_GT(session.fusionStats().traceEpochsReplayed, 0u)
            << "session " << i;
    }
}

TEST(Sessions, ConcurrentReplayWhileTheCapturingSessionRetires)
{
    // Session A captures an epoch longer than the stream's 256-op
    // in-flight window and leaves it in flight (flushWindowAsync()):
    // the program it published is the one its stream still retires.
    // Session B replays that program on another thread while A fences
    // it. Both only read the program, so both results equal an
    // isolated run.
    //
    // gtest assertions are not thread-safe: threads only compute; all
    // comparisons happen on main after join.
    const int kOps = 400;
    const coord_t kPoints = 1 << 14;
    DiffuseOptions o = realOpts(2);
    o.fusionEnabled = false; // one stream op per task
    struct Request
    {
        NDArray x, y;
    };
    auto inputs = [&](Context &c) {
        return Request{c.random(kPoints, 0x5eed, -1.0, 1.0),
                       c.random(kPoints, 0xbeef, -1.0, 1.0)};
    };
    // One epoch of kOps elementwise tasks, nothing read back.
    auto chain = [&](Context &c, Request &r) {
        for (int i = 0; i < kOps; i++) {
            if (i % 2 == 0)
                r.x = c.add(r.x, r.y);
            else
                r.y = c.mulScalar(0.5, r.x);
        }
    };

    std::vector<std::uint64_t> expect;
    {
        DiffuseRuntime iso(machine(), o);
        Context c(iso);
        Request r = inputs(c);
        chain(c, r);
        expect = bits(c.toHost(r.x));
    }

    auto ctx = SharedContext::create(machine());
    auto a = ctx->createSession(o);
    auto b = ctx->createSession(o);
    Context ca(*a);
    Request ra = inputs(ca);
    chain(ca, ra);
    a->flushWindowAsync();
    EXPECT_EQ(a->fusionStats().traceEpochsCaptured, 1u);
    EXPECT_GT(a->low().streamStats().retired, 0u); // overflowed
    EXPECT_GT(a->low().streamPending(), 0u);       // still in flight

    std::vector<std::uint64_t> got_a, got_b;
    std::barrier sync(2);
    std::thread fence_a([&] {
        sync.arrive_and_wait();
        got_a = bits(ca.toHost(ra.x));
    });
    std::thread replay_b([&] {
        Context cb(*b);
        Request rb = inputs(cb);
        chain(cb, rb); // speculates against A's epoch
        sync.arrive_and_wait();
        b->flushWindow(); // replays A's program
        got_b = bits(cb.toHost(rb.x));
    });
    fence_a.join();
    replay_b.join();

    EXPECT_EQ(got_a, expect);
    EXPECT_EQ(got_b, expect);
    EXPECT_GE(b->fusionStats().traceEpochsReplayed, 1u);
    EXPECT_EQ(b->fusionStats().traceEpochsCaptured, 0u);
}

TEST(Sessions, SharedCacheOptOutIsolatesBitForBit)
{
    auto ctx = SharedContext::create(machine());
    auto warm = ctx->createSession(realOpts());
    auto expect = runServingBody(*warm);
    int plans = ctx->compiler().stats().plansLowered;
    std::size_t epochs = ctx->traceCache().entries();

    // Opted out: the session gets a private context — identical
    // results, its compilation invisible to the shared counters.
    DiffuseOptions o = realOpts();
    o.sharedCache = 0;
    auto iso = ctx->createSession(o);
    EXPECT_NE(iso->context(), ctx);
    EXPECT_EQ(runServingBody(*iso), expect);
    EXPECT_EQ(ctx->compiler().stats().plansLowered, plans);
    EXPECT_EQ(ctx->traceCache().entries(), epochs);
    EXPECT_GT(iso->compilerStats().plansLowered, 0);
    EXPECT_EQ(iso->fusionStats().traceEpochsReplayed +
                  iso->fusionStats().traceEpochsCaptured,
              warm->fusionStats().traceEpochsReplayed +
                  warm->fusionStats().traceEpochsCaptured);

    // The environment kill switch does the same for sessions that
    // leave the option at its default.
    DiffuseOptions dflt = realOpts();
    dflt.sharedCache = -1; // defer to DIFFUSE_SHARED_CACHE
    setenv("DIFFUSE_SHARED_CACHE", "0", 1);
    auto env_iso = ctx->createSession(dflt);
    unsetenv("DIFFUSE_SHARED_CACHE");
    EXPECT_NE(env_iso->context(), ctx);
    EXPECT_EQ(runServingBody(*env_iso), expect);
    EXPECT_EQ(ctx->compiler().stats().plansLowered, plans);
}

TEST(Sessions, TeardownMidFlightLeavesSharedCachesUsable)
{
    auto ctx = SharedContext::create(machine());
    std::vector<std::vector<std::uint64_t>> expect;
    {
        auto warm = ctx->createSession(realOpts());
        expect = runServingBody(*warm);
    }
    std::size_t epochs = ctx->traceCache().entries();

    {
        // A client that hangs up mid-stream: flushed windows, then
        // submissions left unflushed in the window (and in-flight in
        // the stream) when the session is destroyed.
        auto dying = ctx->createSession(realOpts());
        Context c(*dying);
        NDArray a = c.random(48, 0xDEAD, -1.0, 1.0);
        NDArray b = c.random(48, 0xBEEF, -1.0, 1.0);
        NDArray t = c.add(a, b);
        c.assign(a, t);
        dying->flushWindow();
        // Unflushed tail — never reaches the stream.
        NDArray u = c.mul(a, b);
        c.assign(b, u);
    }

    // The shared caches took no damage: a fresh session replays the
    // warm epochs and compiles nothing (the dying session's own,
    // different window legitimately added plans of its own — snapshot
    // after its teardown).
    int plans = ctx->compiler().stats().plansLowered;
    auto after = ctx->createSession(realOpts());
    EXPECT_EQ(runServingBody(*after), expect);
    EXPECT_EQ(ctx->compiler().stats().plansLowered, plans);
    EXPECT_GE(ctx->traceCache().entries(), epochs);
    EXPECT_GT(after->fusionStats().traceEpochsReplayed, 0u);
}

TEST(Sessions, HundredSessionsShareOneLazilyStartedPool)
{
    int base = kir::WorkerPool::liveThreads();
    auto ctx = SharedContext::create(machine());
    std::vector<std::unique_ptr<DiffuseRuntime>> sessions;
    for (int i = 0; i < 100; i++)
        sessions.push_back(ctx->createSession(realOpts(4)));

    // Every session multiplexes onto the context's one pool (100
    // sessions + the context itself hold it) — and creating them
    // spawned no threads at all: the pool starts lazily.
    EXPECT_GE(ctx->pool().use_count(), 101);
    EXPECT_EQ(ctx->pool()->workers(), 4);
    EXPECT_EQ(ctx->pool()->threadsSpawned(), 0);
    EXPECT_EQ(kir::WorkerPool::liveThreads(), base);

    // Parallel work in several sessions starts at most one pool's
    // worth of threads (workers - 1), not one pool per session.
    for (int i = 0; i < 8; i++) {
        Context c(*sessions[std::size_t(i)]);
        NDArray a = c.random(4096, 0x9001 + std::uint64_t(i));
        NDArray b = c.mulScalar(2.0, a);
        (void)c.toHost(b);
    }
    EXPECT_LE(kir::WorkerPool::liveThreads() - base, 3);
    EXPECT_LE(ctx->pool()->threadsSpawned(), 3);
}

TEST(Sessions, IsolatedRuntimesKeepLazyPrivatePools)
{
    int base = kir::WorkerPool::liveThreads();
    // A directly-constructed runtime has a private pool — but still a
    // lazy one: Simulated mode and workers=1 never spawn.
    DiffuseRuntime sim(machine(), DiffuseOptions());
    DiffuseRuntime one(machine(), realOpts(1));
    Context c(one);
    NDArray a = c.random(256, 0x1);
    (void)c.toHost(c.addScalar(a, 1.0));
    EXPECT_EQ(kir::WorkerPool::liveThreads(), base);
}

// ---------------------------------------------------------------------
// Serving requests that rebuild their operator (image identity)
// ---------------------------------------------------------------------

/** A session's library stack, built once per session as a server
 * does: registration order is part of every cache key. */
struct Libraries
{
    explicit Libraries(DiffuseRuntime &rt) : np(rt), sp(np), sol(np, sp)
    {}

    Context np;
    sp::SparseContext sp;
    solvers::SolverContext sol;
};

std::uint64_t
bitsOf(double v)
{
    std::uint64_t out;
    std::memcpy(&out, &v, sizeof(out));
    return out;
}

/**
 * One CG request as perfbench's serving_mix issues it: build the
 * operator, solve, read the residual back (the only flush that is not
 * a solver iteration's), drop everything. Returns the residual's bits.
 */
std::uint64_t
cgRequest(Libraries &lib, coord_t nx, coord_t ny,
          std::array<ImageId, 3> *ids = nullptr)
{
    sp::CsrMatrix a = lib.sp.poisson2d(nx, ny);
    if (ids)
        *ids = a.imageIds();
    NDArray b = lib.np.random(nx * ny, 0x5eed, -1.0, 1.0);
    NDArray x = lib.sol.cg(a, b, 10);
    return bitsOf(
        lib.np.value(lib.np.norm2Sq(lib.np.sub(b, lib.sp.spmv(a, x)))));
}

TEST(Sessions, RepeatedRebuiltRequestConvergesAfterTheFirst)
{
    // One session serves the identical CG request 300 times and
    // rebuilds its operator every time. The rebuilt operator interns
    // to the same image ids, and the previous request's releases stay
    // out of the next one's epochs, so from the second request on
    // nothing is planned, lowered or captured and every flush
    // replays.
    const int kRequests = 300;

    struct Counts
    {
        std::uint64_t memoEntries = 0;
        int plans = 0;
        std::size_t traceEntries = 0;
        std::uint64_t flushes = 0;
        std::uint64_t replays = 0;
        std::uint64_t captured = 0;
    };

    auto ctx = SharedContext::create(machine());
    auto session = ctx->createSession(realOpts());
    Libraries lib(*session);
    auto counts = [&] {
        Counts c;
        c.memoEntries = ctx->memo().stats().entries.load();
        c.plans = ctx->compiler().stats().plansLowered;
        c.traceEntries = ctx->traceCache().entries();
        c.flushes = session->fusionStats().flushes;
        c.replays = session->fusionStats().traceEpochsReplayed;
        c.captured = session->fusionStats().traceEpochsCaptured;
        return c;
    };

    std::vector<std::uint64_t> got;
    got.push_back(cgRequest(lib, 16, 16));
    const Counts first = counts();
    EXPECT_GT(first.memoEntries, 0u);
    EXPECT_GT(first.captured, 0u);
    int drifted = 0, first_drift = -1;
    for (int i = 1; i < kRequests; i++) {
        Counts before = counts();
        got.push_back(cgRequest(lib, 16, 16));
        Counts after = counts();
        bool steady = after.memoEntries == first.memoEntries &&
                      after.plans == first.plans &&
                      after.traceEntries == first.traceEntries &&
                      after.captured == first.captured &&
                      after.flushes > before.flushes &&
                      after.replays - before.replays ==
                          after.flushes - before.flushes;
        if (!steady && drifted++ == 0)
            first_drift = i + 1;
    }
    EXPECT_EQ(drifted, 0) << "first request off the steady state: "
                          << first_drift;
    Counts last = counts();
    EXPECT_EQ(last.memoEntries, first.memoEntries);
    EXPECT_EQ(last.traceEntries, first.traceEntries);
    EXPECT_EQ(ctx->images().size(), 3u);

    // Both oracles see the identical request stream.
    for (int oracle : {0, 1}) {
        DiffuseOptions o = realOpts();
        (oracle == 0 ? o.trace : o.sharedCache) = 0;
        auto ref = ctx->createSession(o);
        Libraries ref_lib(*ref);
        for (int i = 0; i < kRequests; i++) {
            ASSERT_EQ(cgRequest(ref_lib, 16, 16), got[std::size_t(i)])
                << (oracle == 0 ? "trace = 0" : "sharedCache = 0")
                << ", request " << i + 1;
        }
    }
}

TEST(Sessions, ImageIdsNameContentAcrossSessions)
{
    for (int ranks : {1, 4}) {
        DiffuseOptions o = realOpts();
        o.ranks = ranks;
        auto isolated = [&](coord_t nx, coord_t ny) {
            DiffuseRuntime iso(machine(), o);
            Libraries lib(iso);
            return cgRequest(lib, nx, ny);
        };

        // Same rows and nonzeros, different structure: the row-pointer
        // windows agree (equal content, equal id), the nonzero ranges
        // and gathered-x bounds do not — and neither session may see
        // the other's pieces.
        auto ctx = SharedContext::create(machine());
        auto s1 = ctx->createSession(o);
        auto s2 = ctx->createSession(o);
        Libraries lib1(*s1), lib2(*s2);
        std::array<ImageId, 3> wide{}, tall{};
        EXPECT_EQ(cgRequest(lib1, 8, 32, &wide), isolated(8, 32))
            << "ranks " << ranks;
        EXPECT_EQ(cgRequest(lib2, 32, 8, &tall), isolated(32, 8))
            << "ranks " << ranks;
        EXPECT_EQ(wide[0], tall[0]);
        EXPECT_NE(wide[1], tall[1]);
        EXPECT_NE(wide[2], tall[2]);
        EXPECT_EQ(ctx->images().size(), 5u);

        // Equal operators in two sessions: the same ids, and the
        // second session finds everything cached.
        std::array<ImageId, 3> first{}, second{};
        std::uint64_t expect = isolated(16, 16);
        EXPECT_EQ(cgRequest(lib1, 16, 16, &first), expect);
        int plans = ctx->compiler().stats().plansLowered;
        std::uint64_t captured = s2->fusionStats().traceEpochsCaptured;
        EXPECT_EQ(cgRequest(lib2, 16, 16, &second), expect);
        EXPECT_EQ(first, second);
        EXPECT_EQ(ctx->compiler().stats().plansLowered, plans);
        EXPECT_EQ(s2->fusionStats().traceEpochsCaptured, captured);
    }
}

TEST(Sessions, ConcurrentInterningAgreesOnIds)
{
    // Three sessions intern the same operator and one of their own at
    // once. Ids must agree exactly where content does, the table must
    // hold each distinct image once, and every result must match its
    // isolated reference. (ThreadSanitizer covers the table here.)
    //
    // gtest assertions are not thread-safe: threads only compute and
    // record; all comparisons happen on main after join.
    const int kThreads = 3;
    const coord_t own[kThreads][2] = {{8, 32}, {32, 8}, {12, 24}};

    std::vector<std::uint64_t> expect_same, expect_own;
    std::size_t distinct = 0;
    {
        DiffuseRuntime iso(machine(), realOpts());
        Libraries lib(iso);
        std::uint64_t same = cgRequest(lib, 16, 16);
        for (int t = 0; t < kThreads; t++) {
            expect_same.push_back(same);
            expect_own.push_back(cgRequest(lib, own[t][0], own[t][1]));
        }
        distinct = iso.context()->images().size();
    }

    auto ctx = SharedContext::create(machine());
    std::vector<std::unique_ptr<DiffuseRuntime>> sessions;
    for (int t = 0; t < kThreads; t++)
        sessions.push_back(ctx->createSession(realOpts()));
    std::barrier sync(kThreads);
    std::vector<std::uint64_t> got_same(kThreads), got_own(kThreads);
    std::vector<std::array<ImageId, 3>> ids_same(kThreads),
        ids_own(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; t++) {
        threads.emplace_back([&, t] {
            std::size_t i = std::size_t(t);
            Libraries lib(*sessions[i]);
            sync.arrive_and_wait();
            // Half the threads intern the shared operator first.
            if (t % 2 == 0)
                got_same[i] = cgRequest(lib, 16, 16, &ids_same[i]);
            got_own[i] = cgRequest(lib, own[t][0], own[t][1], &ids_own[i]);
            if (t % 2 != 0)
                got_same[i] = cgRequest(lib, 16, 16, &ids_same[i]);
        });
    }
    for (std::thread &t : threads)
        t.join();

    EXPECT_EQ(got_same, expect_same);
    EXPECT_EQ(got_own, expect_own);
    for (int t = 1; t < kThreads; t++) {
        EXPECT_EQ(ids_same[std::size_t(t)], ids_same[0]) << "thread " << t;
        EXPECT_NE(ids_own[std::size_t(t)], ids_own[0]) << "thread " << t;
    }
    EXPECT_EQ(ctx->images().size(), distinct);
}

} // namespace
} // namespace diffuse
