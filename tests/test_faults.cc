/**
 * @file
 * Failure domains and the deterministic fault-injection harness.
 *
 * Every injected fault must land in exactly one of two buckets:
 *
 *  - it surfaces as a *structured* DiffuseError on the faulting
 *    session (root cause attached, session enters the failed state,
 *    resetAfterError() recovers, a clean re-run is bitwise-identical
 *    to a never-faulted run), or
 *  - it is transparently absorbed by the degradation ladder (trace →
 *    analyzed path, memory-budget eviction) with results
 *    bitwise-identical to the fault-free run.
 *
 * No fault kind may crash the process, corrupt a sibling session, or
 * poison a shared cache. The default run covers each kind once plus
 * the negative tests. The full fault-kind × workers 1/8 × ranks 1/4 ×
 * trace on/off × shared-cache on/off matrix is a disabled test that
 * the `faults_slow` ctest target (label `slow`, run by the sanitizer
 * CI jobs) enables with --gtest_also_run_disabled_tests.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "common/logging.h"
#include "core/context.h"
#include "core/memo.h"
#include "cunumeric/ndarray.h"
#include "runtime/fault.h"
#include "solvers/solvers.h"
#include "sparse/csr.h"

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
realOpts(int workers = 1, int ranks = 1, int trace = 1)
{
    DiffuseOptions o;
    o.mode = rt::ExecutionMode::Real;
    o.workers = workers;
    o.ranks = ranks;
    o.trace = trace;
    o.sharedCache = 1;
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
 * The canonical workload: a fixed solver-flavored loop body (axpy
 * chains, an aliasing slice write, a reduction fed back as a
 * coefficient, scalar read-backs), `reps` repetitions with a flush
 * each — enough compute tasks, exchange copies (at ranks > 1) and
 * repeated epochs (trace replay from rep 2) to give every fault kind
 * real opportunities.
 */
std::vector<std::vector<std::uint64_t>>
runBody(DiffuseRuntime &rt, int reps = 3)
{
    Context ctx(rt);
    const coord_t n = 48;
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

/** Reference result for a configuration: a never-faulted fresh run. */
std::vector<std::vector<std::uint64_t>>
cleanReference(const DiffuseOptions &o, int reps = 3)
{
    DiffuseRuntime rt(machine(), o);
    return runBody(rt, reps);
}

// ---------------------------------------------------------------------
// The injector itself: determinism, masking, armed shots
// ---------------------------------------------------------------------

TEST(Faults, InjectorIsDeterministicPerSeedAndRespectsKindMask)
{
    auto sample = [](std::uint64_t seed, unsigned mask) {
        rt::FaultInjector inj;
        inj.configure(seed, 500, mask); // 5%
        std::vector<bool> out;
        for (int i = 0; i < 400; i++)
            out.push_back(inj.shouldFault(rt::FaultKind::Kernel));
        return out;
    };
    const unsigned all = ~0u;
    auto a = sample(42, all);
    auto b = sample(42, all);
    EXPECT_EQ(a, b); // same seed, same decisions — always
    std::size_t fired = 0;
    for (bool f : a)
        fired += f ? 1u : 0u;
    EXPECT_GT(fired, 0u);
    EXPECT_LT(fired, 100u); // ~5% of 400, not a firehose

    // A mask without the sampled kind never fires.
    unsigned no_kernel = all & ~(1u << unsigned(rt::FaultKind::Kernel));
    for (bool f : sample(42, no_kernel))
        EXPECT_FALSE(f);
}

TEST(Faults, ArmedShotFiresExactlyTheRequestedBurst)
{
    rt::FaultInjector inj;
    EXPECT_FALSE(inj.enabled()); // off by default (rate 0)
    inj.armOneShot(rt::FaultKind::Alloc, /*skip=*/3, /*burst=*/2);
    EXPECT_TRUE(inj.enabled());
    std::vector<bool> got;
    for (int i = 0; i < 8; i++)
        got.push_back(inj.shouldFault(rt::FaultKind::Alloc));
    std::vector<bool> expect = {false, false, false, true,
                                true,  false, false, false};
    EXPECT_EQ(got, expect);
    EXPECT_EQ(inj.fired(), 2u);
    // Other kinds were never armed.
    EXPECT_FALSE(inj.shouldFault(rt::FaultKind::Exchange));
}

TEST(Faults, InjectorOffByDefaultAndFaultCountersZero)
{
    DiffuseRuntime rt(machine(), realOpts(8, 4));
    EXPECT_FALSE(rt.low().faults().enabled()); // off by default
    (void)runBody(rt);
    EXPECT_FALSE(rt.low().faults().enabled());
    EXPECT_EQ(rt.low().faults().fired(), 0u);
    EXPECT_EQ(rt.runtimeStats().storesPoisoned, 0u);
    EXPECT_EQ(rt.low().streamStats().tasksFailed, 0u);
    EXPECT_EQ(rt.low().streamStats().tasksCancelled, 0u);
    EXPECT_FALSE(rt.failed());
}

// ---------------------------------------------------------------------
// Hard failures: structured surfacing, poisoning, recovery
// ---------------------------------------------------------------------

TEST(Faults, KernelFaultSurfacesStructurallyAndRecoversBitwise)
{
    for (int workers : {1, 8}) {
        DiffuseOptions o = realOpts(workers);
        auto expect = cleanReference(o);
        DiffuseRuntime rt(machine(), o);
        rt.low().faults().armOneShot(rt::FaultKind::Kernel, /*skip=*/4);
        bool threw = false;
        try {
            (void)runBody(rt);
        } catch (const DiffuseError &e) {
            threw = true;
            EXPECT_EQ(e.code(), ErrorCode::KernelFault);
            EXPECT_FALSE(e.error().originTask.empty());
        }
        ASSERT_TRUE(threw) << "workers " << workers;
        EXPECT_TRUE(rt.failed());
        EXPECT_GT(rt.low().streamStats().tasksFailed, 0u);
        EXPECT_GT(rt.runtimeStats().storesPoisoned, 0u);

        // The failed state latches: further submissions are refused
        // with the root cause attached, not silently executed. (Store
        // creation alone submits nothing — fill does.)
        {
            Context ctx(rt);
            NDArray x = ctx.zeros(8);
            bool refused = false;
            try {
                ctx.fill(x, 1.0);
            } catch (const DiffuseError &e) {
                refused = true;
                EXPECT_EQ(e.code(), ErrorCode::SessionFailed);
                EXPECT_NE(e.error().message.find("kernel"),
                          std::string::npos);
            }
            EXPECT_TRUE(refused);
        }

        // Recovery: a clean re-run in the same runtime is
        // bitwise-identical to a never-faulted run.
        rt.resetAfterError();
        EXPECT_FALSE(rt.failed());
        EXPECT_EQ(runBody(rt), expect) << "workers " << workers;
    }
}

TEST(Faults, AllocFaultSurfacesStructurallyAndRecovers)
{
    auto expect = cleanReference(realOpts());
    DiffuseRuntime rt(machine(), realOpts());
    rt.low().faults().armOneShot(rt::FaultKind::Alloc, /*skip=*/0);
    bool threw = false;
    try {
        (void)runBody(rt);
    } catch (const DiffuseError &e) {
        threw = true;
        EXPECT_EQ(e.code(), ErrorCode::AllocFailed);
    }
    ASSERT_TRUE(threw);
    rt.resetAfterError();
    EXPECT_EQ(runBody(rt), expect);
}

TEST(Faults, CancellationPropagatesAlongHazardEdgesToTheRootCause)
{
    // An unfused RAW chain: the faulted task's dependents must be
    // cancelled (never run) and every error points at the root cause.
    // (An epoch left in flight by flushWindowAsync() is covered in
    // test_scheduler.cc.)
    DiffuseOptions o = realOpts();
    o.fusionEnabled = false;
    DiffuseRuntime rt(machine(), o);
    Context ctx(rt);
    NDArray a = ctx.random(32, 0x1, -1.0, 1.0);
    NDArray b = ctx.random(32, 0x2, -1.0, 1.0);
    rt.low().faults().armOneShot(rt::FaultKind::Kernel, /*skip=*/3);
    bool threw = false;
    try {
        for (int i = 0; i < 6; i++) {
            NDArray t = ctx.add(a, b);
            ctx.assign(a, t);
        }
        rt.flushWindow();
    } catch (const DiffuseError &e) {
        threw = true;
        // flushWindow surfaces the ROOT error, not a cancellation.
        EXPECT_EQ(e.code(), ErrorCode::KernelFault);
    }
    ASSERT_TRUE(threw);
    EXPECT_EQ(rt.low().streamStats().tasksFailed, 1u);
    EXPECT_GT(rt.low().streamStats().tasksCancelled, 0u);
    // Reading a poisoned store at the low level names the poison and
    // carries the root origin.
    EXPECT_TRUE(rt.low().storePoisoned(a.store()) ||
                rt.low().storePoisoned(b.store()));
}

TEST(Faults, PoisonedStoreReadSurfacesStorePoisoned)
{
    // The fault surfaces as KernelFault at the flush site, and the
    // poisoned store's read as StorePoisoned.
    DiffuseRuntime rt(machine(), realOpts());
    Context ctx(rt);
    NDArray a = ctx.random(32, 0x1, -1.0, 1.0);
    (void)ctx.toHost(a); // materialize cleanly
    rt.low().faults().armOneShot(rt::FaultKind::Kernel, /*skip=*/0);
    NDArray t = ctx.add(a, a);
    ctx.assign(a, t);
    EXPECT_THROW(rt.flushWindow(), DiffuseError);
    ASSERT_TRUE(rt.low().storePoisoned(a.store()));
    bool threw = false;
    try {
        (void)rt.low().dataF64(a.store());
    } catch (const DiffuseError &e) {
        threw = true;
        EXPECT_EQ(e.code(), ErrorCode::StorePoisoned);
        EXPECT_EQ(e.error().originStore, a.store());
        EXPECT_FALSE(e.error().originTask.empty());
    }
    EXPECT_TRUE(threw);
    rt.resetAfterError();
    EXPECT_FALSE(rt.low().storePoisoned(a.store()));
}

TEST(Faults, PersistentExchangeFaultSurfacesAndRecovers)
{
    DiffuseOptions o = realOpts(1, /*ranks=*/4);
    auto expect = cleanReference(o);
    DiffuseRuntime rt(machine(), o);
    // One armed opportunity: the first exchange Copy task fails the
    // first time the injector fires, like a failed compute task.
    rt.low().faults().armOneShot(rt::FaultKind::Exchange, /*skip=*/0);
    bool threw = false;
    try {
        (void)runBody(rt);
    } catch (const DiffuseError &e) {
        threw = true;
        EXPECT_EQ(e.code(), ErrorCode::ExchangeFault);
        EXPECT_NE(e.error().originStore, INVALID_STORE);
    }
    ASSERT_TRUE(threw);
    EXPECT_EQ(rt.low().faults().fired(), 1u);
    EXPECT_GT(rt.low().streamStats().tasksCancelled, 0u);
    EXPECT_TRUE(rt.failed());
    rt.resetAfterError();
    EXPECT_EQ(runBody(rt), expect);
}

// ---------------------------------------------------------------------
// A fault inside a replayed epoch
// ---------------------------------------------------------------------

/** A CG session at ranks 4: one solve is one epoch, replayed from the
 * third solve on. */
struct CgSession
{
    explicit CgSession(int trace)
        : rt(machine(), realOpts(1, /*ranks=*/4, trace)), np(rt), sp(np),
          sol(np, sp), a(sp.poisson2d(32, 32)),
          b(np.random(32 * 32, 0xFA, -1.0, 1.0))
    {}

    NDArray solve() { return sol.cg(a, b, 5); }

    DiffuseRuntime rt;
    Context np;
    sp::SparseContext sp;
    solvers::SolverContext sol;
    sp::CsrMatrix a;
    NDArray b;
};

/** The exchange opportunity halfway through the fourth solve. */
std::uint64_t
fourthSolveExchangeSkip()
{
    CgSession s(1);
    std::uint64_t copies[5] = {0, 0, 0, 0, 0};
    for (int i = 1; i <= 4; i++) {
        s.solve();
        s.rt.flushWindow();
        copies[i] = s.rt.runtimeStats().copyTasks;
    }
    EXPECT_EQ(copies[4] - copies[3], copies[3] - copies[2]);
    return copies[3] + (copies[4] - copies[3]) / 2;
}

/** Everything a fault leaves behind that the trace layer must not
 * change. */
struct FaultOutcome
{
    Error error;
    std::uint64_t tasksFailed = 0;
    std::uint64_t tasksCancelled = 0;
    std::vector<StoreId> poisoned;
    bool fourthSolvePoisoned = false;
    std::uint64_t replaysDuringFailure = 0;
    std::vector<std::vector<std::uint64_t>> rerun;

    bool
    operator==(const FaultOutcome &o) const
    {
        return error.code == o.error.code &&
               error.originTask == o.error.originTask &&
               error.originEvent == o.error.originEvent &&
               error.originStore == o.error.originStore &&
               tasksFailed == o.tasksFailed &&
               tasksCancelled == o.tasksCancelled &&
               poisoned == o.poisoned &&
               fourthSolvePoisoned == o.fourthSolvePoisoned &&
               rerun == o.rerun;
    }
};

FaultOutcome
exchangeFaultInFourthSolve(int trace, std::uint64_t skip)
{
    CgSession s(trace);
    FaultOutcome out;
    s.rt.low().faults().armOneShot(rt::FaultKind::Exchange, skip);
    std::vector<NDArray> xs;
    for (int i = 0; i < 4 && out.error.ok(); i++) {
        std::uint64_t replays = s.rt.fusionStats().traceEpochsReplayed;
        xs.push_back(s.solve());
        try {
            s.rt.flushWindow();
        } catch (const DiffuseError &e) {
            out.error = e.error();
            out.replaysDuringFailure =
                s.rt.fusionStats().traceEpochsReplayed - replays;
            EXPECT_EQ(i, 3) << "trace " << trace;
        }
    }
    out.tasksFailed = s.rt.low().streamStats().tasksFailed;
    out.tasksCancelled = s.rt.low().streamStats().tasksCancelled;
    // Every store the session still holds, by id (ids are assigned in
    // creation order, so both sides name the same stores).
    StoreId top = s.rt.createStore(Point(1));
    for (StoreId id = 1; id < top; id++) {
        if (s.rt.low().storePoisoned(id))
            out.poisoned.push_back(id);
    }
    s.rt.releaseApp(top);
    out.fourthSolvePoisoned = s.rt.low().storePoisoned(xs.back().store());

    s.rt.resetAfterError();
    for (int i = 0; i < 4; i++) {
        NDArray x = s.solve();
        out.rerun.push_back(bits(s.np.toHost(x)));
    }
    return out;
}

TEST(Faults, ExchangeFaultInReplayedEpochMatchesTheAnalyzedPath)
{
    // The shot fires in the fourth solve, a replayed epoch: the error,
    // its origin, the failed and cancelled counts and the poisoned
    // stores must be exactly those of the analyzed path, and recovery
    // must rerun bitwise.
    std::uint64_t skip = fourthSolveExchangeSkip();
    FaultOutcome off = exchangeFaultInFourthSolve(0, skip);
    FaultOutcome on = exchangeFaultInFourthSolve(1, skip);
    EXPECT_EQ(off.error.code, ErrorCode::ExchangeFault);
    EXPECT_NE(off.error.originEvent, 0u);
    EXPECT_NE(off.error.originStore, INVALID_STORE);
    EXPECT_EQ(off.tasksFailed, 1u);
    EXPECT_GT(off.tasksCancelled, 0u);
    EXPECT_TRUE(off.fourthSolvePoisoned);
    EXPECT_EQ(on.replaysDuringFailure, 1u);
    EXPECT_TRUE(on == off)
        << "trace 0: " << off.error.describe() << ", failed "
        << off.tasksFailed << ", cancelled " << off.tasksCancelled
        << ", poisoned " << off.poisoned.size() << "\ntrace 1: "
        << on.error.describe() << ", failed " << on.tasksFailed
        << ", cancelled " << on.tasksCancelled << ", poisoned "
        << on.poisoned.size();

    // The clean rerun after resetAfterError() is a never-faulted run.
    CgSession clean(1);
    std::vector<std::vector<std::uint64_t>> expect;
    for (int i = 0; i < 4; i++)
        expect.push_back(bits(clean.np.toHost(clean.solve())));
    EXPECT_EQ(on.rerun, expect);
}

TEST(Faults, ExchangeFaultInAsyncReplayedEpochPoisonsItsOutputs)
{
    // flushWindowAsync() leaves the replayed epoch in flight; the
    // fault fires when a low-level read of the solution retires the
    // tasks it depends on, and the read names the poison.
    std::uint64_t skip = fourthSolveExchangeSkip();
    for (int trace : {0, 1}) {
        CgSession s(trace);
        s.rt.low().faults().armOneShot(rt::FaultKind::Exchange, skip);
        for (int i = 0; i < 3; i++) {
            s.solve();
            s.rt.flushWindow();
        }
        NDArray x = s.solve();
        s.rt.flushWindowAsync();
        EXPECT_GT(s.rt.low().streamPending(), 0u) << "trace " << trace;
        bool threw = false;
        try {
            (void)s.rt.low().dataF64(x.store());
        } catch (const DiffuseError &e) {
            threw = true;
            EXPECT_EQ(e.code(), ErrorCode::StorePoisoned)
                << "trace " << trace;
        }
        EXPECT_TRUE(threw) << "trace " << trace;
        EXPECT_TRUE(s.rt.failed()) << "trace " << trace;
        EXPECT_EQ(s.rt.error().code, ErrorCode::ExchangeFault)
            << "trace " << trace;
        s.rt.resetAfterError();
    }
}

// ---------------------------------------------------------------------
// The degradation ladder: transparent, bitwise-invisible absorption
// ---------------------------------------------------------------------

TEST(Faults, TraceFaultFallsBackToTheAnalyzedPathBitwise)
{
    // Five repetitions: the first two capture (the second starts from
    // the state the first left behind), so the third is the first
    // repeat, which the armed fault aborts; the last two replay.
    const int reps = 5;
    auto expect = cleanReference(realOpts(1, 1, /*trace=*/1), reps);
    DiffuseRuntime rt(machine(), realOpts(1, 1, /*trace=*/1));
    rt.low().faults().armOneShot(rt::FaultKind::Trace, /*skip=*/0);
    EXPECT_EQ(runBody(rt, reps), expect);
    EXPECT_FALSE(rt.failed());
    // The poisoned replay aborted to the analyzed path and recaptured;
    // later epochs still replayed.
    EXPECT_GT(rt.fusionStats().traceAborts, 0u);
    EXPECT_GT(rt.fusionStats().traceEpochsReplayed, 0u);
}

// ---------------------------------------------------------------------
// Failure domains: siblings and shared caches are untouchable
// ---------------------------------------------------------------------

TEST(Faults, SessionFailureLeavesSiblingsAndSharedCachesBitwiseIntact)
{
    auto expect = cleanReference(realOpts());
    auto ctx = SharedContext::create(machine());
    auto victim = ctx->createSession(realOpts());
    auto sibling = ctx->createSession(realOpts());

    victim->low().faults().armOneShot(rt::FaultKind::Kernel, /*skip=*/6);
    EXPECT_THROW((void)runBody(*victim), DiffuseError);
    EXPECT_TRUE(victim->failed());

    // The sibling is bitwise-unaffected...
    EXPECT_EQ(runBody(*sibling), expect);
    EXPECT_FALSE(sibling->failed());

    // ...the shared caches admitted nothing broken: a fresh session
    // compiles nothing new and replays the sibling's epochs.
    int plans = ctx->compiler().stats().plansLowered;
    auto after = ctx->createSession(realOpts());
    EXPECT_EQ(runBody(*after), expect);
    EXPECT_EQ(ctx->compiler().stats().plansLowered, plans);
    EXPECT_GT(after->fusionStats().traceEpochsReplayed, 0u);

    // And the victim itself recovers in place.
    victim->resetAfterError();
    EXPECT_EQ(runBody(*victim), expect);
}

TEST(Faults, ConcurrentResetLeavesSiblingsIntact)
{
    // Three barrier-released sessions replaying the same epochs from
    // one shared context. A kernel fault on the victim — and the
    // victim's resetAfterError(), issued while the siblings' work is
    // still in flight — must not perturb the siblings at all, and the
    // recovered victim must rerun bitwise-clean.
    //
    // gtest assertions are not thread-safe: threads only compute and
    // record into atomics; all comparisons happen on main after join.
    DiffuseOptions o = realOpts(/*workers=*/4);
    auto expect = cleanReference(o);

    auto ctx = SharedContext::create(machine());
    auto victim = ctx->createSession(o);
    auto sib_a = ctx->createSession(o);
    auto sib_b = ctx->createSession(o);

    // Warm the trace cache so the concurrent round replays.
    EXPECT_EQ(runBody(*victim), expect);
    EXPECT_EQ(runBody(*sib_a), expect);
    EXPECT_EQ(runBody(*sib_b), expect);

    victim->low().faults().armOneShot(rt::FaultKind::Kernel, /*skip=*/6);

    std::barrier sync(3);
    std::atomic<bool> victim_threw{false};
    std::atomic<bool> victim_failed_before_reset{false};
    std::vector<std::vector<std::uint64_t>> victim_rerun;
    std::vector<std::vector<std::uint64_t>> got_a;
    std::vector<std::vector<std::uint64_t>> got_b;
    std::thread tv([&] {
        sync.arrive_and_wait();
        try {
            (void)runBody(*victim);
        } catch (const DiffuseError &) {
            victim_threw.store(true);
        }
        victim_failed_before_reset.store(victim->failed());
        // Reset immediately — concurrent with whatever the siblings
        // still have in flight — and rerun clean in place.
        victim->resetAfterError();
        victim_rerun = runBody(*victim);
    });
    std::thread ta([&] {
        sync.arrive_and_wait();
        got_a = runBody(*sib_a);
    });
    std::thread tb([&] {
        sync.arrive_and_wait();
        got_b = runBody(*sib_b);
    });
    tv.join();
    ta.join();
    tb.join();

    EXPECT_TRUE(victim_threw.load());
    EXPECT_TRUE(victim_failed_before_reset.load());
    EXPECT_FALSE(victim->failed());
    EXPECT_EQ(victim_rerun, expect);

    EXPECT_EQ(got_a, expect);
    EXPECT_EQ(got_b, expect);
    EXPECT_FALSE(sib_a->failed());
    EXPECT_FALSE(sib_b->failed());
    EXPECT_EQ(sib_a->runtimeStats().storesPoisoned, 0u);
    EXPECT_EQ(sib_b->runtimeStats().storesPoisoned, 0u);

    // The shared caches stayed clean through fault + reset: a fresh
    // session compiles nothing and replays the surviving epochs.
    int plans = ctx->compiler().stats().plansLowered;
    auto after = ctx->createSession(o);
    EXPECT_EQ(runBody(*after), expect);
    EXPECT_EQ(ctx->compiler().stats().plansLowered, plans);
    EXPECT_GT(after->fusionStats().traceEpochsReplayed, 0u);
}

TEST(Faults, MemoizerNeverCachesFailedBuildsAndNeverDeadlocks)
{
    Memoizer memo;
    int builds = 0;
    EXPECT_THROW(
        (void)memo.getOrBuild("key",
                              [&]() -> CachedGroup {
                                  builds++;
                                  throw DiffuseError(makeError(
                                      ErrorCode::InvalidArgument,
                                      "injected build failure"));
                              }),
        DiffuseError);
    // The failed build was not cached (the next build runs) and the
    // shard lock was released on unwind (the next call would deadlock
    // otherwise).
    const CachedGroup *g = memo.getOrBuild("key", [&]() {
        builds++;
        CachedGroup cg;
        cg.name = "rebuilt";
        return cg;
    });
    ASSERT_NE(g, nullptr);
    EXPECT_EQ(g->name, "rebuilt");
    EXPECT_EQ(builds, 2);
    // A hit now — the successful entry is served.
    EXPECT_EQ(memo.getOrBuild("key",
                              []() -> CachedGroup {
                                  ADD_FAILURE() << "cached entry lost";
                                  return {};
                              }),
              g);
}

// ---------------------------------------------------------------------
// Memory-budget pressure: evict the pool, then fail structurally
// ---------------------------------------------------------------------

TEST(Faults, MemBudgetEvictsPoolThenFailsStructurally)
{
    setenv("DIFFUSE_MEM_BUDGET", "1", 1); // 1 MB
    {
        DiffuseOptions o = realOpts();
        o.trace = 0;
        DiffuseRuntime rt(machine(), o);
        Context ctx(rt);
        // ~768 KB lives, then returns to the recycling pool.
        {
            NDArray a = ctx.zeros(98304, 1.0);
            (void)ctx.toHost(a);
        }
        rt.flushWindow();
        // A differently-sized ~776 KB allocation cannot pool-hit and
        // does not fit next to the pooled bytes: the pool is evicted
        // (warm pages are a luxury under pressure) and the allocation
        // then succeeds.
        NDArray b = ctx.zeros(97000, 2.0);
        (void)ctx.toHost(b);
        EXPECT_FALSE(rt.failed());
        EXPECT_GT(rt.runtimeStats().budgetEvictions, 0u);
        // A second large live allocation genuinely exceeds the budget:
        // a structured failure, not an OOM abort. A host-read-path
        // allocation failure throws directly — no task failed, nothing
        // is poisoned, so the session does NOT latch failed and work
        // on the stores that do fit simply continues.
        bool threw = false;
        try {
            NDArray c = ctx.zeros(98304, 3.0);
            (void)ctx.toHost(c);
        } catch (const DiffuseError &e) {
            threw = true;
            EXPECT_EQ(e.code(), ErrorCode::MemBudgetExceeded);
        }
        EXPECT_TRUE(threw);
        EXPECT_FALSE(rt.failed());
        EXPECT_EQ(ctx.toHost(b), std::vector<double>(97000, 2.0));
    }
    unsetenv("DIFFUSE_MEM_BUDGET");
}

// ---------------------------------------------------------------------
// Structured argument/lifetime errors
// ---------------------------------------------------------------------

TEST(Faults, DoubleDestroyIsAStructuredStoreError)
{
    StoreTable t;
    t.add(7, Rect::fromShape(Point(coord_t(4))), DType::F64);
    EXPECT_TRUE(t.releaseApp(7));
    bool threw = false;
    try {
        (void)t.releaseApp(7);
    } catch (const DiffuseError &e) {
        threw = true;
        EXPECT_EQ(e.code(), ErrorCode::StoreError);
        EXPECT_EQ(e.error().originStore, StoreId(7));
    }
    EXPECT_TRUE(threw);

    // The runtime layer likewise: destroying an unknown store is a
    // structured error, not an assert.
    DiffuseRuntime rt(machine(), realOpts());
    EXPECT_THROW(rt.low().destroyStore(StoreId(9999)), DiffuseError);
}

TEST(Faults, HostAccessorShapeAndDtypeErrorsAreStructured)
{
    DiffuseRuntime rt(machine(), realOpts());
    Context ctx(rt);
    NDArray a = ctx.zeros(8, 1.0);
    bool threw = false;
    try {
        rt.writeStoreF64(a.store(), std::vector<double>(3, 0.0));
    } catch (const DiffuseError &e) {
        threw = true;
        EXPECT_EQ(e.code(), ErrorCode::InvalidArgument);
    }
    EXPECT_TRUE(threw);
    // The session is NOT failed by an argument error: the submission
    // never happened, so work continues.
    EXPECT_FALSE(rt.failed());
    EXPECT_EQ(ctx.toHost(a), std::vector<double>(8, 1.0));
}

TEST(Faults, SimulatedHostAccessorsThrowStoreError)
{
    // Simulated mode materializes no allocation: every typed accessor
    // refuses structurally rather than handing out a null pointer.
    DiffuseOptions o = realOpts();
    o.mode = rt::ExecutionMode::Simulated;
    DiffuseRuntime rt(machine(), o);
    auto code_of = [&](auto access, DType dtype) {
        StoreId id = rt.createStore(Point(coord_t(4)), dtype);
        try {
            (void)(rt.low().*access)(id);
        } catch (const DiffuseError &e) {
            return e.code();
        }
        return ErrorCode::None;
    };
    EXPECT_EQ(code_of(&rt::LowRuntime::dataF64, DType::F64),
              ErrorCode::StoreError);
    EXPECT_EQ(code_of(&rt::LowRuntime::dataI32, DType::I32),
              ErrorCode::StoreError);
    EXPECT_EQ(code_of(&rt::LowRuntime::dataI64, DType::I64),
              ErrorCode::StoreError);
}

TEST(Faults, WarnIsRateLimitedAndThreadSafe)
{
    std::uint64_t calls0 = warnCallCount();
    std::uint64_t emits0 = warnEmitCount();
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; t++) {
        threads.emplace_back([] {
            for (int i = 0; i < 500; i++)
                diffuse_warn("fault-suite warn flood (iteration %d)", i);
        });
    }
    for (std::thread &th : threads)
        th.join();
    EXPECT_EQ(warnCallCount() - calls0, 2000u);
    // First 8 occurrences emit, then only power-of-two counts: a hot
    // loop cannot flood stderr.
    std::uint64_t emitted = warnEmitCount() - emits0;
    EXPECT_GE(emitted, 8u);
    EXPECT_LE(emitted, 32u);
}

TEST(Faults, WarnRateLimiterIsSessionScoped)
{
    // The limiter key is (call site, session id): one session's storm
    // at a site must not swallow another session's *first* warning
    // from the same site.
    for (int i = 0; i < 200; i++)
        diffuse_warn_session(101, "session-scoped warn probe %d", i);
    std::uint64_t mid = warnEmitCount();
    diffuse_warn_session(102, "session-scoped warn probe %d", 0);
    EXPECT_EQ(warnEmitCount() - mid, 1u)
        << "a fresh session's first warning was rate-limited away";
    // Session 101's own bucket stays thinned: 200 calls emitted the
    // first 8 plus the power-of-two counts (16, 32, 64, 128) only.
    std::uint64_t before = warnEmitCount();
    diffuse_warn_session(101, "session-scoped warn probe %d", 0);
    EXPECT_EQ(warnEmitCount() - before, 0u);
}

TEST(Faults, ResetAfterErrorRewindsFaultOpportunityCounters)
{
    // An ambient fault rate is a deterministic function of (seed,
    // opportunity index). resetAfterError() must rewind the per-kind
    // opportunity counters so a rerun of the same program replays the
    // same fault schedule — without the rewind the second run starts
    // mid-sequence and fails somewhere else (or not at all), making
    // post-recovery behavior irreproducible.
    const unsigned kernelOnly = 1u << unsigned(rt::FaultKind::Kernel);
    bool exercised = false;
    for (std::uint64_t seed = 1; seed <= 64 && !exercised; seed++) {
        DiffuseRuntime rt(machine(), realOpts());
        rt.low().faults().configure(seed, /*ratePermyriad=*/300,
                                    kernelOnly);
        // (code, root-cause task) identifies the fault point; stream
        // event ids keep counting across the reset and so would
        // differ between the runs even with an identical schedule.
        auto faultPoint = [&]() -> std::string {
            try {
                (void)runBody(rt);
            } catch (const DiffuseError &e) {
                return std::to_string(int(e.code())) + ":" +
                       e.error().originTask;
            }
            return "";
        };
        std::string first = faultPoint();
        if (first.empty())
            continue; // this seed never fires within the body
        exercised = true;
        rt.resetAfterError();
        EXPECT_FALSE(rt.failed());
        EXPECT_EQ(first, faultPoint())
            << "seed " << seed
            << ": rerun after reset diverged from the first run's "
               "fault schedule";
    }
    ASSERT_TRUE(exercised) << "no seed in [1,64] fired a kernel fault";
}

// ---------------------------------------------------------------------
// The full matrix: every kind × workers × ranks × trace × shared-cache
// ---------------------------------------------------------------------

struct MatrixConfig
{
    rt::FaultKind kind;
    int workers;
    int ranks;
    int trace;
    int shared;

    std::string
    label() const
    {
        return std::string(rt::faultKindName(kind)) + "/w" +
               std::to_string(workers) + "/r" + std::to_string(ranks) +
               "/t" + std::to_string(trace) + "/s" +
               std::to_string(shared);
    }
};

/**
 * Run the body with `kind` armed in `rt`. Returns true if a structured
 * error surfaced (after verifying the session latched failed); the
 * caller then resets and re-runs. Transparent degradations return
 * false with `got` holding the results.
 */
bool
runFaulted(DiffuseRuntime &rt, rt::FaultKind kind,
           std::vector<std::vector<std::uint64_t>> *got)
{
    rt.low().faults().armOneShot(kind, /*skip=*/3, /*burst=*/8);
    try {
        *got = runBody(rt);
    } catch (const DiffuseError &e) {
        EXPECT_TRUE(rt.failed());
        EXPECT_FALSE(rt.error().message.empty());
        EXPECT_NE(e.code(), ErrorCode::None);
        return true;
    }
    EXPECT_FALSE(rt.failed());
    return false;
}

void
runMatrixCase(const MatrixConfig &m)
{
    SCOPED_TRACE(m.label());
    DiffuseOptions o = realOpts(m.workers, m.ranks, m.trace);
    o.sharedCache = m.shared;
    auto expect = cleanReference(o);

    auto ctx = SharedContext::create(machine());
    auto victim = ctx->createSession(o);
    auto sibling = ctx->createSession(o);

    std::vector<std::vector<std::uint64_t>> got;
    if (runFaulted(*victim, m.kind, &got)) {
        victim->resetAfterError();
        // Disarm the remaining burst before the clean re-run.
        victim->low().faults().configure(1, 0, ~0u);
        EXPECT_EQ(runBody(*victim), expect);
    } else {
        // Transparently degraded (trace), or the kind had no
        // opportunity in this configuration (exchange at ranks=1):
        // bitwise.
        EXPECT_EQ(got, expect);
    }
    // Whatever happened in the victim, the sibling is bitwise-clean.
    EXPECT_EQ(runBody(*sibling), expect);
    EXPECT_FALSE(sibling->failed());
}

TEST(Faults, MatrixSmokeEveryKindUnderTheProductionConfig)
{
    for (rt::FaultKind kind :
         {rt::FaultKind::Alloc, rt::FaultKind::Kernel,
          rt::FaultKind::Exchange, rt::FaultKind::Trace}) {
        runMatrixCase({kind, 8, 4, 1, 1});
    }
}

TEST(Faults, DISABLED_FullMatrixEveryKindEveryConfig)
{
    for (rt::FaultKind kind :
         {rt::FaultKind::Alloc, rt::FaultKind::Kernel,
          rt::FaultKind::Exchange, rt::FaultKind::Trace}) {
        for (int workers : {1, 8}) {
            for (int ranks : {1, 4}) {
                for (int trace : {0, 1}) {
                    for (int shared : {0, 1}) {
                        runMatrixCase(
                            {kind, workers, ranks, trace, shared});
                    }
                }
            }
        }
    }
}

} // namespace
} // namespace diffuse
