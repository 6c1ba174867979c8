/**
 * @file
 * Trace-memoized window replay (core/trace.h): steady-state windows
 * must replay without touching the planner, bit-identically to the
 * analyzed path (`DiffuseOptions::trace = 0` is the differential
 * oracle), with exact stats and simulated-time parity; shape changes,
 * store destruction, liveness changes and host writes must invalidate
 * rather than corrupt. An epoch belongs to its own request: retains
 * and releases of stores it has not seen stay out of its code stream.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "apps/apps.h"
#include "core/trace.h"
#include "cunumeric/ndarray.h"
#include "solvers/solvers.h"
#include "sparse/csr.h"
#include "stats_parity.h"

namespace diffuse {
namespace {

using num::Context;
using num::NDArray;

DiffuseOptions
realOpts(int trace, int ranks = 1)
{
    DiffuseOptions o;
    o.mode = rt::ExecutionMode::Real;
    o.trace = trace;
    o.ranks = ranks;
    return o;
}

std::vector<std::uint64_t>
bits(const std::vector<double> &v)
{
    std::vector<std::uint64_t> out(v.size());
    std::memcpy(out.data(), v.data(), v.size() * sizeof(double));
    return out;
}

/** An iterative body with fused chains, a reduction read back as a
 * scalar (mid-iteration flush), per-iteration temporaries and an
 * aliasing slice write — several epochs per iteration. */
std::vector<double>
solverishIteration(DiffuseRuntime &rt, Context &ctx, NDArray &x,
                   NDArray &y)
{
    NDArray t = ctx.mulScalar(2.0, x);
    NDArray w = ctx.add(y, t);
    NDArray v = ctx.mul(w, w);
    double nrm = ctx.value(ctx.sum(v)); // flush: epoch boundary
    const coord_t n = x.shape()[0];
    NDArray scaled = ctx.mulScalar(1.0 / (1.0 + nrm), v);
    ctx.assign(x.slice(1, n), scaled.slice(0, n - 1));
    rt.flushWindow();
    return ctx.toHost(x);
}

/**
 * The fusion decisions — and the runtime accounting, including the
 * simulated schedule — of a traced run ([1]) are exactly those of the
 * analyzed path ([0]).
 */
void
expectStatsParity(const FusionStats (&fstats)[2],
                  const rt::RuntimeStats (&rstats)[2])
{
    EXPECT_EQ(fstats[0].tasksSubmitted, fstats[1].tasksSubmitted);
    EXPECT_EQ(fstats[0].groupsLaunched, fstats[1].groupsLaunched);
    EXPECT_EQ(fstats[0].fusedGroups, fstats[1].fusedGroups);
    EXPECT_EQ(fstats[0].singleTasks, fstats[1].singleTasks);
    EXPECT_EQ(fstats[0].tempsEliminated, fstats[1].tempsEliminated);
    EXPECT_EQ(fstats[0].flushes, fstats[1].flushes);
    EXPECT_EQ(fstats[0].windowSize, fstats[1].windowSize);
    EXPECT_EQ(fstats[0].windowGrowths, fstats[1].windowGrowths);
    EXPECT_EQ(fstats[0].blocks, fstats[1].blocks);
    expectRuntimeStatsEqual(rstats[0], rstats[1]);
}

TEST(TraceReplay, SteadyStateReplaysBitwiseWithStatsParity)
{
    const coord_t n = 96;
    const int iters = 8;
    std::vector<std::vector<std::uint64_t>> perIter[2];
    FusionStats fstats[2];
    rt::RuntimeStats rstats[2];
    int kernels[2] = {0, 0};
    std::uint64_t replayed = 0, captured = 0;

    for (int trace : {0, 1}) {
        DiffuseRuntime rt(rt::MachineConfig::withGpus(4),
                          realOpts(trace));
        Context ctx(rt);
        NDArray x = ctx.random(n, 11);
        NDArray y = ctx.random(n, 12);
        for (int i = 0; i < iters; i++) {
            perIter[trace].push_back(
                bits(solverishIteration(rt, ctx, x, y)));
        }
        fstats[trace] = rt.fusionStats();
        rstats[trace] = rt.runtimeStats();
        kernels[trace] = rt.compilerStats().plansLowered;
        if (trace == 1) {
            replayed = rt.fusionStats().traceEpochsReplayed;
            captured = rt.fusionStats().traceEpochsCaptured;
        }
    }

    // Bitwise identity, every iteration.
    ASSERT_EQ(perIter[0].size(), perIter[1].size());
    for (std::size_t i = 0; i < perIter[0].size(); i++)
        EXPECT_EQ(perIter[0][i], perIter[1][i]) << "iteration " << i;

    // Steady state replays: each iteration contributes two epochs,
    // and iterations 2+ repeat iteration 1's shapes.
    EXPECT_GT(replayed, std::uint64_t(iters));
    EXPECT_GT(captured, 0u);

    // Replay compiles nothing new.
    EXPECT_EQ(kernels[0], kernels[1]);

    expectStatsParity(fstats, rstats);
}

TEST(TraceReplay, KillSwitchDisablesTheLayer)
{
    DiffuseRuntime rt(rt::MachineConfig::withGpus(4), realOpts(0));
    Context ctx(rt);
    NDArray x = ctx.random(48, 3);
    NDArray y = ctx.random(48, 4);
    for (int i = 0; i < 5; i++)
        solverishIteration(rt, ctx, x, y);
    EXPECT_EQ(rt.fusionStats().traceEpochsReplayed, 0u);
    EXPECT_EQ(rt.fusionStats().traceEpochsCaptured, 0u);
    EXPECT_EQ(rt.context()->traceCache().entries(), 0u);
}

TEST(TraceReplay, LoopVariantScalarsRebind)
{
    // The trace key ignores scalar *values*; replay must rebind them
    // from the replay window, iteration by iteration.
    const coord_t n = 64;
    std::vector<std::uint64_t> expect, got;
    for (int trace : {0, 1}) {
        DiffuseRuntime rt(rt::MachineConfig::withGpus(4),
                          realOpts(trace));
        Context ctx(rt);
        NDArray x = ctx.random(n, 21);
        NDArray y = ctx.random(n, 22);
        for (int i = 0; i < 6; i++) {
            double alpha = 0.25 + 0.125 * i; // loop-variant
            NDArray t = ctx.axpy(x, alpha, y);
            NDArray u = ctx.mulScalar(alpha * 0.5, t);
            ctx.assign(x, u);
            rt.flushWindow();
        }
        (trace ? got : expect) = bits(ctx.toHost(x));
        if (trace)
            EXPECT_GT(rt.fusionStats().traceEpochsReplayed, 2u);
    }
    EXPECT_EQ(got, expect);
}

TEST(TraceReplay, ShapeChangeMissesThenRecaptures)
{
    DiffuseRuntime rt(rt::MachineConfig::withGpus(4), realOpts(1));
    Context ctx(rt);

    auto run = [&](coord_t n, int iters) {
        NDArray x = ctx.random(n, 31);
        NDArray y = ctx.random(n, 32);
        for (int i = 0; i < iters; i++)
            solverishIteration(rt, ctx, x, y);
        return ctx.toHost(x);
    };

    run(64, 4);
    std::uint64_t replays_a = rt.fusionStats().traceEpochsReplayed;
    EXPECT_GT(replays_a, 0u);

    // Same program over a different shape: every epoch code changes,
    // so the first pass must miss (capture), later ones replay again.
    std::uint64_t captured_a = rt.fusionStats().traceEpochsCaptured;
    auto host_b = run(80, 4);
    EXPECT_GT(rt.fusionStats().traceEpochsCaptured, captured_a);
    EXPECT_GT(rt.fusionStats().traceEpochsReplayed, replays_a);

    // Oracle: identical run, tracing off.
    DiffuseRuntime oracle(rt::MachineConfig::withGpus(4), realOpts(0));
    Context octx(oracle);
    NDArray x = octx.random(64, 31);
    NDArray y = octx.random(64, 32);
    for (int i = 0; i < 4; i++)
        solverishIteration(oracle, octx, x, y);
    NDArray x2 = octx.random(80, 31);
    NDArray y2 = octx.random(80, 32);
    std::vector<double> oracle_b;
    for (int i = 0; i < 4; i++)
        oracle_b = solverishIteration(oracle, octx, x2, y2);
    EXPECT_EQ(bits(host_b), bits(oracle_b));
}

TEST(TraceReplay, StoreDestructionMidRunStaysCorrect)
{
    // A persistent operand destroyed and replaced mid-run: the traced
    // epochs that referenced it can no longer match blindly — results
    // must stay bit-identical to the analyzed path.
    std::vector<std::uint64_t> expect, got;
    for (int trace : {0, 1}) {
        DiffuseRuntime rt(rt::MachineConfig::withGpus(4),
                          realOpts(trace));
        Context ctx(rt);
        NDArray x = ctx.random(64, 41);
        NDArray y = ctx.random(64, 42);
        for (int i = 0; i < 3; i++)
            solverishIteration(rt, ctx, x, y);
        y = ctx.random(64, 43); // old y released, fresh store
        for (int i = 0; i < 3; i++)
            solverishIteration(rt, ctx, x, y);
        (trace ? got : expect) = bits(ctx.toHost(x));
    }
    EXPECT_EQ(got, expect);
}

TEST(TraceReplay, LivenessChangeFailsValidationNotCorrectness)
{
    // Two epochs with *identical* event streams whose temporary-store
    // decision differs: round one's intermediate dies inside the
    // epoch (eliminated); round two holds an extra low-level app
    // reference taken in a previous epoch, so the same stream must
    // NOT replay the cached plan — the intermediate's contents are
    // observable afterwards.
    const coord_t n = 32;
    DiffuseRuntime rt(rt::MachineConfig::withGpus(4), realOpts(1));
    Context ctx(rt);

    auto round = [&](bool extra_ref) {
        NDArray t = ctx.zeros(n);
        StoreId sid = t.store();
        if (extra_ref)
            rt.retainApp(sid);
        rt.flushWindow(); // epoch boundary: refcounts differ, events
                          // of the measured epoch do not
        ctx.fill(t, 2.0);
        NDArray out = ctx.mul(t, t);
        t = NDArray(); // Release event inside the epoch
        rt.flushWindow();
        return std::make_pair(sid, ctx.toHost(out));
    };

    std::uint64_t temps0 = rt.fusionStats().tempsEliminated;
    auto [sid1, out1] = round(false);
    EXPECT_EQ(rt.fusionStats().tempsEliminated, temps0 + 1);
    for (double v : out1)
        EXPECT_EQ(v, 4.0);

    auto [sid2, out2] = round(true);
    for (double v : out2)
        EXPECT_EQ(v, 4.0);
    // The extra reference kept the intermediate alive: it must not
    // have been demoted to a task-local buffer.
    EXPECT_GE(rt.fusionStats().traceValidationFailures, 1u);
    std::vector<double> kept = rt.readStoreF64(sid2);
    for (double v : kept)
        EXPECT_EQ(v, 2.0);
    rt.releaseApp(sid2);

    // The failed validation recaptured the epoch with the new
    // liveness, so a third identical round replays it — and the
    // replayed plan keeps the intermediate observable.
    std::uint64_t replays = rt.fusionStats().traceEpochsReplayed;
    auto [sid3, out3] = round(true);
    for (double v : out3)
        EXPECT_EQ(v, 4.0);
    EXPECT_GT(rt.fusionStats().traceEpochsReplayed, replays);
    std::vector<double> kept3 = rt.readStoreF64(sid3);
    for (double v : kept3)
        EXPECT_EQ(v, 2.0);
    rt.releaseApp(sid3);
}

TEST(TraceReplay, ProbeDecisionPointIgnoresLaterReleases)
{
    // A two-task window fills mid-epoch: the fused unit's liveness
    // probes are decided at event 1, while t is still held; t's
    // release is event 2, after that decision point. Validation must
    // reconstruct t's refcount at the decision point (alive), not at
    // the end of the deferred events (released) — counting one event
    // too many would fail validation on every repeat.
    auto run = [](int trace, FusionStats *fs) {
        DiffuseOptions o = realOpts(trace);
        o.initialWindow = 2;
        o.maxWindow = 2;
        DiffuseRuntime rt(rt::MachineConfig::withGpus(4), o);
        Context ctx(rt);
        NDArray x = ctx.random(64, 81);
        NDArray y = ctx.random(64, 82);
        std::vector<std::vector<std::uint64_t>> out;
        for (int i = 0; i < 8; i++) {
            NDArray t = ctx.add(x, y);  // event 0
            NDArray u = ctx.mul(t, y);  // event 1: window full, fused
            t = NDArray();              // event 2: release of t
            ctx.assign(x, u);
            u = NDArray();
            rt.flushWindow();
            out.push_back(bits(ctx.toHost(x)));
            if (i == 2 && fs)
                *fs = rt.fusionStats();
        }
        if (fs) {
            const FusionStats &end = rt.fusionStats();
            fs->traceEpochsReplayed =
                end.traceEpochsReplayed - fs->traceEpochsReplayed;
            fs->traceValidationFailures = end.traceValidationFailures;
            fs->traceAborts = end.traceAborts - fs->traceAborts;
        }
        return out;
    };
    FusionStats fs;
    auto expect = run(0, nullptr);
    auto got = run(1, &fs);
    EXPECT_EQ(got, expect);
    // Iterations 3..7 are steady state: every one replays.
    EXPECT_EQ(fs.traceEpochsReplayed, 5u);
    EXPECT_EQ(fs.traceAborts, 0u);
    EXPECT_EQ(fs.traceValidationFailures, 0u);
}

TEST(TraceReplay, HostWritePoisonsSpeculationNotResults)
{
    // A host write through the low-level runtime to a store with
    // buffered tasks makes the epoch untraceable; it must fall back,
    // not replay stale plans.
    std::vector<std::uint64_t> expect, got;
    for (int trace : {0, 1}) {
        DiffuseRuntime rt(rt::MachineConfig::withGpus(4),
                          realOpts(trace));
        Context ctx(rt);
        NDArray x = ctx.random(48, 51);
        NDArray y = ctx.random(48, 52);
        for (int i = 0; i < 4; i++) {
            NDArray t = ctx.add(x, y);
            ctx.assign(x, t);
            rt.flushWindow();
        }
        // Now an epoch whose stream matches the loop's, with a host
        // write to y landing mid-window.
        NDArray t = ctx.add(x, y);
        double *p = rt.low().dataF64(y.store());
        p[0] = 123.0;
        rt.low().markInitialized(y.store());
        ctx.assign(x, t);
        rt.flushWindow();
        NDArray u = ctx.add(x, y); // reads the poked value
        (trace ? got : expect) = bits(ctx.toHost(u));
    }
    EXPECT_EQ(got, expect);
}

TEST(TraceReplay, HostWriteMidSpeculationDrainsEagerly)
{
    // Window small enough that the analyzed path submits the prefix
    // at window-fill, BEFORE the host access: a speculating repeat
    // must drain its deferred events before dataF64 returns, or the
    // host read-modify-write observes pre-epoch bytes.
    std::vector<std::uint64_t> expect, got;
    for (int trace : {0, 1}) {
        DiffuseOptions o = realOpts(trace);
        o.initialWindow = 2;
        o.maxWindow = 2;
        DiffuseRuntime rt(rt::MachineConfig::withGpus(4), o);
        Context ctx(rt);
        NDArray x = ctx.random(48, 71);
        NDArray y = ctx.random(48, 72);
        for (int i = 0; i < 4; i++) {
            NDArray t = ctx.add(x, y);
            ctx.assign(y, t); // second submit: window fills, drains
            rt.flushWindow();
        }
        // Repeat epoch: both submits defer under speculation. The
        // host access must still see the assign applied.
        NDArray t = ctx.add(x, y);
        ctx.assign(y, t);
        double *p = rt.low().dataF64(y.store());
        p[0] += 1.0;
        rt.low().markInitialized(y.store());
        rt.flushWindow();
        (trace ? got : expect) = bits(ctx.toHost(y));
    }
    EXPECT_EQ(got, expect);
}

TEST(TraceReplay, LowLevelScalarReadMidEpochMatchesTraceOff)
{
    // A repeated epoch defers its submissions while it speculates. A
    // low-level scalar read between a submit and the flush must still
    // see the producer: the read drains the deferred events first.
    std::vector<double> expect, got;
    for (int trace : {0, 1}) {
        DiffuseOptions o = realOpts(trace);
        o.fusionEnabled = false;
        o.maxWindow = 1;
        DiffuseRuntime rt(rt::MachineConfig::withGpus(4), o);
        Context ctx(rt);
        NDArray x = ctx.zeros(32, 2.0);
        std::vector<double> &reads = trace ? got : expect;
        for (int i = 0; i < 5; i++) {
            NDArray d = ctx.dot(x, x);
            reads.push_back(rt.low().readScalarValue(d.store()));
            rt.flushWindow();
        }
    }
    EXPECT_EQ(expect, std::vector<double>(5, 128.0));
    EXPECT_EQ(got, expect);
}

TEST(TraceReplay, WindowGrowthCountSurvivesStatsReset)
{
    // Epoch growth counts are recorded per-epoch, not as FusionStats
    // deltas: resetting the stats between flushes (the benches'
    // post-warmup pattern) zeroes windowGrowths while an epoch whose
    // begin-latch predates the reset is still open — a delta would
    // wrap and every later replay of that epoch would re-add it.
    DiffuseOptions o = realOpts(1);
    o.initialWindow = 2;
    DiffuseRuntime rt(rt::MachineConfig::withGpus(4), o);
    Context ctx(rt);
    NDArray x = ctx.random(64, 81);
    {
        // An epoch that grows the window (full window fully fused).
        NDArray a = ctx.mulScalar(2.0, x);
        NDArray b = ctx.mulScalar(3.0, a);
        NDArray c = ctx.mulScalar(4.0, b);
        NDArray d = ctx.mulScalar(5.0, c);
        ctx.assign(x, d);
        rt.flushWindow();
    }
    ASSERT_GT(rt.fusionStats().windowGrowths, 0u);
    rt.fusionStats().reset();
    // Growth-free epochs with identical, x-preserving streams: the
    // first is captured inside the straddled epoch, the rest replay.
    std::vector<NDArray> keep;
    for (int i = 0; i < 3; i++) {
        keep.push_back(ctx.add(x, x));
        rt.flushWindow();
    }
    EXPECT_GT(rt.fusionStats().traceEpochsReplayed, 0u);
    EXPECT_EQ(rt.fusionStats().windowGrowths, 0u);
}

/** A minimal storable epoch: one fixed code stream, one slot whose
 * state signature distinguishes the variant. */
std::shared_ptr<TraceEpoch>
epochWithSig(std::uint64_t sig, std::uint64_t replays = 0)
{
    auto e = std::make_shared<TraceEpoch>();
    e->codes = {"variant-cap-first-code", "variant-cap-body"};
    e->slotSigs = {sig};
    e->replays.store(replays, std::memory_order_relaxed);
    return e;
}

std::vector<std::uint64_t>
cachedSigs(const TraceCache &cache)
{
    std::vector<std::shared_ptr<TraceEpoch>> snap;
    EXPECT_TRUE(cache.candidates("variant-cap-first-code", &snap));
    std::vector<std::uint64_t> sigs;
    for (const auto &e : snap)
        sigs.push_back(e->slotSigs.front());
    return sigs;
}

TEST(TraceReplay, VariantCapEvictsColdestAndEvicteeStaysReplayable)
{
    // The kTraceMaxVariants boundary: a 9th same-code /
    // different-signature capture must *replace the coldest* variant
    // (fewest replays) instead of appending — a stream whose entry
    // state drifts every repetition must not swallow the whole cache —
    // and the replacement must not consume a cache entry.
    ASSERT_EQ(kTraceMaxVariants, 8u);
    TraceCache cache;
    std::vector<std::shared_ptr<TraceEpoch>> held;
    std::vector<std::uint64_t> all;
    for (std::uint64_t sig = 1; sig <= kTraceMaxVariants; sig++) {
        // Warmth grows with the signature: sig 1 is the coldest.
        auto e = epochWithSig(sig, /*replays=*/sig * 10);
        held.push_back(e);
        all.push_back(sig);
        ASSERT_TRUE(cache.store(e));
    }
    EXPECT_EQ(cache.entries(), kTraceMaxVariants);
    EXPECT_EQ(cachedSigs(cache), all);

    // The variant one past the cap lands, the coldest (sig 1) is gone,
    // and the cache did not grow.
    ASSERT_TRUE(cache.store(epochWithSig(99)));
    EXPECT_EQ(cache.entries(), kTraceMaxVariants);
    std::vector<std::uint64_t> evicted = all;
    evicted.front() = 99;
    EXPECT_EQ(cachedSigs(cache), evicted);

    // A session pinned to the evicted variant (mid-speculation
    // shared_ptr) still holds an intact, replayable epoch: eviction
    // dropped only the cache's reference.
    EXPECT_EQ(held[0]->slotSigs, (std::vector<std::uint64_t>{1}));
    EXPECT_EQ(held[0]->codes.front(), "variant-cap-first-code");
    EXPECT_EQ(held[0]->replays.load(std::memory_order_relaxed), 10u);

    // ...and when that session's replay aborts (its variant no longer
    // cached), its re-capture is admitted cleanly at the cap: it
    // replaces the now-coldest variant (sig 99, zero replays).
    auto recaptured = epochWithSig(1, /*replays=*/5);
    ASSERT_TRUE(cache.store(recaptured));
    EXPECT_EQ(cache.entries(), kTraceMaxVariants);
    EXPECT_EQ(cachedSigs(cache), all);

    // A true duplicate (codes AND signature) is a refresh, not a
    // variant: replaced in place, replay count carried over.
    auto refresh = epochWithSig(3);
    ASSERT_TRUE(cache.store(refresh));
    EXPECT_EQ(cache.entries(), kTraceMaxVariants);
    EXPECT_EQ(refresh->replays.load(std::memory_order_relaxed), 30u);
    EXPECT_EQ(cachedSigs(cache), all);
}

TEST(TraceReplay, RefusedAdmissionLeavesNoBucket)
{
    // A store a full cache refuses must not create its bucket: a
    // present bucket tells a session that capture can still be
    // admitted (as a replacement), so it would capture that stream
    // on every later epoch and never store it, instead of bypassing.
    TraceCache cache;
    for (std::size_t i = 0; i < kTraceMaxEntries; i++) {
        auto e = std::make_shared<TraceEpoch>();
        e->codes = {"first-code-" + std::to_string(i)};
        ASSERT_TRUE(cache.store(e));
    }
    auto novel = std::make_shared<TraceEpoch>();
    novel->codes = {"novel"};
    EXPECT_FALSE(cache.store(novel));
    EXPECT_EQ(cache.entries(), kTraceMaxEntries);
    std::vector<std::shared_ptr<TraceEpoch>> out;
    EXPECT_FALSE(cache.candidates("novel", &out));
    EXPECT_TRUE(out.empty());
}

TEST(TraceReplay, ShardedRanksReplayBitwise)
{
    // Replay resubmits recorded exchange Copy tasks; at ranks > 1
    // results and measured exchange volume must match the analyzed
    // path exactly.
    std::vector<std::uint64_t> expect, got;
    double exchange[2] = {0.0, 0.0};
    std::uint64_t replays = 0;
    for (int trace : {0, 1}) {
        DiffuseRuntime rt(rt::MachineConfig::withGpus(4),
                          realOpts(trace, /*ranks=*/3));
        Context ctx(rt);
        NDArray x = ctx.random(96, 61);
        NDArray y = ctx.random(96, 62);
        for (int i = 0; i < 6; i++)
            solverishIteration(rt, ctx, x, y);
        (trace ? got : expect) = bits(ctx.toHost(x));
        exchange[trace] = rt.runtimeStats().exchangeBytes;
        if (trace)
            replays = rt.fusionStats().traceEpochsReplayed;
    }
    EXPECT_EQ(got, expect);
    EXPECT_EQ(exchange[0], exchange[1]);
    EXPECT_GT(replays, 0u);

    // And ranks=3 with tracing matches ranks=1 with tracing.
    DiffuseRuntime rt1(rt::MachineConfig::withGpus(4), realOpts(1, 1));
    Context ctx1(rt1);
    NDArray x = ctx1.random(96, 61);
    NDArray y = ctx1.random(96, 62);
    std::vector<double> r1;
    for (int i = 0; i < 6; i++)
        r1 = solverishIteration(rt1, ctx1, x, y);
    EXPECT_EQ(bits(r1), got);
}

TEST(TraceReplay, ShardedSolverReplayKeepsPlacementState)
{
    // Replay re-derives shard placement (validity lists, shard boxes)
    // without planning; it must leave every store in exactly the state
    // the analyzed path does — list order included, since state
    // signatures hash it. A reordered list keeps results bitwise but
    // turns later replays into recaptures, which the steady-state
    // counts below would catch.
    struct Run
    {
        std::vector<std::vector<std::uint64_t>> results;
        std::vector<std::vector<std::uint64_t>> sigs;
        double exchange = 0.0;
        std::uint64_t copies = 0;
        std::uint64_t flushes = 0, replays = 0, aborts = 0;
        std::uint64_t failures = 0;
    };
    const int reps = 6, warm = 2;
    auto run = [&](int trace, int ranks) {
        Run r;
        DiffuseRuntime rt(rt::MachineConfig::withGpus(4),
                          realOpts(trace, ranks));
        Context ctx(rt);
        sp::SparseContext sctx(ctx);
        solvers::SolverContext sol(ctx, sctx);
        sp::CsrMatrix a = sctx.poisson2d(12, 12);
        solvers::GmgHierarchy h = sol.buildHierarchy1d(128, 3);
        NDArray b2 = ctx.random(144, 91, -1.0, 1.0);
        NDArray b1 = ctx.random(128, 92, -1.0, 1.0);
        std::vector<NDArray> xs;
        FusionStats mark;
        for (int rep = 0; rep < reps; rep++) {
            if (rep == warm)
                mark = rt.fusionStats();
            for (int which = 0; which < 3; which++) {
                NDArray x = which == 0   ? sol.cg(a, b2, 4)
                            : which == 1 ? sol.bicgstab(a, b2, 4)
                                         : sol.gmgPcg(h, b1, 4);
                rt.flushWindow();
                xs.push_back(x);
                std::vector<std::uint64_t> sig;
                for (const NDArray &v : xs)
                    sig.push_back(rt.low().storeStateSignature(v.store()));
                sig.push_back(rt.low().storeStateSignature(b1.store()));
                sig.push_back(rt.low().storeStateSignature(b2.store()));
                r.sigs.push_back(sig);
            }
        }
        const FusionStats &fs = rt.fusionStats();
        r.flushes = fs.flushes - mark.flushes;
        r.replays = fs.traceEpochsReplayed - mark.traceEpochsReplayed;
        r.aborts = fs.traceAborts - mark.traceAborts;
        r.failures = fs.traceValidationFailures;
        r.exchange = rt.runtimeStats().exchangeBytes;
        r.copies = rt.runtimeStats().copyTasks;
        for (const NDArray &v : xs)
            r.results.push_back(bits(ctx.toHost(v)));
        return r;
    };
    for (int ranks : {3, 4}) {
        Run off = run(0, ranks);
        Run on = run(1, ranks);
        std::string label = "ranks " + std::to_string(ranks);
        EXPECT_EQ(on.results, off.results) << label;
        EXPECT_EQ(on.exchange, off.exchange) << label;
        EXPECT_EQ(on.copies, off.copies) << label;
        EXPECT_EQ(on.sigs, off.sigs) << label;
        // After warm-up every flush replays.
        EXPECT_EQ(on.flushes, std::uint64_t(3 * (reps - warm))) << label;
        EXPECT_EQ(on.replays, on.flushes) << label;
        EXPECT_EQ(on.aborts, 0u) << label;
        EXPECT_EQ(on.failures, 0u) << label;
    }
}

TEST(TraceReplay, LongShardedEpochsKeepStreamAndScheduleParity)
{
    // perfbench's solvers_small step at ranks 4 x workers 2: each
    // solve's epoch submits more tasks and exchange copies than the
    // stream's 256-task in-flight window holds, so replay retires
    // through the window exactly as the analyzed path does. Which
    // tasks have retired at each submission feeds the history floors
    // and so the simulated schedule: every stream counter and clock
    // must match the analyzed path, bit for bit.
    struct Run
    {
        rt::StreamStats stream;
        rt::RuntimeStats runtime;
        std::vector<std::uint64_t> residuals;
        std::uint64_t replays = 0;
    };
    auto run = [](int trace) {
        DiffuseOptions o = realOpts(trace, /*ranks=*/4);
        o.workers = 2;
        DiffuseRuntime rt(rt::MachineConfig::withGpus(4), o);
        Context ctx(rt);
        sp::SparseContext sctx(ctx);
        solvers::SolverContext sol(ctx, sctx);
        sp::CsrMatrix a = sctx.poisson2d(64, 64);
        solvers::GmgHierarchy h = sol.buildHierarchy1d(4096, 4);
        NDArray b2 = ctx.random(64 * 64, 0x2d, -1.0, 1.0);
        NDArray b1 = ctx.random(4096, 0x1d, -1.0, 1.0);
        Run r;
        for (int step = 0; step < 6; step++) {
            for (int which = 0; which < 3; which++) {
                const sp::CsrMatrix &op = which == 2 ? h.levels[0].a : a;
                const NDArray &b = which == 2 ? b1 : b2;
                NDArray x = which == 0   ? sol.cg(op, b, 10)
                            : which == 1 ? sol.bicgstab(op, b, 10)
                                         : sol.gmgPcg(h, b, 10);
                NDArray res = ctx.norm2Sq(ctx.sub(b, sctx.spmv(op, x)));
                rt.flushWindow();
                double v = rt.low().readScalarValue(res.store());
                std::uint64_t u;
                std::memcpy(&u, &v, sizeof(u));
                r.residuals.push_back(u);
            }
        }
        r.stream = rt.low().streamStats();
        r.runtime = rt.runtimeStats();
        r.replays = rt.fusionStats().traceEpochsReplayed;
        return r;
    };
    Run off = run(0);
    Run on = run(1);

    EXPECT_EQ(on.residuals, off.residuals);
    EXPECT_GT(on.replays, 0u);
    EXPECT_GT(off.stream.maxPendingSeen, 256u); // epochs exceed the window

    const rt::StreamStats &s0 = off.stream, &s1 = on.stream;
    EXPECT_EQ(s1.submitted, s0.submitted);
    EXPECT_EQ(s1.retired, s0.retired);
    EXPECT_EQ(s1.fences, s0.fences);
    EXPECT_EQ(s1.maxPendingSeen, s0.maxPendingSeen);
    EXPECT_EQ(s1.retiredOutOfOrder, s0.retiredOutOfOrder);
    EXPECT_EQ(s1.rawDeps, s0.rawDeps);
    EXPECT_EQ(s1.warDeps, s0.warDeps);
    EXPECT_EQ(s1.wawDeps, s0.wawDeps);
    EXPECT_EQ(s1.tasksFailed, s0.tasksFailed);
    EXPECT_EQ(s1.tasksCancelled, s0.tasksCancelled);
    // EXPECT_EQ on doubles: bitwise, not to rounding.
    EXPECT_EQ(s1.criticalPathTime, s0.criticalPathTime);
    EXPECT_EQ(s1.busyTime, s0.busyTime);
    EXPECT_EQ(s1.collectiveTime, s0.collectiveTime);

    // Every runtime counter, the exchange kinds included: a replayed
    // op counts exactly what its analyzed submission counted.
    expectRuntimeStatsEqual(on.runtime, off.runtime);
    EXPECT_GT(off.runtime.rankCopies, 0u);
    EXPECT_EQ(off.runtime.rankCopies + off.runtime.gathers +
                  off.runtime.hostPulls,
              off.runtime.copyTasks);
}

TEST(TraceReplay, BypassedLongEpochKeepsStreamAndScheduleParity)
{
    // An epoch of more than kTraceMaxEvents events stops capturing
    // partway (a bypassed epoch) and is never stored, yet it runs
    // exactly as with tracing off: the same results, stream counters
    // and schedule clocks. Short epochs after it still capture and
    // replay.
    struct Run
    {
        std::vector<std::uint64_t> x;
        rt::StreamStats stream;
        double simTime = 0.0;
        double busyTime = 0.0;
        std::uint64_t capturedByLongEpoch = 0;
        std::uint64_t replayedByLongEpoch = 0;
        std::uint64_t captured = 0;
        std::uint64_t replayed = 0;
    };
    auto run = [](int trace) {
        DiffuseRuntime rt(rt::MachineConfig::withGpus(4), realOpts(trace));
        Context ctx(rt);
        NDArray x = ctx.random(256, 0xb1, -1.0, 1.0);
        NDArray y = ctx.random(256, 0xb2, -1.0, 1.0);
        // One epoch: kTraceMaxEvents + 2 submissions (plus the
        // releases of the arrays they replace), nothing read back.
        for (int i = 0; i < kTraceMaxEvents / 2 + 1; i++) {
            x = ctx.add(x, y);
            x = ctx.mulScalar(0.5, x);
        }
        rt.flushWindow();
        Run r;
        r.capturedByLongEpoch = rt.fusionStats().traceEpochsCaptured;
        r.replayedByLongEpoch = rt.fusionStats().traceEpochsReplayed;
        for (int e = 0; e < 4; e++) {
            x = ctx.add(x, y);
            x = ctx.mulScalar(0.5, x);
            rt.flushWindow();
        }
        r.x = bits(ctx.toHost(x));
        r.stream = rt.low().streamStats();
        r.simTime = rt.runtimeStats().simTime;
        r.busyTime = rt.runtimeStats().busyTime;
        r.captured = rt.fusionStats().traceEpochsCaptured;
        r.replayed = rt.fusionStats().traceEpochsReplayed;
        return r;
    };
    Run off = run(0);
    Run on = run(1);

    EXPECT_EQ(on.capturedByLongEpoch, 0u);
    EXPECT_EQ(on.replayedByLongEpoch, 0u);
    EXPECT_GT(on.captured, 0u);
    EXPECT_GT(on.replayed, 0u);
    EXPECT_EQ(on.x, off.x);

    const rt::StreamStats &s0 = off.stream, &s1 = on.stream;
    EXPECT_EQ(s1.submitted, s0.submitted);
    EXPECT_EQ(s1.retired, s0.retired);
    EXPECT_EQ(s1.fences, s0.fences);
    EXPECT_EQ(s1.maxPendingSeen, s0.maxPendingSeen);
    EXPECT_EQ(s1.retiredOutOfOrder, s0.retiredOutOfOrder);
    EXPECT_EQ(s1.rawDeps, s0.rawDeps);
    EXPECT_EQ(s1.warDeps, s0.warDeps);
    EXPECT_EQ(s1.wawDeps, s0.wawDeps);
    EXPECT_EQ(s1.tasksFailed, s0.tasksFailed);
    EXPECT_EQ(s1.tasksCancelled, s0.tasksCancelled);
    // EXPECT_EQ on doubles: bitwise, not to rounding.
    EXPECT_EQ(s1.criticalPathTime, s0.criticalPathTime);
    EXPECT_EQ(s1.busyTime, s0.busyTime);
    EXPECT_EQ(s1.collectiveTime, s0.collectiveTime);
    EXPECT_EQ(on.simTime, off.simTime);
    EXPECT_EQ(on.busyTime, off.busyTime);
}

TEST(TraceReplay, SimulatedModeTimingParity)
{
    // The whole point of recording TaskTiming + hazard edges: the
    // simulated critical path is identical with tracing on and off,
    // fused across a real solver (CG chains epochs via scalar reads).
    double sim[2] = {0.0, 0.0}, busy[2] = {0.0, 0.0};
    std::uint64_t replays = 0;
    for (int trace : {0, 1}) {
        DiffuseOptions o;
        o.mode = rt::ExecutionMode::Simulated;
        o.trace = trace;
        DiffuseRuntime rt(rt::MachineConfig::withGpus(8), o);
        Context ctx(rt);
        sp::SparseContext sctx(ctx);
        solvers::SolverContext sol(ctx, sctx);
        sp::CsrMatrix a = sctx.poisson2d(8, 8);
        NDArray b = ctx.zeros(64, 1.0);
        for (int i = 0; i < 6; i++) {
            sol.cg(a, b, 2);
            rt.flushWindow();
        }
        sim[trace] = rt.runtimeStats().simTime;
        busy[trace] = rt.runtimeStats().busyTime;
        if (trace)
            replays = rt.fusionStats().traceEpochsReplayed;
    }
    EXPECT_EQ(sim[0], sim[1]);
    EXPECT_EQ(busy[0], busy[1]);
    EXPECT_GT(replays, 0u);
}

TEST(TraceReplay, ReplayIsFasterToSubmitInSteadyState)
{
    // The acceptance claim: per-window submission time drops on trace
    // hits. Wall-clock on a shared CI box is noisy, so assert the
    // lenient direction only: the average replayed window submits in
    // no more than the average analyzed window's time.
    DiffuseRuntime rt(rt::MachineConfig::withGpus(4), realOpts(1));
    Context ctx(rt);
    NDArray x = ctx.random(256, 71);
    NDArray y = ctx.random(256, 72);
    for (int i = 0; i < 50; i++)
        solverishIteration(rt, ctx, x, y);
    const FusionStats &fs = rt.fusionStats();
    ASSERT_GT(fs.traceEpochsReplayed, 20u);
    ASSERT_GT(fs.traceEpochsCaptured, 0u);
    double planned = fs.plannedSubmitSeconds /
                     double(fs.traceEpochsCaptured);
    double replayed = fs.replaySubmitSeconds /
                      double(fs.traceEpochsReplayed);
    EXPECT_GT(planned, 0.0);
    EXPECT_GT(replayed, 0.0);
    EXPECT_LE(replayed, planned * 1.5);
}

// ---------------------------------------------------------------------
// Request-local epochs: a retain or release of a store the open epoch
// has not seen applies at once and stays out of its code stream
// ---------------------------------------------------------------------

/** A session's libraries, registered once as a server does. */
struct Libraries
{
    explicit Libraries(DiffuseRuntime &rt) : np(rt), sp(np), sol(np, sp)
    {}

    Context np;
    sp::SparseContext sp;
    solvers::SolverContext sol;
};

enum Request { Cg16 = 0, Bicgstab24 = 1, BlackScholes32 = 2 };

/** Serve one request the way perfbench's serving_mix does: build the
 * problem, solve or price it, read one scalar back, drop every array.
 * Returns the scalar's bits. */
std::uint64_t
serve(Libraries &lib, Request r)
{
    Context &np = lib.np;
    double v = 0.0;
    if (r == BlackScholes32) {
        apps::BlackScholes bs(np, 32 * 32 / np.procs());
        bs.step();
        v = np.value(np.sum(np.add(bs.call(), bs.put())));
    } else {
        coord_t edge = r == Cg16 ? 16 : 24;
        sp::CsrMatrix a = lib.sp.poisson2d(edge, edge);
        NDArray b = np.random(edge * edge, 0x5eed + edge, -1.0, 1.0);
        NDArray x =
            r == Cg16 ? lib.sol.cg(a, b, 10) : lib.sol.bicgstab(a, b, 5);
        v = np.value(np.norm2Sq(np.sub(b, lib.sp.spmv(a, x))));
    }
    std::uint64_t out;
    std::memcpy(&out, &v, sizeof(out));
    return out;
}

TEST(TraceReplay, EpochsDoNotDependOnThePreviousRequest)
{
    // Each request drops its arrays after its read-back. Those
    // releases are foreign to the next request's first epoch, so once
    // every request type has run, any order of them replays. The
    // window is pinned: every epoch's first code records the window
    // size, and its growth during the warm-up would otherwise stand in
    // for request order.
    auto opts = [](int trace) {
        DiffuseOptions o = realOpts(trace);
        o.initialWindow = o.maxWindow = 64;
        return o;
    };
    const Request kWarm[] = {Cg16, Bicgstab24, BlackScholes32};
    const Request kOrder[] = {BlackScholes32, Cg16,           Cg16,
                              Bicgstab24,     BlackScholes32, BlackScholes32,
                              Cg16,           Bicgstab24,     Bicgstab24,
                              Cg16,           BlackScholes32, Bicgstab24};

    std::vector<std::uint64_t> expect;
    {
        DiffuseRuntime oracle(rt::MachineConfig::withGpus(4), opts(0));
        Libraries lib(oracle);
        for (Request r : kWarm)
            expect.push_back(serve(lib, r));
        for (Request r : kOrder)
            expect.push_back(serve(lib, r));
    }

    DiffuseRuntime rt(rt::MachineConfig::withGpus(4), opts(1));
    Libraries lib(rt);
    const FusionStats &fs = rt.fusionStats();
    std::vector<std::uint64_t> got;
    // A flush with nothing to synchronize (the Black-Scholes
    // constructor's: its inputs are host-filled) counts nothing, so
    // every counted flush of a cold run is captured or replayed.
    for (Request r : kWarm) {
        FusionStats before = fs;
        got.push_back(serve(lib, r));
        EXPECT_EQ(fs.flushes - before.flushes,
                  (fs.traceEpochsCaptured - before.traceEpochsCaptured) +
                      (fs.traceEpochsReplayed - before.traceEpochsReplayed))
            << "request type " << int(r);
    }

    const FusionStats warm = fs;
    int missed = 0;
    for (Request r : kOrder) {
        FusionStats before = fs;
        got.push_back(serve(lib, r));
        if (fs.traceEpochsReplayed - before.traceEpochsReplayed !=
            fs.flushes - before.flushes) {
            missed++;
        }
    }
    EXPECT_EQ(missed, 0);
    EXPECT_EQ(fs.traceEpochsCaptured, warm.traceEpochsCaptured);
    EXPECT_EQ(fs.traceAborts, warm.traceAborts);
    EXPECT_EQ(fs.traceValidationFailures, warm.traceValidationFailures);
    EXPECT_GT(fs.traceEpochsReplayed, warm.traceEpochsReplayed);
    EXPECT_EQ(got, expect);
}

TEST(TraceReplay, ForeignReleaseBeforeFirstUseRevalidatesItsProbe)
{
    // A store held twice (its handle plus a retain) is released once
    // before its first use in the epoch: a foreign release, applied at
    // once and left out of the code stream. The epoch then writes it,
    // reads it and drops the handle. Whether it is dead at the flush —
    // and so may be eliminated as a temporary — depends on whether an
    // extra reference entered the epoch, which the code stream cannot
    // see: replay must revalidate that liveness probe against the
    // refcount the foreign release already moved.
    const coord_t n = 32;
    const bool kExtraRef[] = {false, false, false, true, true, false, false};
    std::vector<std::vector<std::uint64_t>> results[2];
    FusionStats fstats[2];
    rt::RuntimeStats rstats[2];
    for (int trace : {0, 1}) {
        DiffuseRuntime rt(rt::MachineConfig::withGpus(4),
                          realOpts(trace));
        Context ctx(rt);
        NDArray x = ctx.random(n, 91);
        for (bool extra : kExtraRef) {
            NDArray s = ctx.zeros(n);
            StoreId sid = s.store();
            rt.retainApp(sid);
            if (extra)
                rt.retainApp(sid);
            rt.flushWindow(); // the epoch under test opens here
            rt.releaseApp(sid);
            ctx.fill(s, 2.0);
            NDArray y = ctx.mul(s, x);
            ctx.assign(x, y);
            s = NDArray();
            y = NDArray();
            rt.flushWindow();
            results[trace].push_back(bits(ctx.toHost(x)));
            if (extra) {
                // Kept alive, so not eliminated: its contents show.
                results[trace].push_back(bits(rt.readStoreF64(sid)));
                rt.releaseApp(sid);
            }
        }
        fstats[trace] = rt.fusionStats();
        rstats[trace] = rt.runtimeStats();
    }
    EXPECT_EQ(results[1], results[0]);
    expectStatsParity(fstats, rstats);
    // The steady, extra-free repeats replay; the first epoch with the
    // extra reference and the first one back without it each fail the
    // probe and recapture, and the repeats after them replay again.
    EXPECT_EQ(fstats[1].traceValidationFailures, 2u);
    EXPECT_EQ(fstats[1].traceEpochsReplayed, 3u);
}

} // namespace
} // namespace diffuse
