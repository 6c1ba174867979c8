/**
 * @file
 * Integration tests of the full Diffuse pipeline through the public
 * cunumeric-mini API, mirroring the paper's worked examples:
 *  - Fig 1: the 5-point stencil fuses into FUSED_ADD_MULT + COPY;
 *  - Fig 6: temporary store elimination under the split refcount;
 *  - Fig 7: memoization across isomorphic task streams;
 *  - numerical equivalence of fused and unfused execution.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "cunumeric/ndarray.h"

namespace diffuse {
namespace {

using num::Context;
using num::NDArray;

rt::MachineConfig
machineWith(int gpus)
{
    return rt::MachineConfig::withGpus(gpus);
}

DiffuseOptions
optionsFor(bool fused, rt::ExecutionMode mode = rt::ExecutionMode::Real)
{
    DiffuseOptions o;
    o.fusionEnabled = fused;
    o.mode = mode;
    return o;
}

TEST(Pipeline, ElementwiseChainMatchesUnfused)
{
    const coord_t n = 1000;
    std::vector<double> fused_result, unfused_result;
    for (bool fuse : {true, false}) {
        DiffuseRuntime rt(machineWith(4), optionsFor(fuse));
        Context ctx(rt);
        NDArray x = ctx.random(n, 42);
        NDArray y = ctx.random(n, 43);
        NDArray z = ctx.mulScalar(2.0, x);
        NDArray w = ctx.add(y, z);
        NDArray v = ctx.mul(w, w);
        auto out = ctx.toHost(v);
        (fuse ? fused_result : unfused_result) = out;
    }
    ASSERT_EQ(fused_result.size(), unfused_result.size());
    for (std::size_t i = 0; i < fused_result.size(); i++)
        EXPECT_DOUBLE_EQ(fused_result[i], unfused_result[i]);
}

TEST(Pipeline, FusionReducesLaunchedTasks)
{
    DiffuseRuntime rt(machineWith(4), optionsFor(true));
    Context ctx(rt);
    const coord_t n = 256;
    NDArray x = ctx.random(n, 1);
    // Two rounds: the first warms the window up (it starts at 5 and
    // grows when a full window fuses); the second round's 6-task
    // chain then fuses into a single launched group.
    for (int round = 0; round < 2; round++) {
        if (round == 1)
            rt.fusionStats().reset();
        NDArray a = ctx.mulScalar(2.0, x);
        NDArray b = ctx.addScalar(a, 1.0);
        NDArray c = ctx.mul(b, b);
        NDArray d = ctx.sub(c, b);
        NDArray e = ctx.sqrt(ctx.abs(d));
        a = NDArray();
        b = NDArray();
        c = NDArray();
        d = NDArray();
        rt.flushWindow();
        (void)e;
    }
    EXPECT_EQ(rt.fusionStats().tasksSubmitted, 6u);
    EXPECT_EQ(rt.fusionStats().groupsLaunched, 1u);
    EXPECT_EQ(rt.fusionStats().fusedGroups, 1u);
}

TEST(Pipeline, TemporaryEliminationAvoidsMaterialization)
{
    // Paper Fig 6: z is temporary (covered write, dead afterwards,
    // no app refs); x, y, w, v, norm stay materialized. The fused run
    // must materialize exactly one store fewer than the unfused run.
    auto run = [](bool fuse) {
        // Materialization counts are a canonical-allocation property:
        // pin ranks so DIFFUSE_RANKS doesn't shift what materializes.
        DiffuseOptions o = optionsFor(fuse);
        o.ranks = 1;
        DiffuseRuntime rt(machineWith(4), o);
        Context ctx(rt);
        const coord_t n = 512;
        NDArray x = ctx.zeros(n);
        NDArray y = ctx.zeros(n, 1.0);
        NDArray z = ctx.mulScalar(2.0, x);
        NDArray w = ctx.add(y, z);
        NDArray v = ctx.powScalar(w, 2.0);
        NDArray norm = ctx.norm2Sq(w.slice(n / 2, n));
        z = NDArray(); // del z: only z is temporary
        rt.flushWindow();
        double nv = ctx.value(norm);
        (void)v;
        return std::make_pair(rt.runtimeStats().storesMaterialized, nv);
    };
    auto [mat_fused, norm_fused] = run(true);
    auto [mat_unfused, norm_unfused] = run(false);
    EXPECT_EQ(mat_fused + 1, mat_unfused);
    EXPECT_NEAR(norm_fused, 512.0 / 2.0, 1e-9);
    EXPECT_DOUBLE_EQ(norm_fused, norm_unfused);

    DiffuseRuntime rt(machineWith(4), optionsFor(true));
    Context ctx(rt);
    const coord_t n = 512;
    NDArray x = ctx.zeros(n);
    NDArray z = ctx.mulScalar(2.0, x);
    NDArray w = ctx.addScalar(z, 1.0);
    z = NDArray();
    rt.flushWindow();
    EXPECT_EQ(rt.fusionStats().tempsEliminated, 1u);
    (void)w;
}

TEST(Pipeline, Figure1StencilFusesToTwoTasks)
{
    // The 5-point stencil of paper Fig 1 on multiple GPUs: the four
    // ADDs and the MULT fuse; the COPY back into the aliasing center
    // view must stay separate (anti-dependence on the grid views).
    const coord_t n = 64;
    DiffuseRuntime rt(machineWith(4), optionsFor(true));
    Context ctx(rt);
    NDArray grid = ctx.random2d(n + 2, n + 2, 7);
    NDArray center = grid.slice2d(1, n + 1, 1, n + 1);
    NDArray north = grid.slice2d(0, n, 1, n + 1);
    NDArray east = grid.slice2d(1, n + 1, 2, n + 2);
    NDArray west = grid.slice2d(1, n + 1, 0, n);
    NDArray south = grid.slice2d(2, n + 2, 1, n + 1);

    rt.flushWindow();
    rt.fusionStats().reset();

    const int iters = 3;
    for (int i = 0; i < iters; i++) {
        NDArray t1 = ctx.add(center, north);
        NDArray t2 = ctx.add(t1, east);
        NDArray t3 = ctx.add(t2, west);
        NDArray avg = ctx.add(t3, south);
        NDArray work = ctx.mulScalar(0.2, avg);
        t1 = t2 = t3 = avg = NDArray();
        ctx.assign(center, work);
    }
    rt.flushWindow();

    // 6 submitted per iteration; 2 launched per iteration:
    // FUSED_ADD_MULT + COPY (paper Fig 1d).
    EXPECT_EQ(rt.fusionStats().tasksSubmitted, std::uint64_t(6 * iters));
    EXPECT_EQ(rt.fusionStats().groupsLaunched,
              std::uint64_t(2 * iters));
    // The COPY is blocked by anti-dependence: it writes the center
    // view of grid while the fused task read other views of grid.
    EXPECT_GT(
        rt.fusionStats().blocks[std::size_t(FusionBlock::AntiDependence)],
        0u);
}

TEST(Pipeline, StencilNumericsMatchReference)
{
    const coord_t n = 16;
    const int iters = 4;

    // Host reference.
    std::vector<double> ref((n + 2) * (n + 2));
    {
        DiffuseRuntime rt(machineWith(1), optionsFor(false));
        Context ctx(rt);
        NDArray g = ctx.random2d(n + 2, n + 2, 11);
        ref = ctx.toHost(g);
    }
    auto at = [&](std::vector<double> &v, coord_t i, coord_t j) -> double & {
        return v[std::size_t(i * (n + 2) + j)];
    };
    for (int it = 0; it < iters; it++) {
        std::vector<double> next = ref;
        for (coord_t i = 1; i <= n; i++) {
            for (coord_t j = 1; j <= n; j++) {
                at(next, i, j) =
                    0.2 * (at(ref, i, j) + at(ref, i - 1, j) +
                           at(ref, i, j + 1) + at(ref, i, j - 1) +
                           at(ref, i + 1, j));
            }
        }
        ref = next;
    }

    for (int gpus : {1, 4}) {
        for (bool fuse : {false, true}) {
            DiffuseRuntime rt(machineWith(gpus), optionsFor(fuse));
            Context ctx(rt);
            NDArray grid = ctx.random2d(n + 2, n + 2, 11);
            NDArray center = grid.slice2d(1, n + 1, 1, n + 1);
            NDArray north = grid.slice2d(0, n, 1, n + 1);
            NDArray east = grid.slice2d(1, n + 1, 2, n + 2);
            NDArray west = grid.slice2d(1, n + 1, 0, n);
            NDArray south = grid.slice2d(2, n + 2, 1, n + 1);
            for (int i = 0; i < iters; i++) {
                NDArray avg = ctx.add(
                    ctx.add(ctx.add(ctx.add(center, north), east), west),
                    south);
                NDArray work = ctx.mulScalar(0.2, avg);
                ctx.assign(center, work);
            }
            auto got = ctx.toHost(grid);
            for (std::size_t i = 0; i < ref.size(); i++) {
                ASSERT_NEAR(got[i], ref[i], 1e-12)
                    << "gpus=" << gpus << " fuse=" << fuse
                    << " idx=" << i;
            }
        }
    }
}

TEST(Pipeline, SinglePointDomainRelaxation)
{
    // On one GPU the write-then-shifted-read chain may fuse (paper:
    // CFD fuses longer chains on a single GPU); on many GPUs the
    // true-dependence constraint splits it.
    auto run = [](int gpus) {
        DiffuseRuntime rt(machineWith(gpus), optionsFor(true));
        Context ctx(rt);
        const coord_t n = 32;
        NDArray a = ctx.random(n + 2, 3);
        NDArray left = a.slice(0, n);
        NDArray right = a.slice(2, n + 2);
        NDArray mid = a.slice(1, n + 1);
        NDArray s = ctx.add(left, right);
        ctx.assign(mid, s); // writes a view of `a`
        NDArray t = ctx.add(left, right); // reads updated views
        rt.flushWindow();
        (void)t;
        return rt.fusionStats().groupsLaunched;
    };
    EXPECT_EQ(run(1), 1u); // everything fuses on a single point
    EXPECT_GT(run(4), 1u); // aliasing views force a split
}

TEST(Pipeline, ReductionBlocksFusionWithReader)
{
    DiffuseRuntime rt(machineWith(4), optionsFor(true));
    Context ctx(rt);
    const coord_t n = 128;
    NDArray x = ctx.random(n, 5);
    NDArray y = ctx.random(n, 6);
    NDArray d = ctx.dot(x, y);          // Rd into scalar store d
    NDArray z = ctx.axpyS(x, d, y);     // reads d
    rt.flushWindow();
    (void)z;
    // dot and axpy_s cannot fuse (reduction constraint).
    EXPECT_GE(rt.fusionStats().groupsLaunched, 2u);
    EXPECT_GT(rt.fusionStats().blocks[std::size_t(FusionBlock::Reduction)],
              0u);

    // Numerics: z = x + (x.y) * y.
    auto xs = ctx.toHost(x);
    auto ys = ctx.toHost(y);
    double dot = 0.0;
    for (coord_t i = 0; i < n; i++)
        dot += xs[std::size_t(i)] * ys[std::size_t(i)];
    EXPECT_NEAR(ctx.value(d), dot, 1e-9);
}

TEST(Pipeline, TwoDotsFuseIntoOnePass)
{
    DiffuseRuntime rt(machineWith(4), optionsFor(true));
    Context ctx(rt);
    const coord_t n = 128;
    NDArray x = ctx.random(n, 5);
    NDArray y = ctx.random(n, 6);
    NDArray d1 = ctx.dot(x, y);
    NDArray d2 = ctx.norm2Sq(x);
    rt.flushWindow();
    // Two reductions to *different* scalars may fuse into one task.
    EXPECT_EQ(rt.fusionStats().groupsLaunched, 1u);
    EXPECT_EQ(rt.fusionStats().fusedGroups, 1u);
    auto xs = ctx.toHost(x);
    auto ys = ctx.toHost(y);
    double dot = 0.0, nsq = 0.0;
    for (coord_t i = 0; i < n; i++) {
        dot += xs[std::size_t(i)] * ys[std::size_t(i)];
        nsq += xs[std::size_t(i)] * xs[std::size_t(i)];
    }
    EXPECT_NEAR(ctx.value(d1), dot, 1e-9);
    EXPECT_NEAR(ctx.value(d2), nsq, 1e-9);
}

TEST(Pipeline, MemoizationHitsOnIsomorphicStreams)
{
    // Paper Fig 7: iteration i+1's stream is isomorphic to iteration
    // i's (fresh stores each round) and must replay the cached plan.
    // Trace replay (core/trace.h) would bypass the memoizer on the
    // repeated windows; disable it — this test pins the memo layer
    // itself (tests/test_trace.cc covers the trace layer).
    DiffuseOptions opts = optionsFor(true);
    opts.trace = 0;
    DiffuseRuntime rt(machineWith(4), opts);
    Context ctx(rt);
    const coord_t n = 128;
    NDArray x = ctx.random(n, 5);
    for (int iter = 0; iter < 5; iter++) {
        NDArray a = ctx.mulScalar(2.0, x);
        NDArray b = ctx.addScalar(a, 1.0);
        NDArray c = ctx.mul(b, b);
        a = b = NDArray();
        rt.flushWindow();
        (void)c;
    }
    EXPECT_EQ(rt.memoStats().misses, 1u);
    EXPECT_EQ(rt.memoStats().hits, 4u);
    // Only one fused kernel was ever compiled.
    EXPECT_LE(rt.compilerStats().plansLowered, 2);
}

TEST(Pipeline, MemoizationKeyDistinguishesLiveness)
{
    // Same task stream, but in round two the intermediate is still
    // referenced by the application: the cached plan (which eliminated
    // it) must NOT be reused.
    DiffuseRuntime rt(machineWith(4), optionsFor(true));
    Context ctx(rt);
    const coord_t n = 64;
    NDArray x = ctx.random(n, 5);

    NDArray a1 = ctx.mulScalar(2.0, x);
    NDArray b1 = ctx.addScalar(a1, 1.0);
    a1 = NDArray(); // dead: a1 is a temporary
    rt.flushWindow();
    EXPECT_EQ(rt.fusionStats().tempsEliminated, 1u);

    NDArray a2 = ctx.mulScalar(2.0, x);
    NDArray b2 = ctx.addScalar(a2, 1.0);
    rt.flushWindow(); // a2 still live -> different key, no temp
    EXPECT_EQ(rt.fusionStats().tempsEliminated, 1u);
    EXPECT_EQ(rt.memoStats().hits, 0u);

    auto a2v = ctx.toHost(a2);
    auto xv = ctx.toHost(x);
    for (coord_t i = 0; i < n; i++)
        EXPECT_DOUBLE_EQ(a2v[std::size_t(i)], 2.0 * xv[std::size_t(i)]);
    (void)b1;
    (void)b2;
}

TEST(Pipeline, WindowGrowsWhenFullWindowFuses)
{
    DiffuseRuntime rt(machineWith(2), optionsFor(true));
    Context ctx(rt);
    const coord_t n = 64;
    NDArray x = ctx.random(n, 5);
    NDArray acc = ctx.mulScalar(1.0, x);
    // A long fusible chain grows the window from its initial 5.
    for (int i = 0; i < 40; i++)
        acc = ctx.addScalar(acc, 1.0);
    rt.flushWindow();
    EXPECT_GT(rt.fusionStats().windowSize, 5);
    EXPECT_GT(rt.fusionStats().windowGrowths, 0u);
}

TEST(Pipeline, GemvMatchesReference)
{
    const coord_t n = 24;
    for (int gpus : {1, 4}) {
        DiffuseRuntime rt(machineWith(gpus), optionsFor(true));
        Context ctx(rt);
        NDArray a = ctx.random2d(n, n, 9);
        NDArray x = ctx.random(n, 10);
        NDArray y = ctx.matvec(a, x);
        auto av = ctx.toHost(a);
        auto xv = ctx.toHost(x);
        auto yv = ctx.toHost(y);
        for (coord_t i = 0; i < n; i++) {
            double sum = 0.0;
            for (coord_t j = 0; j < n; j++)
                sum += av[std::size_t(i * n + j)] * xv[std::size_t(j)];
            EXPECT_NEAR(yv[std::size_t(i)], sum, 1e-10);
        }
    }
}

TEST(Pipeline, InPlaceAxpyRw)
{
    DiffuseRuntime rt(machineWith(4), optionsFor(true));
    Context ctx(rt);
    const coord_t n = 100;
    NDArray x = ctx.random(n, 1);
    NDArray y = ctx.random(n, 2);
    NDArray alpha = ctx.scalar(0.5);
    auto x0 = ctx.toHost(x);
    auto yv = ctx.toHost(y);
    ctx.axpyInto(x, alpha, y, /*subtract=*/false);
    auto x1 = ctx.toHost(x);
    for (coord_t i = 0; i < n; i++) {
        EXPECT_NEAR(x1[std::size_t(i)],
                    x0[std::size_t(i)] + 0.5 * yv[std::size_t(i)],
                    1e-12);
    }
}

TEST(Pipeline, ScalarOpsSinglePointDomain)
{
    DiffuseRuntime rt(machineWith(8), optionsFor(true));
    Context ctx(rt);
    NDArray a = ctx.scalar(6.0);
    NDArray b = ctx.scalar(2.0);
    NDArray c = ctx.scalarDiv(a, b);
    NDArray d = ctx.scalarMul(c, c);
    NDArray e = ctx.scalarSqrt(d);
    EXPECT_NEAR(ctx.value(e), 3.0, 1e-12);
}

TEST(Pipeline, SimulatedModeMatchesRealModeStats)
{
    // Simulated and Real modes must agree on every scheduling
    // decision and on simulated time (the cost model is identical).
    auto run = [](rt::ExecutionMode mode) {
        DiffuseRuntime rt(machineWith(8),
                          optionsFor(true, mode));
        Context ctx(rt);
        const coord_t n = 4096;
        NDArray x = ctx.zeros(n, 1.0);
        NDArray y = ctx.zeros(n, 2.0);
        for (int i = 0; i < 3; i++) {
            NDArray z = ctx.mul(x, y);
            NDArray w = ctx.add(z, y);
            NDArray d = ctx.dot(w, y);
            (void)d;
        }
        rt.flushWindow();
        return std::make_tuple(rt.fusionStats().groupsLaunched,
                               rt.runtimeStats().simTime,
                               rt.runtimeStats().bytesHbm);
    };
    auto real = run(rt::ExecutionMode::Real);
    auto sim = run(rt::ExecutionMode::Simulated);
    EXPECT_EQ(std::get<0>(real), std::get<0>(sim));
    EXPECT_DOUBLE_EQ(std::get<1>(real), std::get<1>(sim));
    EXPECT_DOUBLE_EQ(std::get<2>(real), std::get<2>(sim));
}

} // namespace
} // namespace diffuse
