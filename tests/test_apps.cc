/**
 * @file
 * Application tests: numerical validity (Black-Scholes against a host
 * reference; conservation-style sanity for CFD/SWE), fused == unfused
 * equivalence for every app, and the task-stream structure the paper
 * reports in Fig 9 (fusion compresses each app's stream).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>

#include "apps/apps.h"

namespace diffuse {
namespace {

DiffuseOptions
opts(bool fuse)
{
    DiffuseOptions o;
    o.fusionEnabled = fuse;
    return o;
}

TEST(BlackScholesApp, MatchesHostReference)
{
    DiffuseRuntime rt(rt::MachineConfig::withGpus(4), opts(true));
    num::Context ctx(rt);
    apps::BlackScholes bs(ctx, 64);
    bs.step();
    rt.flushWindow();

    // Rebuild the same inputs (same seeds) for the reference.
    DiffuseRuntime rt2(rt::MachineConfig::withGpus(4), opts(false));
    num::Context ctx2(rt2);
    num::NDArray s = ctx2.random(256, 101, 10.0, 100.0);
    num::NDArray k = ctx2.random(256, 102, 10.0, 100.0);
    num::NDArray t = ctx2.random(256, 103, 0.25, 2.0);
    std::vector<double> call_ref, put_ref;
    apps::BlackScholes::reference(
        ctx2.toHost(s), ctx2.toHost(k), ctx2.toHost(t),
        apps::BlackScholes::RATE, apps::BlackScholes::VOLATILITY,
        call_ref, put_ref);

    auto call = ctx.toHost(bs.call());
    auto put = ctx.toHost(bs.put());
    ASSERT_EQ(call.size(), call_ref.size());
    for (std::size_t i = 0; i < call.size(); i++) {
        EXPECT_NEAR(call[i], call_ref[i], 1e-9);
        EXPECT_NEAR(put[i], put_ref[i], 1e-9);
    }
}

TEST(BlackScholesApp, WholeIterationFusesToOneTask)
{
    DiffuseRuntime rt(rt::MachineConfig::withGpus(4), opts(true));
    num::Context ctx(rt);
    apps::BlackScholes bs(ctx, 32);
    // Warm the window up (it grows while full windows keep fusing).
    for (int i = 0; i < 4; i++) {
        bs.step();
        rt.flushWindow();
    }
    rt.fusionStats().reset();
    bs.step();
    rt.flushWindow();
    EXPECT_GT(rt.fusionStats().tasksSubmitted, 20u);
    EXPECT_EQ(rt.fusionStats().groupsLaunched, 1u);
}

TEST(JacobiApp, ConvergesAndFusesToTwoTasks)
{
    DiffuseRuntime rt(rt::MachineConfig::withGpus(4), opts(true));
    num::Context ctx(rt);
    apps::Jacobi jac(ctx, 48);
    for (int i = 0; i < 3; i++) {
        jac.step();
        rt.flushWindow();
    }
    rt.fusionStats().reset();
    jac.step();
    rt.flushWindow();
    // GEMV + fused(sub, mul): 3 submitted, 2 launched (paper Fig 9).
    EXPECT_EQ(rt.fusionStats().tasksSubmitted, 3u);
    EXPECT_EQ(rt.fusionStats().groupsLaunched, 2u);

    // Jacobi on the diagonally dominant system converges.
    for (int i = 0; i < 60; i++)
        jac.step();
    num::NDArray xs = ctx.mulScalar(1.0, jac.x());
    auto x1 = ctx.toHost(xs);
    jac.step();
    auto x2 = ctx.toHost(jac.x());
    double delta = 0.0;
    for (std::size_t i = 0; i < x1.size(); i++)
        delta = std::max(delta, std::abs(x1[i] - x2[i]));
    EXPECT_LT(delta, 1e-10);
}

TEST(StencilApp, FusedMatchesUnfusedAcrossGpuCounts)
{
    for (int gpus : {1, 2, 8}) {
        std::vector<double> grids[2];
        for (bool fuse : {false, true}) {
            DiffuseRuntime rt(rt::MachineConfig::withGpus(gpus),
                              opts(fuse));
            num::Context ctx(rt);
            apps::Stencil st(ctx, 24);
            for (int i = 0; i < 5; i++)
                st.step();
            grids[fuse] = ctx.toHost(st.grid());
        }
        ASSERT_EQ(grids[0].size(), grids[1].size());
        for (std::size_t i = 0; i < grids[0].size(); i++)
            EXPECT_NEAR(grids[0][i], grids[1][i], 1e-12)
                << "gpus=" << gpus;
    }
}

TEST(StencilApp, HugePageStepMatchesScalarOracleBitwise)
{
    // n = 2048: the 2050^2 grid and the 2048^2 `work` temporary reach
    // RawBuffer's 32 MiB huge-page threshold, and the fused step reads
    // its five grid views in place. One step must equal the same step
    // under DIFFUSE_SCALAR_EXEC=1 bit for bit.
    struct ScalarExec
    {
        explicit ScalarExec(bool on)
        {
            if (on)
                setenv("DIFFUSE_SCALAR_EXEC", "1", 1);
        }
        ~ScalarExec() { unsetenv("DIFFUSE_SCALAR_EXEC"); }
    };
    const coord_t n = 2048;
    for (int workers : {1, 4}) {
        std::vector<double> grids[2];
        for (bool scalar : {false, true}) {
            ScalarExec env(scalar);
            DiffuseOptions o = opts(true);
            o.workers = workers;
            DiffuseRuntime rt(rt::MachineConfig::withGpus(4), o);
            num::Context ctx(rt);
            apps::Stencil st(ctx, n);
            st.step();
            grids[scalar] = ctx.toHost(st.grid());
        }
        ASSERT_EQ(grids[0].size(), grids[1].size());
        EXPECT_EQ(std::memcmp(grids[0].data(), grids[1].data(),
                              grids[0].size() * sizeof(double)),
                  0)
            << "workers " << workers;
    }
}

TEST(CfdApp, FusedMatchesUnfused)
{
    for (int gpus : {1, 4}) {
        std::vector<double> fields[2];
        for (bool fuse : {false, true}) {
            DiffuseRuntime rt(rt::MachineConfig::withGpus(gpus),
                              opts(fuse));
            num::Context ctx(rt);
            apps::Cfd cfd(ctx, 20, 16, 4);
            for (int i = 0; i < 3; i++)
                cfd.step();
            auto u = ctx.toHost(cfd.u());
            auto p = ctx.toHost(cfd.p());
            u.insert(u.end(), p.begin(), p.end());
            fields[fuse] = u;
        }
        for (std::size_t i = 0; i < fields[0].size(); i++)
            EXPECT_NEAR(fields[0][i], fields[1][i], 1e-10)
                << "gpus=" << gpus;
    }
}

TEST(CfdApp, SingleGpuFusesMoreThanMultiGpu)
{
    // Paper §7.1: "On a single GPU, data is not partitioned, enabling
    // longer sequences of tasks to satisfy fusion constraints."
    auto groups_per_step = [](int gpus) {
        DiffuseRuntime rt(rt::MachineConfig::withGpus(gpus),
                          opts(true));
        num::Context ctx(rt);
        apps::Cfd cfd(ctx, 20, 16, 4);
        for (int i = 0; i < 3; i++) {
            cfd.step();
            rt.flushWindow();
        }
        rt.fusionStats().reset();
        cfd.step();
        rt.flushWindow();
        return double(rt.fusionStats().groupsLaunched) /
               double(rt.fusionStats().tasksSubmitted);
    };
    EXPECT_LT(groups_per_step(1), groups_per_step(8));
}

TEST(SweApp, NaturalAndManualAgree)
{
    std::vector<double> results[2];
    for (auto variant : {apps::ShallowWater::Variant::Natural,
                         apps::ShallowWater::Variant::Manual}) {
        DiffuseRuntime rt(rt::MachineConfig::withGpus(4), opts(true));
        num::Context ctx(rt);
        apps::ShallowWater swe(ctx, 20, variant);
        for (int i = 0; i < 3; i++)
            swe.step();
        results[variant == apps::ShallowWater::Variant::Manual] =
            ctx.toHost(swe.h());
    }
    for (std::size_t i = 0; i < results[0].size(); i++)
        EXPECT_NEAR(results[0][i], results[1][i], 1e-10);
}

TEST(SweApp, FusedMatchesUnfused)
{
    std::vector<double> results[2];
    for (bool fuse : {false, true}) {
        DiffuseRuntime rt(rt::MachineConfig::withGpus(4), opts(fuse));
        num::Context ctx(rt);
        apps::ShallowWater swe(ctx, 16,
                               apps::ShallowWater::Variant::Natural);
        for (int i = 0; i < 4; i++)
            swe.step();
        results[fuse] = ctx.toHost(swe.h());
    }
    for (std::size_t i = 0; i < results[0].size(); i++)
        EXPECT_NEAR(results[0][i], results[1][i], 1e-10);
}

TEST(SweApp, DiffuseCompressesMoreThanManualVectorization)
{
    // The manually vectorized variant reduces the submitted stream,
    // but Diffuse on the natural code launches fewer groups — the
    // paper's "fusion opportunities missed by developers" (Fig 12c).
    auto launched = [](apps::ShallowWater::Variant v, bool fuse) {
        DiffuseRuntime rt(rt::MachineConfig::withGpus(4), opts(fuse));
        num::Context ctx(rt);
        apps::ShallowWater swe(ctx, 20, v);
        for (int i = 0; i < 3; i++) {
            swe.step();
            rt.flushWindow();
        }
        rt.fusionStats().reset();
        swe.step();
        rt.flushWindow();
        return rt.fusionStats().groupsLaunched;
    };
    auto natural_unfused =
        launched(apps::ShallowWater::Variant::Natural, false);
    auto manual_unfused =
        launched(apps::ShallowWater::Variant::Manual, false);
    auto natural_fused =
        launched(apps::ShallowWater::Variant::Natural, true);
    EXPECT_LT(manual_unfused, natural_unfused);
    EXPECT_LT(natural_fused, manual_unfused);
}

} // namespace
} // namespace diffuse
