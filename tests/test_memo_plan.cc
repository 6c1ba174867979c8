/**
 * @file
 * Memoization of executable plans: a memo hit must reuse the cached
 * kernel's ExecutablePlan pointer — no codegen AND no plan
 * re-lowering — and the stats must expose the lowering count.
 */

#include <gtest/gtest.h>

#include "core/memo.h"
#include "cunumeric/ndarray.h"
#include "kernel/compiler.h"

namespace diffuse {
namespace {

kir::KernelFunction
makeAdd()
{
    kir::KernelFunction fn;
    fn.name = "add";
    fn.numArgs = 3;
    fn.buffers.resize(3);
    for (auto &b : fn.buffers) {
        b.dims = 1;
        b.shapeClass = 0;
    }
    kir::LoopNest nest;
    nest.domainBuf = 2;
    kir::BodyBuilder b(nest.body);
    b.store(2, b.binary(kir::Op::Add, b.load(0), b.load(1)));
    fn.nests.push_back(std::move(nest));
    return fn;
}

TEST(MemoPlan, CompilerLowersPlanWithKernel)
{
    kir::JitCompiler jit;
    auto k = jit.compileSingle(makeAdd());
    ASSERT_NE(k->plan, nullptr);
    EXPECT_EQ(jit.stats().plansLowered, 1);
    ASSERT_EQ(k->plan->nests.size(), 1u);
    EXPECT_GT(k->plan->stripWidth, 0);
}

TEST(MemoPlan, HitReusesSamePlanPointer)
{
    kir::JitCompiler jit;
    auto kernel = jit.compileSingle(makeAdd());
    const kir::ExecutablePlan *plan_ptr = kernel->plan.get();

    Memoizer memo;
    (void)memo.getOrBuild("key", [&] {
        CachedGroup group;
        group.kernel = kernel;
        return group;
    });
    EXPECT_EQ(memo.stats().plansLowered, 1u);

    for (int i = 0; i < 3; i++) {
        const CachedGroup *hit =
            memo.getOrBuild("key", []() -> CachedGroup {
                ADD_FAILURE() << "a hit rebuilt the plan";
                return {};
            });
        ASSERT_NE(hit, nullptr);
        // The pointer identity IS the no-re-lowering guarantee.
        EXPECT_EQ(hit->kernel->plan.get(), plan_ptr);
    }
    EXPECT_EQ(memo.stats().hits, 3u);
    EXPECT_EQ(memo.stats().plansLowered, 1u);
    EXPECT_EQ(jit.stats().plansLowered, 1);
}

TEST(MemoPlan, SteadyStateLowersNoFurtherPlans)
{
    DiffuseOptions o;
    o.mode = rt::ExecutionMode::Real;
    // Pin the memoizer path: with tracing on, steady-state windows
    // replay above the memoizer and its hit counter stops moving
    // (tests/test_trace.cc covers that layer's no-recompile claim).
    o.trace = 0;
    DiffuseRuntime rt(rt::MachineConfig::withGpus(4), o);
    num::Context ctx(rt);
    const coord_t n = 512;
    num::NDArray x = ctx.random(n, 7);
    num::NDArray y = ctx.random(n, 8);

    auto step = [&] {
        num::NDArray z = ctx.mulScalar(2.0, x);
        num::NDArray w = ctx.add(y, z);
        num::NDArray v = ctx.mul(w, w);
        ctx.assign(x, v);
        rt.flushWindow();
    };

    step(); // warmup: compiles + lowers the group's plan
    step(); // second iteration may still grow the window shape
    int after_warmup = rt.compilerStats().plansLowered;
    std::uint64_t hits_before = rt.memoStats().hits;
    for (int i = 0; i < 8; i++)
        step();
    EXPECT_EQ(rt.compilerStats().plansLowered, after_warmup);
    EXPECT_GT(rt.memoStats().hits, hits_before);
}

} // namespace
} // namespace diffuse
