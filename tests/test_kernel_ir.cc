/**
 * @file
 * Unit tests for the kernel IR, passes and executor — the mini-MLIR
 * pipeline of paper §6 (Fig 8).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "kernel/compiler.h"
#include "kernel/exec.h"
#include "kernel/ir.h"
#include "kernel/passes.h"

namespace diffuse {
namespace kir {
namespace {

/** Build the element-wise addition kernel of paper Fig 8a. */
KernelFunction
makeAdd(int alias_a = -1, int alias_b = -1, int alias_c = -1)
{
    KernelFunction fn;
    fn.name = "add";
    fn.numArgs = 3;
    fn.buffers.resize(3);
    for (auto &b : fn.buffers) {
        b.dims = 1;
        b.shapeClass = 0;
    }
    fn.buffers[0].aliasClass = alias_a;
    fn.buffers[1].aliasClass = alias_b;
    fn.buffers[2].aliasClass = alias_c;
    LoopNest nest;
    nest.domainBuf = 2;
    BodyBuilder b(nest.body);
    b.store(2, b.binary(Op::Add, b.load(0), b.load(1)));
    fn.nests.push_back(std::move(nest));
    return fn;
}

BufferBinding
bindVec(std::vector<double> &v)
{
    BufferBinding b;
    b.base = v.data();
    b.dims = 1;
    b.extent[0] = coord_t(v.size());
    b.stride[0] = 1;
    return b;
}

TEST(Executor, SimpleAdd)
{
    KernelFunction fn = makeAdd();
    std::vector<double> a{1, 2, 3, 4}, b{10, 20, 30, 40}, c(4, 0.0);
    std::vector<BufferBinding> binds{bindVec(a), bindVec(b), bindVec(c)};
    Executor ex;
    ex.run(fn, binds, {});
    EXPECT_EQ(c, (std::vector<double>{11, 22, 33, 44}));
}

TEST(Executor, TranscendentalOps)
{
    KernelFunction fn;
    fn.numArgs = 2;
    fn.buffers.resize(2);
    for (auto &buf : fn.buffers) {
        buf.dims = 1;
        buf.shapeClass = 0;
    }
    LoopNest nest;
    nest.domainBuf = 1;
    BodyBuilder b(nest.body);
    int x = b.load(0);
    int e = b.unary(Op::Exp, x);
    int l = b.unary(Op::Log, e);
    int s = b.unary(Op::Sqrt, l);
    int er = b.unary(Op::Erf, s);
    b.store(1, er);
    fn.nests.push_back(std::move(nest));

    std::vector<double> in{0.25, 1.0, 4.0}, out(3, 0.0);
    std::vector<BufferBinding> binds{bindVec(in), bindVec(out)};
    Executor ex;
    ex.run(fn, binds, {});
    for (int i = 0; i < 3; i++)
        EXPECT_NEAR(out[i], std::erf(std::sqrt(in[i])), 1e-12);
}

TEST(Executor, BroadcastScalarBuffer)
{
    // A size-1 buffer broadcasts along the dense domain.
    KernelFunction fn = makeAdd();
    std::vector<double> a{1, 2, 3, 4}, s{100.0}, c(4, 0.0);
    std::vector<BufferBinding> binds{bindVec(a), bindVec(s), bindVec(c)};
    Executor ex;
    ex.run(fn, binds, {});
    EXPECT_EQ(c, (std::vector<double>{101, 102, 103, 104}));
}

TEST(Executor, Strided2dView)
{
    // 2-D view into a 4x4 parent: interior 2x2 starting at (1,1).
    KernelFunction fn;
    fn.numArgs = 2;
    fn.buffers.resize(2);
    for (auto &buf : fn.buffers) {
        buf.dims = 2;
        buf.shapeClass = 0;
    }
    LoopNest nest;
    nest.domainBuf = 1;
    BodyBuilder b(nest.body);
    b.store(1, b.binary(Op::Mul, b.load(0), b.constant(2.0)));
    fn.nests.push_back(std::move(nest));

    std::vector<double> parent(16), out(16, 0.0);
    for (int i = 0; i < 16; i++)
        parent[std::size_t(i)] = i;
    BufferBinding in;
    in.base = parent.data() + 5; // (1,1)
    in.dims = 2;
    in.extent[0] = in.extent[1] = 2;
    in.stride[0] = 4;
    in.stride[1] = 1;
    BufferBinding ob = in;
    ob.base = out.data() + 5;
    std::vector<BufferBinding> binds{in, ob};
    Executor ex;
    ex.run(fn, binds, {});
    EXPECT_EQ(out[5], 10.0);
    EXPECT_EQ(out[6], 12.0);
    EXPECT_EQ(out[9], 18.0);
    EXPECT_EQ(out[10], 20.0);
    EXPECT_EQ(out[0], 0.0);
}

TEST(Executor, ReductionAccumulatesIntoBinding)
{
    KernelFunction fn;
    fn.numArgs = 2;
    fn.buffers.resize(2);
    fn.buffers[0].dims = 1;
    fn.buffers[0].shapeClass = 0;
    fn.buffers[1].dims = 1;
    fn.buffers[1].shapeClass = 1;
    LoopNest nest;
    nest.domainBuf = 0;
    BodyBuilder b(nest.body);
    Reduction red;
    red.accBuf = 1;
    red.op = ReductionOp::Sum;
    red.srcReg = b.load(0);
    nest.reductions.push_back(red);
    fn.nests.push_back(std::move(nest));

    std::vector<double> in{1, 2, 3, 4}, acc{10.0};
    std::vector<BufferBinding> binds{bindVec(in), bindVec(acc)};
    Executor ex;
    ex.run(fn, binds, {});
    // Rd applies on top of the existing value.
    EXPECT_EQ(acc[0], 20.0);
}

/**
 * The full Fig 8 walk-through: two adds with a temporary middle array,
 * composed, temporary promoted to a local, loops fused, stores
 * forwarded, temporary eliminated.
 */
TEST(Passes, Figure8Pipeline)
{
    KernelFunction add1 = makeAdd();
    KernelFunction add2 = makeAdd();

    // Fused buffer table: a, b, d, e external; c local (the temp).
    std::vector<BufferInfo> buffers(5);
    for (auto &b : buffers) {
        b.dims = 1;
        b.shapeClass = 0;
    }
    buffers[4].isLocal = true;
    // add1: (a=0, b=1, c=4); add2: (c=4, d=2, e=3).
    std::vector<std::vector<int>> bmaps{{0, 1, 4}, {4, 2, 3}};
    std::vector<std::vector<int>> smaps{{}, {}};
    const KernelFunction *parts[] = {&add1, &add2};

    KernelFunction fn =
        compose("fused_add_add", parts, bmaps, smaps, buffers, 4, 0);
    ASSERT_EQ(fn.nests.size(), 2u);

    PipelineStats stats = optimize(fn);
    EXPECT_EQ(stats.loopsFused, 1);
    EXPECT_GE(stats.loadsForwarded, 1);
    EXPECT_EQ(stats.localsEliminated, 1);
    ASSERT_EQ(fn.nests.size(), 1u);
    EXPECT_TRUE(fn.buffers[4].eliminated);

    // The optimized kernel computes e = (a+b) + d in one pass.
    std::vector<double> a{1, 2}, b{10, 20}, d{100, 200}, e(2, 0.0);
    std::vector<BufferBinding> binds{bindVec(a), bindVec(b), bindVec(d),
                                     bindVec(e)};
    Executor ex;
    ex.run(fn, binds, {});
    EXPECT_EQ(e, (std::vector<double>{111, 222}));
}

TEST(Passes, LoopFusionRefusedAcrossAliasingBuffers)
{
    // Nest 1 writes buffer 2; nest 2 reads buffer 3 which aliases 2
    // (different views of one store): fusion must not merge them.
    KernelFunction add1 = makeAdd();
    KernelFunction add2 = makeAdd();
    std::vector<BufferInfo> buffers(6);
    for (auto &b : buffers) {
        b.dims = 1;
        b.shapeClass = 0;
    }
    buffers[2].aliasClass = 7;
    buffers[3].aliasClass = 7;
    std::vector<std::vector<int>> bmaps{{0, 1, 2}, {3, 4, 5}};
    std::vector<std::vector<int>> smaps{{}, {}};
    const KernelFunction *parts[] = {&add1, &add2};
    KernelFunction fn =
        compose("aliased", parts, bmaps, smaps, buffers, 6, 0);
    int fused = fuseLoops(fn);
    EXPECT_EQ(fused, 0);
    EXPECT_EQ(fn.nests.size(), 2u);
}

TEST(Passes, LoopFusionRequiresMatchingShapeClass)
{
    KernelFunction add1 = makeAdd();
    KernelFunction add2 = makeAdd();
    std::vector<BufferInfo> buffers(6);
    for (auto &b : buffers) {
        b.dims = 1;
        b.shapeClass = 0;
    }
    buffers[5].shapeClass = 1; // second output iterates another shape
    std::vector<std::vector<int>> bmaps{{0, 1, 2}, {3, 4, 5}};
    std::vector<std::vector<int>> smaps{{}, {}};
    const KernelFunction *parts[] = {&add1, &add2};
    KernelFunction fn =
        compose("shapes", parts, bmaps, smaps, buffers, 6, 0);
    EXPECT_EQ(fuseLoops(fn), 0);
}

TEST(Passes, ReductionAccumulatorIsALoopFusionBarrier)
{
    // Nest 1 reduces into buffer 2; nest 2 reads buffer 2 (a fused
    // single-point dot + axpy). The accumulator is complete only
    // after the loop, so the nests must stay sequential even though
    // their domains match (regression: caught by the randomized
    // fused-vs-unfused equivalence property).
    KernelFunction fn;
    fn.numArgs = 4; // x, acc, y, out
    fn.buffers.resize(4);
    for (auto &b : fn.buffers) {
        b.dims = 1;
        b.shapeClass = 0;
    }
    fn.buffers[1].shapeClass = 1; // scalar accumulator

    LoopNest dot;
    dot.domainBuf = 0;
    {
        BodyBuilder b(dot.body);
        Reduction red;
        red.accBuf = 1;
        red.op = ReductionOp::Sum;
        red.srcReg = b.load(0);
        dot.reductions.push_back(red);
    }
    LoopNest axpy;
    axpy.domainBuf = 2;
    {
        BodyBuilder b(axpy.body);
        int prod = b.binary(Op::Mul, b.load(1), b.load(2));
        b.store(3, prod);
    }
    fn.nests.push_back(dot);
    fn.nests.push_back(axpy);

    EXPECT_EQ(fuseLoops(fn), 0);
    ASSERT_EQ(fn.nests.size(), 2u);

    // And the sequential execution is numerically right.
    std::vector<double> x{1, 2, 3}, acc{0.0}, y{1, 1, 1}, out(3, 0.0);
    std::vector<BufferBinding> binds{bindVec(x), bindVec(acc),
                                     bindVec(y), bindVec(out)};
    Executor ex;
    ex.run(fn, binds, {});
    EXPECT_EQ(out, (std::vector<double>{6, 6, 6}));
}

TEST(Passes, DeadCodeKeepsExternalStores)
{
    // Stores to external buffers are never dead.
    KernelFunction fn = makeAdd();
    EXPECT_EQ(deadCodeElim(fn), 0);
    EXPECT_EQ(fn.nests[0].body.size(), 4u);
}

TEST(Passes, ForwardingInvalidatedByAliasingStore)
{
    // store %2 (alias 1); store %3 (alias 1); load %2 must NOT be
    // forwarded from the first store.
    KernelFunction fn;
    fn.numArgs = 5;
    fn.buffers.resize(5);
    for (auto &b : fn.buffers) {
        b.dims = 1;
        b.shapeClass = 0;
    }
    fn.buffers[2].aliasClass = 1;
    fn.buffers[3].aliasClass = 1;
    LoopNest nest;
    nest.domainBuf = 4;
    BodyBuilder b(nest.body);
    b.store(2, b.load(0));
    b.store(3, b.load(1));
    int r = b.load(2); // may have been clobbered by store %3
    b.store(4, r);
    fn.nests.push_back(std::move(nest));
    EXPECT_EQ(forwardStores(fn), 0);
}

TEST(Profile, DenseBytesAndFlops)
{
    KernelFunction fn = makeAdd();
    std::vector<double> a(8), b(8), c(8);
    std::vector<BufferBinding> binds{bindVec(a), bindVec(b), bindVec(c)};
    TaskCost cost = profileCost(fn, binds);
    EXPECT_EQ(cost.elements, 8);
    EXPECT_DOUBLE_EQ(cost.bytes, 8.0 * 8.0 * 3.0); // 2 loads + 1 store
    EXPECT_DOUBLE_EQ(cost.wflops, 8.0);
}

TEST(Profile, BroadcastBufferNotCharged)
{
    KernelFunction fn = makeAdd();
    std::vector<double> a(8), s(1), c(8);
    std::vector<BufferBinding> binds{bindVec(a), bindVec(s), bindVec(c)};
    TaskCost cost = profileCost(fn, binds);
    EXPECT_DOUBLE_EQ(cost.bytes, 8.0 * 8.0 * 2.0);
}

TEST(Compiler, StatsAccumulate)
{
    JitCompiler jit;
    auto k1 = jit.compileSingle(makeAdd());
    EXPECT_EQ(jit.stats().plansLowered, 1);
    EXPECT_GT(k1->cost.modeledSeconds, 0.0);
    EXPECT_GE(k1->cost.modeledSeconds, k1->cost.measuredSeconds);
}

TEST(Ir, RegisterCount)
{
    std::vector<Instr> body;
    BodyBuilder b(body);
    int r = b.binary(Op::Add, b.load(0), b.load(1));
    b.store(2, r);
    EXPECT_EQ(registerCount(body), 3);
}

TEST(Ir, FlopWeightsOrdering)
{
    EXPECT_LT(opFlopWeight(Op::Add), opFlopWeight(Op::Div));
    EXPECT_LT(opFlopWeight(Op::Div), opFlopWeight(Op::Exp));
    EXPECT_LT(opFlopWeight(Op::Exp), opFlopWeight(Op::Erf));
    EXPECT_EQ(opFlopWeight(Op::LoadBuf), 0.0);
}

} // namespace
} // namespace kir
} // namespace diffuse
