/**
 * @file
 * Differential battery for the native JIT backend (kernel/codegen.h):
 * every row of the op table (kernel/ops.h), every addressing class
 * (contiguous / strided / broadcast / transposed-stride), strip widths
 * 1, 3 and 256, and domain sizes that are not strip multiples —
 * replayed bitwise against BOTH the tape interpreter and the scalar
 * oracle. Plus the degradation ladder: per-nest fallback for
 * inexpressible nests, whole-kernel fallback on toolchain failure, and
 * structural checks on the generated C source (two-rounding-step
 * triads, function-table transcendentals).
 */

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "kernel/codegen.h"
#include "kernel/compiler.h"
#include "kernel/exec.h"
#include "kernel/ir.h"
#include "kernel/plan.h"

namespace diffuse {
namespace kir {
namespace {

const int kStrips[] = {1, 3, 256};

/** Bitwise comparison of two double vectors. */
::testing::AssertionResult
bitEqual(const std::vector<double> &a, const std::vector<double> &b)
{
    if (a.size() != b.size())
        return ::testing::AssertionFailure() << "size mismatch";
    for (std::size_t i = 0; i < a.size(); i++) {
        if (std::memcmp(&a[i], &b[i], sizeof(double)) != 0) {
            return ::testing::AssertionFailure()
                   << "element " << i << ": " << a[i] << " vs " << b[i];
        }
    }
    return ::testing::AssertionSuccess();
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

/** Deterministic quasi-random fill, including negatives and zeros. */
void
fill(std::vector<double> &v, int seed)
{
    for (std::size_t i = 0; i < v.size(); i++) {
        double x = std::sin(double(i * 37 + seed * 101)) * 3.0;
        if (i % 13 == 0)
            x = 0.0;
        v[i] = x;
    }
}

/** Distinct canonical key per attach (the runtime feeds memoizer
 * encodings; the backend only requires uniqueness per kernel). */
std::string
nextKey()
{
    static int n = 0;
    return "jit_test_key_" + std::to_string(n++);
}

/** A backend in memory-only mode, isolated from the process-global
 * module registry so each test observes its own compiles. */
JitBackend
makeBackend()
{
    JitBackend::Config cfg;
    cfg.shareProcessModules = false;
    return JitBackend(cfg);
}

/** Lower `fn` at `w` and attach a JIT module. */
CompiledKernel
jitKernel(JitBackend &be, const KernelFunction &fn, int w)
{
    CompiledKernel k;
    k.fn = fn;
    k.plan = std::make_shared<const ExecutablePlan>(lowerPlan(fn, w));
    be.attach(nextKey(), k);
    return k;
}

/** A body exercising every opcode (mirrors the vector-executor
 * battery: each op's result feeds the output, domains kept finite). */
KernelFunction
makeEveryOpKernel(int dims)
{
    KernelFunction fn;
    fn.name = "every_op";
    fn.numArgs = 3; // in0, in1, out
    fn.numScalars = 1;
    fn.buffers.resize(3);
    for (auto &b : fn.buffers) {
        b.dims = dims;
        b.shapeClass = 0;
    }
    LoopNest nest;
    nest.domainBuf = 2;
    BodyBuilder b(nest.body);
    int x = b.load(0);
    int y = b.load(1);
    int s = b.scalar(0);
    int c = b.constant(1.25);
    int add = b.binary(Op::Add, x, y);
    int sub = b.binary(Op::Sub, add, s);
    int mul = b.binary(Op::Mul, sub, c);
    int div = b.binary(Op::Div, mul, b.constant(3.0));
    int mx = b.binary(Op::Max, div, x);
    int mn = b.binary(Op::Min, mx, y);
    int abs = b.unary(Op::Abs, mn);
    int pw = b.binary(Op::Pow, abs, c);
    int ng = b.unary(Op::Neg, pw);
    int sq = b.unary(Op::Sqrt, abs);
    int ex = b.unary(Op::Exp, mn);
    int lg = b.unary(Op::Log, ex);
    int er = b.unary(Op::Erf, lg);
    int lt = b.binary(Op::CmpLt, x, y);
    int gt = b.binary(Op::CmpGt, x, y);
    int sel = b.select(lt, ng, sq);
    int sel2 = b.select(gt, sel, er);
    int cp = b.unary(Op::Copy, sel2);
    b.store(2, cp);
    fn.nests.push_back(std::move(nest));
    return fn;
}

/**
 * Run `fn` three ways — scalar oracle, tape interpreter, JIT — at
 * every strip width and compare the full output allocations bitwise.
 * Requires the JIT to actually engage (module attached with a live
 * entry point for nest 0): a silently falling-back battery would test
 * nothing.
 */
void
expectTripleMatch(const KernelFunction &fn,
                  std::vector<BufferBinding> binds,
                  std::vector<double> &out_alloc,
                  std::span<const double> scalars,
                  const std::vector<double> &out_init)
{
    Executor ex;
    out_alloc = out_init;
    ex.runScalar(fn, binds, scalars);
    std::vector<double> want = out_alloc;

    JitBackend be = makeBackend();
    for (int w : kStrips) {
        ExecutablePlan plan = lowerPlan(fn, w);
        out_alloc = out_init;
        ex.run(fn, plan, binds, scalars);
        EXPECT_TRUE(bitEqual(out_alloc, want))
            << "interpreter, strip width " << w;

        CompiledKernel k = jitKernel(be, fn, w);
        ASSERT_NE(k.jit, nullptr) << "strip width " << w;
        ASSERT_NE(k.jit->nest(0), nullptr) << "strip width " << w;
        out_alloc = out_init;
        ex.run(fn, *k.plan, binds, scalars, k.jit.get());
        EXPECT_TRUE(bitEqual(out_alloc, want))
            << "jit, strip width " << w;
    }
    EXPECT_EQ(be.stats().compileFailures, 0u);
}

TEST(JitCodegen, EveryOpContiguous1d)
{
    KernelFunction fn = makeEveryOpKernel(1);
    const coord_t n = 777; // not a multiple of 1, 3 or 256
    std::vector<double> a(n), b(n), out(n, 0.0);
    fill(a, 1);
    fill(b, 2);
    std::vector<BufferBinding> binds{bindVec(a), bindVec(b),
                                     bindVec(out)};
    double scal = 0.75;
    expectTripleMatch(fn, binds, out, std::span(&scal, 1),
                      std::vector<double>(n, 0.0));
}

TEST(JitCodegen, EveryOpStrided1d)
{
    KernelFunction fn = makeEveryOpKernel(1);
    const coord_t n = 257;
    std::vector<double> a(3 * n), b(2 * n), out(4 * n, -7.5);
    fill(a, 3);
    fill(b, 4);
    BufferBinding ba = bindVec(a);
    ba.extent[0] = n;
    ba.stride[0] = 3;
    BufferBinding bb = bindVec(b);
    bb.extent[0] = n;
    bb.stride[0] = 2;
    BufferBinding bo = bindVec(out);
    bo.extent[0] = n;
    bo.stride[0] = 4;
    double scal = -0.5;
    expectTripleMatch(fn, {ba, bb, bo}, out, std::span(&scal, 1),
                      std::vector<double>(4 * n, -7.5));
}

TEST(JitCodegen, EveryOpBroadcast1d)
{
    KernelFunction fn = makeEveryOpKernel(1);
    const coord_t n = 1000;
    std::vector<double> a(n), s{2.5}, out(n, 0.0);
    fill(a, 5);
    std::vector<BufferBinding> binds{bindVec(a), bindVec(s),
                                     bindVec(out)};
    double scal = 1.5;
    expectTripleMatch(fn, binds, out, std::span(&scal, 1),
                      std::vector<double>(n, 0.0));
}

TEST(JitCodegen, EveryOp2dRowMajorAndBroadcastColumn)
{
    KernelFunction fn = makeEveryOpKernel(2);
    const coord_t rows = 5, cols = 13; // cols not a strip multiple
    std::vector<double> a(rows * cols), col(rows), out(rows * cols, 0.0);
    fill(a, 6);
    fill(col, 7);
    BufferBinding ba;
    ba.base = a.data();
    ba.dims = 2;
    ba.extent[0] = rows;
    ba.extent[1] = cols;
    ba.stride[0] = cols;
    ba.stride[1] = 1;
    BufferBinding bc; // extent-1 inner dim: broadcast along columns
    bc.base = col.data();
    bc.dims = 2;
    bc.extent[0] = rows;
    bc.extent[1] = 1;
    bc.stride[0] = 1;
    bc.stride[1] = 0;
    BufferBinding bo = ba;
    bo.base = out.data();
    double scal = 0.25;
    expectTripleMatch(fn, {ba, bc, bo}, out, std::span(&scal, 1),
                      std::vector<double>(rows * cols, 0.0));
}

TEST(JitCodegen, EveryOp2dTransposedStride)
{
    KernelFunction fn = makeEveryOpKernel(2);
    const coord_t rows = 7, cols = 11;
    // `a` is a transposed view: the inner loop walks stride `rows`.
    std::vector<double> parent(rows * cols), b(rows * cols),
        out(rows * cols, 0.0);
    fill(parent, 8);
    fill(b, 9);
    BufferBinding ba;
    ba.base = parent.data();
    ba.dims = 2;
    ba.extent[0] = rows;
    ba.extent[1] = cols;
    ba.stride[0] = 1;
    ba.stride[1] = rows;
    BufferBinding bb;
    bb.base = b.data();
    bb.dims = 2;
    bb.extent[0] = rows;
    bb.extent[1] = cols;
    bb.stride[0] = cols;
    bb.stride[1] = 1;
    BufferBinding bo = ba; // transposed-stride store target
    bo.base = out.data();
    double scal = 2.0;
    expectTripleMatch(fn, {ba, bb, bo}, out, std::span(&scal, 1),
                      std::vector<double>(rows * cols, 0.0));
}

/**
 * Append to `b` a body that lowers to tape op `op`, built from the
 * scalar ops lowering derives it from: x, y and z are loads, k and k2
 * loop invariants. Returns the result register, or -1 when `op` has
 * no recipe (a new table row needs one here).
 */
int
buildTableOp(BodyBuilder &b, VecOp op, int x, int y, int z, int k,
             int k2)
{
    auto bin = [&](Op o, int p, int q) { return b.binary(o, p, q); };
    auto mul = [&](int p, int q) { return b.binary(Op::Mul, p, q); };
    switch (op) {
      case VecOp::Copy: return b.unary(Op::Copy, x);
      case VecOp::Add: return bin(Op::Add, x, y);
      case VecOp::Sub: return bin(Op::Sub, x, y);
      case VecOp::Mul: return bin(Op::Mul, x, y);
      case VecOp::Div: return bin(Op::Div, x, y);
      case VecOp::Max: return bin(Op::Max, x, y);
      case VecOp::Min: return bin(Op::Min, x, y);
      case VecOp::Pow: return bin(Op::Pow, x, y);
      case VecOp::Neg: return b.unary(Op::Neg, x);
      case VecOp::Sqrt: return b.unary(Op::Sqrt, x);
      case VecOp::Exp: return b.unary(Op::Exp, x);
      case VecOp::Log: return b.unary(Op::Log, x);
      case VecOp::Erf: return b.unary(Op::Erf, x);
      case VecOp::Abs: return b.unary(Op::Abs, x);
      case VecOp::CmpLt: return bin(Op::CmpLt, x, y);
      case VecOp::CmpGt: return bin(Op::CmpGt, x, y);
      case VecOp::Select: return b.select(x, y, z);
      case VecOp::AddK: return bin(Op::Add, x, k);
      case VecOp::SubK: return bin(Op::Sub, x, k);
      case VecOp::RsubK: return bin(Op::Sub, k, x);
      case VecOp::MulK: return bin(Op::Mul, x, k);
      case VecOp::DivK: return bin(Op::Div, x, k);
      case VecOp::RdivK: return bin(Op::Div, k, x);
      case VecOp::MaxK: return bin(Op::Max, x, k);
      case VecOp::MinK: return bin(Op::Min, x, k);
      case VecOp::PowK: return bin(Op::Pow, x, k);
      case VecOp::CmpLtK: return bin(Op::CmpLt, x, k);
      case VecOp::CmpGtK: return bin(Op::CmpGt, x, k);
      case VecOp::MulAdd: return bin(Op::Add, mul(x, y), z);
      case VecOp::AddMul: return bin(Op::Add, z, mul(x, y));
      case VecOp::MulSub: return bin(Op::Sub, mul(x, y), z);
      case VecOp::SubMul: return bin(Op::Sub, z, mul(x, y));
      case VecOp::MulAddK: return bin(Op::Add, mul(x, y), k);
      case VecOp::MulSubK: return bin(Op::Sub, mul(x, y), k);
      case VecOp::MulRsubK: return bin(Op::Sub, k, mul(x, y));
      case VecOp::MulKAdd: return bin(Op::Add, mul(x, k), z);
      case VecOp::AddMulK: return bin(Op::Add, z, mul(x, k));
      case VecOp::MulKSub: return bin(Op::Sub, mul(x, k), z);
      case VecOp::SubMulK: return bin(Op::Sub, z, mul(x, k));
      case VecOp::MulKAddK: return bin(Op::Add, mul(x, k), k2);
      case VecOp::MulKSubK: return bin(Op::Sub, mul(x, k), k2);
      case VecOp::MulKRsubK: return bin(Op::Sub, k2, mul(x, k));
      default: return -1;
    }
}

struct TableRow
{
    VecOp op;
    const char *name;
};

/** Every row of the op table, in table order. */
std::vector<TableRow>
tableRows()
{
#define DIFFUSE_TEST_ROW(Name, ...) TableRow{VecOp::Name, #Name},
    return {DIFFUSE_TAPE_OPS(DIFFUSE_TEST_ROW, DIFFUSE_TEST_ROW)};
#undef DIFFUSE_TEST_ROW
}

/**
 * One nest per table row over the shared inputs x, y, z (args 0-2);
 * the nest for row i stores into arg 3 + i. K and K2 are the literals
 * -0 and +0, or scalars 0 and 1 when `scalar_k` is set.
 */
KernelFunction
makeTableKernel(const std::vector<TableRow> &rows, bool scalar_k)
{
    KernelFunction fn;
    fn.name = "op_table";
    fn.numArgs = 3 + int(rows.size());
    fn.numScalars = 2;
    fn.buffers.resize(std::size_t(fn.numArgs));
    for (auto &buf : fn.buffers) {
        buf.dims = 1;
        buf.shapeClass = 0;
    }
    for (std::size_t i = 0; i < rows.size(); i++) {
        LoopNest nest;
        nest.domainBuf = 3 + int(i);
        BodyBuilder b(nest.body);
        int x = b.load(0), y = b.load(1), z = b.load(2);
        int k1 = scalar_k ? b.scalar(0) : b.constant(-0.0);
        int k2 = scalar_k ? b.scalar(1) : b.constant(0.0);
        int r = buildTableOp(b, rows[i].op, x, y, z, k1, k2);
        EXPECT_GE(r, 0) << "no recipe for " << rows[i].name;
        b.store(nest.domainBuf, r < 0 ? x : r);
        fn.nests.push_back(std::move(nest));
    }
    return fn;
}

TEST(JitCodegen, EveryTableOpMatchesOracleInAllEngines)
{
    const std::vector<TableRow> rows = tableRows();
    const coord_t n = 517; // not a multiple of 3 or 256
    std::vector<double> x(n), y(n), z(n);
    fill(x, 41);
    fill(y, 42);
    fill(z, 43);
    for (coord_t i = 0; i < n; i++) {
        if (i % 7 == 3)
            y[i] = x[i]; // equal pairs
        if (i % 11 == 5) {
            x[i] = 0.0; // +0 against -0, both orders
            y[i] = -0.0;
        } else if (i % 11 == 6) {
            x[i] = -0.0;
            y[i] = 0.0;
        }
    }
    // K pairs: signed zeros against the signed-zero inputs (the
    // Max/Min tie-break), then ordinary values.
    const std::vector<std::array<double, 2>> pairs = {
        {0.0, -0.0}, {-0.0, 0.0}, {1.5, -0.75}};

    std::vector<std::vector<double>> outs(rows.size());
    std::vector<BufferBinding> binds{bindVec(x), bindVec(y), bindVec(z)};
    for (auto &o : outs) {
        o.assign(std::size_t(n), 0.0);
        binds.push_back(bindVec(o));
    }
    Executor ex;
    auto runAll = [&](const KernelFunction &fn, std::span<const double> sc,
                      const ExecutablePlan *plan, const JitModule *jit) {
        for (auto &o : outs)
            std::fill(o.begin(), o.end(), 0.0);
        if (plan == nullptr)
            ex.runScalar(fn, binds, sc);
        else
            ex.run(fn, *plan, binds, sc, jit);
        return outs;
    };

    // K and K2 as literals baked into the tape (-0 and +0), then as
    // scalars that take every pair at run time.
    JitBackend be = makeBackend();
    for (bool scalar_k : {false, true}) {
        KernelFunction fn = makeTableKernel(rows, scalar_k);
        ExecutablePlan probe = lowerPlan(fn, 256);
        for (std::size_t i = 0; i < rows.size(); i++) {
            bool found = false;
            for (const VecInstr &ins : probe.nests[i].dense.tape)
                found = found || ins.op == rows[i].op;
            EXPECT_TRUE(found) << rows[i].name << " not in its tape";
        }
        for (int w : kStrips) {
            CompiledKernel k = jitKernel(be, fn, w);
            ASSERT_NE(k.jit, nullptr) << "strip width " << w;
            for (std::size_t i = 0; i < rows.size(); i++)
                ASSERT_NE(k.jit->nest(int(i)), nullptr) << rows[i].name;
            for (const auto &pair : pairs) {
                std::span<const double> sc(pair);
                auto want = runAll(fn, sc, nullptr, nullptr);
                auto vm = runAll(fn, sc, k.plan.get(), nullptr);
                auto jit = runAll(fn, sc, k.plan.get(), k.jit.get());
                for (std::size_t i = 0; i < rows.size(); i++) {
                    EXPECT_TRUE(bitEqual(vm[i], want[i]))
                        << rows[i].name << ": vm, strip " << w
                        << ", scalar K " << scalar_k << ", K " << sc[0];
                    EXPECT_TRUE(bitEqual(jit[i], want[i]))
                        << rows[i].name << ": jit, strip " << w
                        << ", scalar K " << scalar_k << ", K " << sc[0];
                }
            }
        }
    }
    EXPECT_EQ(be.stats().compileFailures, 0u);
}

/** The triad kernel: every fused multiply-accumulate form. */
KernelFunction
makeTriadKernel()
{
    KernelFunction fn;
    fn.name = "triads";
    fn.numArgs = 4;
    fn.buffers.resize(4);
    for (auto &buf : fn.buffers) {
        buf.dims = 1;
        buf.shapeClass = 0;
    }
    LoopNest nest;
    nest.domainBuf = 3;
    BodyBuilder b(nest.body);
    int x = b.load(0);
    int y = b.load(1);
    int z = b.load(2);
    int r1 = b.binary(Op::Add, b.binary(Op::Mul, x, y), z); // MulAdd
    int r2 = b.binary(Op::Add, y, b.binary(Op::Mul, x, z)); // AddMul
    int r3 = b.binary(Op::Sub, b.binary(Op::Mul, y, z), x); // MulSub
    int r4 = b.binary(Op::Sub, z, b.binary(Op::Mul, x, y)); // SubMul
    int r5 = b.binary(Op::Add, b.binary(Op::Mul, r1, r2),
                      b.constant(2.5));                     // MulAddK
    int r6 = b.binary(Op::Sub, b.binary(Op::Mul, r3, r4),
                      b.constant(1.5));                     // MulSubK
    int r7 = b.binary(Op::Sub, b.constant(4.0),
                      b.binary(Op::Mul, r5, r6));           // MulRsubK
    b.store(3, r7);
    fn.nests.push_back(std::move(nest));
    return fn;
}

TEST(JitCodegen, FusedTriadsKeepTwoRoundingSteps)
{
    KernelFunction fn = makeTriadKernel();
    const coord_t n = 777;
    std::vector<double> a(n), c(n), e(n), out(n, 0.0);
    fill(a, 21);
    fill(c, 22);
    fill(e, 23);
    std::vector<BufferBinding> binds{bindVec(a), bindVec(c), bindVec(e),
                                     bindVec(out)};
    expectTripleMatch(fn, binds, out, {},
                      std::vector<double>(n, 0.0));
}

TEST(JitCodegen, ReductionLaneOrderIdentity)
{
    // The generated code must fold reductions in the interpreter's
    // exact element order; with a warm (non-identity) accumulator the
    // sum is order-sensitive, so bitwise equality pins the order.
    for (ReductionOp op :
         {ReductionOp::Sum, ReductionOp::Max, ReductionOp::Min}) {
        KernelFunction fn;
        fn.name = "reduce";
        fn.numArgs = 3; // in, scale, acc
        fn.buffers.resize(3);
        fn.buffers[0].dims = 1;
        fn.buffers[0].shapeClass = 0;
        fn.buffers[1].dims = 1;
        fn.buffers[1].shapeClass = 1;
        fn.buffers[2].dims = 1;
        fn.buffers[2].shapeClass = 1;
        LoopNest nest;
        nest.domainBuf = 0;
        BodyBuilder b(nest.body);
        int prod = b.binary(Op::Mul, b.load(0), b.load(1));
        Reduction red;
        red.accBuf = 2;
        red.op = op;
        red.srcReg = prod;
        nest.reductions.push_back(red);
        fn.nests.push_back(std::move(nest));

        const coord_t n = 1000; // not a strip multiple
        std::vector<double> in(n), scale{1.0 / 3.0};
        fill(in, 10 + int(op));
        std::vector<double> acc{0.125};

        Executor ex;
        std::vector<BufferBinding> binds{bindVec(in), bindVec(scale),
                                         bindVec(acc)};
        ex.runScalar(fn, binds, {});
        double want = acc[0];

        JitBackend be = makeBackend();
        for (int w : kStrips) {
            CompiledKernel k = jitKernel(be, fn, w);
            ASSERT_NE(k.jit, nullptr);
            ASSERT_NE(k.jit->nest(0), nullptr);
            acc[0] = 0.125;
            ex.run(fn, *k.plan, binds, {}, k.jit.get());
            EXPECT_EQ(std::memcmp(&acc[0], &want, sizeof(double)), 0)
                << reductionOpName(op) << " strip " << w;
        }
    }
}

TEST(JitCodegen, BroadcastStoreRunsScalarFallbackUnchanged)
{
    // Storing through an extent-1 buffer from a size-n domain binds
    // with scalarFallback; the executor must take the scalar path
    // BEFORE consulting the attached module and agree with the oracle.
    KernelFunction fn;
    fn.name = "bcast_store";
    fn.numArgs = 2;
    fn.buffers.resize(2);
    fn.buffers[0].dims = 1;
    fn.buffers[0].shapeClass = 0;
    fn.buffers[1].dims = 1;
    fn.buffers[1].shapeClass = 1;
    LoopNest nest;
    nest.domainBuf = 0;
    BodyBuilder b(nest.body);
    b.store(1, b.load(0));
    fn.nests.push_back(std::move(nest));

    const coord_t n = 259;
    std::vector<double> in(n);
    fill(in, 13);
    std::vector<double> ref{0.0}, vec{0.0};

    Executor ex;
    {
        std::vector<BufferBinding> binds{bindVec(in), bindVec(ref)};
        ex.runScalar(fn, binds, {});
    }
    JitBackend be = makeBackend();
    for (int w : kStrips) {
        CompiledKernel k = jitKernel(be, fn, w);
        ASSERT_NE(k.jit, nullptr);
        vec[0] = 0.0;
        std::vector<BufferBinding> binds{bindVec(in), bindVec(vec)};
        ex.run(fn, *k.plan, binds, {}, k.jit.get());
        EXPECT_TRUE(bitEqual(vec, ref)) << "strip " << w;
    }
}

TEST(JitCodegen, ShiftedAliasFallsBackBitwise)
{
    // out[i] = in[i+1] + 1 with out a SHIFTED overlap of in: bind-time
    // alias analysis forces the scalar path; the attached module must
    // not change the interleaved result.
    KernelFunction fn;
    fn.name = "shifted";
    fn.numArgs = 2;
    fn.buffers.resize(2);
    for (auto &b : fn.buffers) {
        b.dims = 1;
        b.shapeClass = 0;
        b.aliasClass = 0;
    }
    LoopNest nest;
    nest.domainBuf = 1;
    BodyBuilder b(nest.body);
    b.store(1, b.binary(Op::Add, b.load(0), b.constant(1.0)));
    fn.nests.push_back(std::move(nest));

    const coord_t n = 700;
    std::vector<double> ref(n + 1), vec(n + 1);
    fill(ref, 11);
    vec = ref;

    auto makeBinds = [&](std::vector<double> &alloc) {
        BufferBinding in;
        in.base = alloc.data() + 1;
        in.dims = 1;
        in.extent[0] = n;
        in.stride[0] = 1;
        BufferBinding out = in;
        out.base = alloc.data();
        return std::vector<BufferBinding>{in, out};
    };

    Executor ex;
    ex.runScalar(fn, makeBinds(ref), {});
    JitBackend be = makeBackend();
    for (int w : kStrips) {
        CompiledKernel k = jitKernel(be, fn, w);
        ASSERT_NE(k.jit, nullptr);
        std::vector<double> probe(vec);
        ex.run(fn, *k.plan, makeBinds(probe), {}, k.jit.get());
        EXPECT_TRUE(bitEqual(probe, ref)) << "strip " << w;
    }
}

TEST(JitCodegen, MultiNestPartialExpressibility)
{
    // Nest 0 (tape <= maxTape) compiles; nest 1 (longer tape) stays on
    // the interpreter — and the mixed execution matches the oracle.
    KernelFunction fn;
    fn.name = "two_nests";
    fn.numArgs = 3;
    fn.buffers.resize(3);
    for (auto &b : fn.buffers) {
        b.dims = 1;
        b.shapeClass = 0;
    }
    int tmp = fn.addLocal(1, 0);
    {
        LoopNest nest;
        nest.domainBuf = 0;
        BodyBuilder b(nest.body);
        b.store(tmp, b.binary(Op::Add, b.load(0), b.load(1)));
        fn.nests.push_back(std::move(nest));
    }
    {
        LoopNest nest; // long chain: tape exceeds the gate below
        nest.domainBuf = 2;
        BodyBuilder b(nest.body);
        int t = b.load(tmp);
        for (int i = 0; i < 12; i++)
            t = b.binary(Op::Add, b.binary(Op::Mul, t, t),
                         b.constant(0.25 * i));
        b.store(2, t);
        fn.nests.push_back(std::move(nest));
    }

    JitBackend::Config cfg;
    cfg.shareProcessModules = false;
    ExecutablePlan probe = lowerPlan(fn, 256);
    ASSERT_EQ(probe.nests.size(), 2u);
    int len0 = int(probe.nests[0].dense.tape.size());
    int len1 = int(probe.nests[1].dense.tape.size());
    ASSERT_LT(len0, len1);
    cfg.maxTape = len0; // nest 0 in, nest 1 out
    JitBackend be{cfg};

    const coord_t n = 301;
    std::vector<double> a(n), c(n), ref(n, 0.0), vec(n, 0.0);
    fill(a, 14);
    fill(c, 15);
    Executor ex;
    {
        std::vector<BufferBinding> binds{bindVec(a), bindVec(c),
                                         bindVec(ref)};
        ex.runScalar(fn, binds, {});
    }
    for (int w : kStrips) {
        CompiledKernel k = jitKernel(be, fn, w);
        ASSERT_NE(k.jit, nullptr) << "strip " << w;
        EXPECT_NE(k.jit->nest(0), nullptr);
        EXPECT_EQ(k.jit->nest(1), nullptr);
        std::fill(vec.begin(), vec.end(), 0.0);
        std::vector<BufferBinding> binds{bindVec(a), bindVec(c),
                                         bindVec(vec)};
        ex.run(fn, *k.plan, binds, {}, k.jit.get());
        EXPECT_TRUE(bitEqual(vec, ref)) << "strip " << w;
    }
    EXPECT_GT(be.stats().nestsCompiled, 0u);
    EXPECT_GT(be.stats().nestsFallback, 0u);
}

TEST(JitCodegen, WhollyInexpressiblePlanNeverInvokesToolchain)
{
    JitBackend::Config cfg;
    cfg.shareProcessModules = false;
    cfg.maxTape = 0; // nothing qualifies
    JitBackend be{cfg};
    CompiledKernel k = jitKernel(be, makeEveryOpKernel(1), 256);
    EXPECT_EQ(k.jit, nullptr);
    JitBackend::Stats st = be.stats();
    EXPECT_EQ(st.kernelsCompiled, 0u);
    EXPECT_EQ(st.artifactMisses, 0u);
    EXPECT_EQ(st.nestsFallback, 1u);
}

TEST(JitCodegen, CompileFailureDegradesToInterpreter)
{
    JitBackend::Config cfg;
    cfg.shareProcessModules = false;
    cfg.cc = "/bin/false"; // toolchain down (DIFFUSE_JIT_CC analogue)
    JitBackend be{cfg};
    KernelFunction fn = makeEveryOpKernel(1);
    CompiledKernel k = jitKernel(be, fn, 256);
    EXPECT_EQ(k.jit, nullptr);
    EXPECT_EQ(be.stats().kernelsCompiled, 0u);
    EXPECT_EQ(be.stats().compileFailures, 1u);

    // Execution still runs (interpreter) and matches the oracle.
    const coord_t n = 123;
    std::vector<double> a(n), b(n), ref(n, 0.0), vec(n, 0.0);
    fill(a, 31);
    fill(b, 32);
    double scal = 0.5;
    Executor ex;
    {
        std::vector<BufferBinding> binds{bindVec(a), bindVec(b),
                                         bindVec(ref)};
        ex.runScalar(fn, binds, std::span(&scal, 1));
    }
    std::vector<BufferBinding> binds{bindVec(a), bindVec(b),
                                     bindVec(vec)};
    ex.run(fn, *k.plan, binds, std::span(&scal, 1), k.jit.get());
    EXPECT_TRUE(bitEqual(vec, ref));
}

TEST(JitCodegen, GeneratedSourceStructure)
{
    // The bitwise-identity obligations are visible in the source:
    // triads keep two rounding steps (a named temporary), and the
    // non-correctly-rounded transcendentals route through the runtime
    // function table instead of libm symbols gcc could fold. The
    // prelude binds the op table's names; the nest body must use them.
    auto split = [](const std::string &src) {
        std::size_t at = src.find("void diffuse_nest_0(");
        EXPECT_NE(at, std::string::npos);
        return std::pair{src.substr(0, at), src.substr(at)};
    };
    {
        ExecutablePlan plan = lowerPlan(makeTriadKernel(), 256);
        std::string src =
            generateJitSource(plan, {true}, "deadbeef");
        auto [prelude, body] = split(src);
        EXPECT_NE(body.find("const double T = A * B; r"),
                  std::string::npos);
        EXPECT_NE(body.find(" = T + C; }"), std::string::npos);
        EXPECT_NE(prelude.find("const char diffuse_jit_key[] = "
                               "\"deadbeef\";"),
                  std::string::npos);
    }
    {
        ExecutablePlan plan = lowerPlan(makeEveryOpKernel(1), 256);
        std::string src =
            generateJitSource(plan, {true}, "deadbeef");
        auto [prelude, body] = split(src);
        for (const char *bind :
             {"#define POW(x, y) F->pow_(x, y)\n",
              "#define EXP(x) F->exp_(x)\n", "#define LOG(x) F->log_(x)\n",
              "#define ERF(x) F->erf_(x)\n",
              "#define SQRT(x) __builtin_sqrt(x)\n",
              "#define FABS(x) __builtin_fabs(x)\n"})
            EXPECT_NE(prelude.find(bind), std::string::npos) << bind;
        for (const char *call : {"= POW(A, ", "= EXP(A);", "= LOG(A);",
                                 "= ERF(A);", "= SQRT(A);", "= FABS(A);"})
            EXPECT_NE(body.find(call), std::string::npos) << call;
        // No direct libm calls the C compiler could constant-fold.
        for (const char *libm : {"pow(", "exp(", "log(", "erf(", "sqrt("})
            EXPECT_EQ(src.find(std::string(" ") + libm), std::string::npos)
                << libm;
    }
}

TEST(JitCodegen, GemvAndCsrNestsAreLeftToFixedFunctionPaths)
{
    KernelFunction fn;
    fn.name = "gemv";
    fn.numArgs = 3;
    fn.buffers.resize(3);
    fn.buffers[0].dims = 2;
    fn.buffers[0].shapeClass = 0;
    fn.buffers[1].dims = 1;
    fn.buffers[1].shapeClass = 1;
    fn.buffers[2].dims = 1;
    fn.buffers[2].shapeClass = 2;
    LoopNest nest;
    nest.kind = NestKind::Gemv;
    nest.gemvA = 0;
    nest.gemvX = 1;
    nest.gemvY = 2;
    nest.domainBuf = 0;
    fn.nests.push_back(std::move(nest));

    JitBackend be = makeBackend();
    CompiledKernel k = jitKernel(be, fn, 256);
    EXPECT_EQ(k.jit, nullptr);
    EXPECT_EQ(be.stats().kernelsCompiled, 0u);
    EXPECT_EQ(be.stats().nestsFallback, 1u);
}

} // namespace
} // namespace kir
} // namespace diffuse
