/**
 * @file
 * Differential tests for the vectorized kernel executor: every Op,
 * every addressing class (contiguous / strided / transposed-stride /
 * broadcast), strip widths 1, 3 and 256, and domain sizes that are
 * not strip multiples, and every row of the op table (kernel/ops.h) —
 * all asserting the vector engine matches the scalar oracle BITWISE,
 * on every copy of the strip loop (VmCopy) this CPU can run.
 */

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "kernel/compiler.h"
#include "kernel/exec.h"
#include "kernel/ir.h"
#include "kernel/plan.h"

namespace diffuse {
namespace kir {
namespace {

const int kStrips[] = {1, 3, 256};

/** Every copy of the VM's strip loop. */
const VmCopy kCopies[] = {VmCopy::Baseline, VmCopy::Avx512};

/** Runs one copy of the strip loop for the scope's lifetime. */
class ForcedCopy
{
  public:
    explicit ForcedCopy(VmCopy copy) : prev_(forceVmCopy(copy)) {}
    ~ForcedCopy() { forceVmCopy(prev_); }
    ForcedCopy(const ForcedCopy &) = delete;
    ForcedCopy &operator=(const ForcedCopy &) = delete;

  private:
    VmCopy prev_;
};

/**
 * Run `check` once per copy of the strip loop, each forced in turn. A
 * copy the build lacks or this CPU cannot run skips the test, naming
 * the copy, after the others ran: a copy never passes unchecked.
 */
template <typename Fn>
void
forEachCopy(Fn &&check)
{
    std::string missing;
    for (VmCopy copy : kCopies) {
        if (!vmCopySupported(copy)) {
            missing += std::string(" ") + vmCopyName(copy);
            continue;
        }
        ForcedCopy forced(copy);
        SCOPED_TRACE(std::string("strip-loop copy ") + vmCopyName(copy));
        check();
    }
    if (!missing.empty())
        GTEST_SKIP() << "strip-loop copy not in this build or not run by "
                        "this CPU:"
                     << missing;
}

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

/**
 * A body exercising every opcode. Built so each op's result feeds the
 * output (no dead code), with domains kept finite (abs before sqrt /
 * log; pow on a positive base).
 */
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

/** Run `fn` on the oracle and on plans of every strip width, on
 * every copy of the strip loop; compare the full output allocations
 * bitwise. */
void
expectDifferentialMatch(const KernelFunction &fn,
                        std::vector<BufferBinding> binds,
                        std::vector<double> &out_alloc,
                        std::span<const double> scalars,
                        const std::vector<double> &out_init)
{
    Executor ex;
    out_alloc = out_init;
    ex.runScalar(fn, binds, scalars);
    std::vector<double> want = out_alloc;

    forEachCopy([&] {
        for (int w : kStrips) {
            ExecutablePlan plan = lowerPlan(fn, w);
            out_alloc = out_init;
            ex.run(fn, plan, binds, scalars);
            EXPECT_TRUE(bitEqual(out_alloc, want)) << "strip width " << w;
        }
    });
}

TEST(VectorExecutor, EveryOpContiguous1d)
{
    KernelFunction fn = makeEveryOpKernel(1);
    const coord_t n = 777; // not a multiple of 1, 3 or 256
    std::vector<double> a(n), b(n), out(n, 0.0);
    fill(a, 1);
    fill(b, 2);
    std::vector<BufferBinding> binds{bindVec(a), bindVec(b),
                                     bindVec(out)};
    double scal = 0.75;
    expectDifferentialMatch(fn, binds, out, std::span(&scal, 1),
                            std::vector<double>(n, 0.0));
}

TEST(VectorExecutor, EveryOpStrided1d)
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
    expectDifferentialMatch(fn, {ba, bb, bo}, out, std::span(&scal, 1),
                            std::vector<double>(4 * n, -7.5));
}

TEST(VectorExecutor, EveryOpBroadcast1d)
{
    KernelFunction fn = makeEveryOpKernel(1);
    const coord_t n = 1000;
    std::vector<double> a(n), s{2.5}, out(n, 0.0);
    fill(a, 5);
    std::vector<BufferBinding> binds{bindVec(a), bindVec(s),
                                     bindVec(out)};
    double scal = 1.5;
    expectDifferentialMatch(fn, binds, out, std::span(&scal, 1),
                            std::vector<double>(n, 0.0));
}

TEST(VectorExecutor, EveryOp2dRowMajorAndBroadcastColumn)
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
    expectDifferentialMatch(fn, {ba, bc, bo}, out, std::span(&scal, 1),
                            std::vector<double>(rows * cols, 0.0));
}

TEST(VectorExecutor, EveryOp2dTransposedStride)
{
    KernelFunction fn = makeEveryOpKernel(2);
    const coord_t rows = 7, cols = 11;
    // `a` is a transposed view of a cols x rows parent: stride[0]=1,
    // stride[1]=rows — the inner loop walks a non-unit stride.
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
    expectDifferentialMatch(fn, {ba, bb, bo}, out, std::span(&scal, 1),
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

/** Every row of the op table (kernel/ops.h) runs bitwise equal to
 * the scalar oracle, at every strip width, with K as a literal and
 * as a run-time scalar, on signed zeros and equal pairs included. */
TEST(VectorExecutor, EveryTableOpMatchesOracle)
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
                      const ExecutablePlan *plan) {
        for (auto &o : outs)
            std::fill(o.begin(), o.end(), 0.0);
        if (plan == nullptr)
            ex.runScalar(fn, binds, sc);
        else
            ex.run(fn, *plan, binds, sc);
        return outs;
    };

    // K and K2 as literals baked into the tape (-0 and +0), then as
    // scalars that take every pair at run time.
    for (bool scalar_k : {false, true}) {
        KernelFunction fn = makeTableKernel(rows, scalar_k);
        ExecutablePlan probe = lowerPlan(fn, 256);
        for (std::size_t i = 0; i < rows.size(); i++) {
            bool found = false;
            for (const VecInstr &ins : probe.nests[i].dense.tape)
                found = found || ins.op == rows[i].op;
            EXPECT_TRUE(found) << rows[i].name << " not in its tape";
        }
        forEachCopy([&] {
            for (int w : kStrips) {
                ExecutablePlan plan = lowerPlan(fn, w);
                for (const auto &pair : pairs) {
                    std::span<const double> sc(pair);
                    auto want = runAll(fn, sc, nullptr);
                    auto vm = runAll(fn, sc, &plan);
                    for (std::size_t i = 0; i < rows.size(); i++) {
                        EXPECT_TRUE(bitEqual(vm[i], want[i]))
                            << rows[i].name << ": strip " << w
                            << ", scalar K " << scalar_k << ", K "
                            << sc[0];
                    }
                }
            }
        });
    }
}

TEST(VectorExecutor, FusedTriadsMatchOracleInAllOrders)
{
    // Trigger every fused-triad form (MulAdd, AddMul, MulSub, SubMul,
    // MulAddK, MulSubK, MulRsubK): single-use products feeding an
    // add/sub on either side, and immediate-form consumers.
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

    {
        // The lowering must actually produce fused triads.
        ExecutablePlan plan = lowerPlan(fn);
        int triads = 0;
        for (const VecInstr &ins : plan.nests[0].dense.tape) {
            if (ins.op == VecOp::MulAdd || ins.op == VecOp::AddMul ||
                ins.op == VecOp::MulSub || ins.op == VecOp::SubMul ||
                ins.op == VecOp::MulAddK || ins.op == VecOp::MulSubK ||
                ins.op == VecOp::MulRsubK)
                triads++;
        }
        EXPECT_EQ(triads, 7);
    }

    const coord_t n = 777;
    std::vector<double> a(n), c(n), e(n), out(n, 0.0);
    fill(a, 21);
    fill(c, 22);
    fill(e, 23);
    std::vector<BufferBinding> binds{bindVec(a), bindVec(c), bindVec(e),
                                     bindVec(out)};
    expectDifferentialMatch(fn, binds, out, {},
                            std::vector<double>(n, 0.0));
}

TEST(VectorExecutor, ReductionsBitIdenticalAtEveryStripWidth)
{
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

        forEachCopy([&] {
            for (int w : kStrips) {
                ExecutablePlan plan = lowerPlan(fn, w);
                acc[0] = 0.125;
                ex.run(fn, plan, binds, {});
                EXPECT_EQ(std::memcmp(&acc[0], &want, sizeof(double)), 0)
                    << reductionOpName(op) << " strip " << w;
            }
        });
    }
}

/**
 * A Black-Scholes pricing nest (div, log, sqrt, exp, two erf and the
 * triads lowering fuses) over option inputs S, K, T and the rate as
 * a scalar; call and put land in the two halves of one allocation.
 */
KernelFunction
makeBlackScholesKernel()
{
    KernelFunction fn;
    fn.name = "black_scholes";
    fn.numArgs = 5; // S, K, T, call, put
    fn.numScalars = 1;
    fn.buffers.resize(5);
    for (auto &buf : fn.buffers) {
        buf.dims = 1;
        buf.shapeClass = 0;
    }
    const double vol = 0.25;
    LoopNest nest;
    nest.domainBuf = 3;
    BodyBuilder b(nest.body);
    int s = b.load(0), k = b.load(1), t = b.load(2), r = b.scalar(0);
    int vsqrt = b.binary(Op::Mul, b.unary(Op::Sqrt, t), b.constant(vol));
    int mu = b.binary(Op::Add, r, b.constant(0.5 * vol * vol));
    int lsk = b.unary(Op::Log, b.binary(Op::Div, s, k));
    int drift = b.binary(Op::Mul, mu, t);
    int d1 = b.binary(Op::Div, b.binary(Op::Add, lsk, drift), vsqrt);
    int d2 = b.binary(Op::Sub, d1, vsqrt);
    auto cdf = [&](int d) {
        int scaled = b.binary(Op::Mul, d, b.constant(M_SQRT1_2));
        int e = b.unary(Op::Erf, scaled);
        return b.binary(Op::Add, b.binary(Op::Mul, e, b.constant(0.5)),
                        b.constant(0.5));
    };
    int nd1 = cdf(d1), nd2 = cdf(d2);
    // exp((0 - r) T), not exp(-(r T)): negating a NaN flips its sign,
    // and the engines may pick either of two NaNs an add or multiply
    // meets (operand order is the compiler's), so keep one per lane.
    int negRate = b.binary(Op::Sub, b.constant(0.0), r);
    int disc = b.unary(Op::Exp, b.binary(Op::Mul, negRate, t));
    int kd = b.binary(Op::Mul, k, disc);
    int call = b.binary(Op::Sub, b.binary(Op::Mul, s, nd1),
                        b.binary(Op::Mul, kd, nd2));
    b.store(3, call);
    b.store(4, b.binary(Op::Add, b.binary(Op::Sub, call, s), kd));
    fn.nests.push_back(std::move(nest));
    return fn;
}

/** The Black-Scholes nest matches the oracle bitwise on every copy
 * of the strip loop, with erf's argument in each of its three ranges
 * and beyond, and exp, log and erf on their edge values. */
TEST(VectorExecutor, BlackScholesNestMatchesOracle)
{
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double denorm = std::numeric_limits<double>::denorm_min();
    const double rate = 1.0; // exp's argument is -T
    std::vector<double> s, k, t;
    auto option = [&](double sv, double kv, double tv) {
        s.push_back(sv);
        k.push_back(kv);
        t.push_back(tv);
    };
    // Moneyness swept over [e^-4, e^4]: erf's argument spans [-12, 12].
    for (int i = 0; i < 600; i++)
        option(std::exp(-4.0 + 8.0 * i / 599.0), 1.0, 1.0);
    // Quasi-random options, negatives and zeros included.
    std::vector<double> f1(300), f2(300), f3(300);
    fill(f1, 61);
    fill(f2, 62);
    fill(f3, 63);
    for (std::size_t i = 0; i < f1.size(); i++)
        option(f1[i], f2[i], f3[i]);
    // log's edge values, as S / K.
    for (double v : {0.0, -0.0, inf, -inf, nan, -1.0, -1e-310, denorm,
                     2.2e-308, 1.0})
        option(v, 1.0, 1.0);
    // exp's edge values, as -T (sqrt(T) is NaN for T < 0).
    for (double v : {709.78, 709.79, -745.13, -745.14, -708.4, -744.0,
                     0.0, -0.0, inf, -inf, nan, denorm})
        option(1.1, 1.0, v == v ? -v : v);
    // erf's: the log lanes above give it ±inf and NaN, and a subnormal
    // T a tiny argument.
    option(1.0, 1.0, denorm);

    // Every erf range is reached: |x| <= 0.46875, <= 4, <= 6, > 6.
    int ranges[4] = {0, 0, 0, 0};
    for (std::size_t i = 0; i < s.size(); i++) {
        double d1 = (std::log(s[i] / k[i]) + 1.03125 * t[i]) /
                    (std::sqrt(t[i]) * 0.25);
        for (double x : {d1 * M_SQRT1_2, (d1 - std::sqrt(t[i]) * 0.25) *
                                             M_SQRT1_2}) {
            double y = std::fabs(x);
            if (y <= 0.46875)
                ranges[0]++;
            else if (y <= 4.0)
                ranges[1]++;
            else if (y <= 6.0)
                ranges[2]++;
            else if (y > 6.0)
                ranges[3]++;
        }
    }
    for (int r = 0; r < 4; r++)
        EXPECT_GT(ranges[r], 10) << "erf range " << r;

    KernelFunction fn = makeBlackScholesKernel();
    {
        ExecutablePlan plan = lowerPlan(fn);
        int seen[3] = {0, 0, 0}; // Erf, Exp and Log
        bool triad = false;
        for (const VecInstr &ins : plan.nests[0].dense.tape) {
            seen[0] += ins.op == VecOp::Erf;
            seen[1] += ins.op == VecOp::Exp;
            seen[2] += ins.op == VecOp::Log;
            triad = triad || ins.op == VecOp::MulSub ||
                    ins.op == VecOp::SubMul || ins.op == VecOp::AddMul ||
                    ins.op == VecOp::MulAdd || ins.op == VecOp::MulKAddK;
        }
        EXPECT_EQ(seen[0], 2);
        EXPECT_EQ(seen[1], 1);
        EXPECT_EQ(seen[2], 1);
        EXPECT_TRUE(triad);
    }

    const coord_t n = coord_t(s.size());
    std::vector<double> out(std::size_t(2 * n), 0.0);
    BufferBinding call = bindVec(out), put = bindVec(out);
    call.extent[0] = put.extent[0] = n;
    put.base = out.data() + n;
    expectDifferentialMatch(
        fn, {bindVec(s), bindVec(k), bindVec(t), call, put}, out,
        std::span(&rate, 1), std::vector<double>(std::size_t(2 * n), 0.0));
}

/** A CPU that runs the AVX-512 copy gets it without being asked
 * (every test that forces a copy restores the one it found). */
TEST(VectorExecutor, DefaultCopyIsTheWidestSupported)
{
    EXPECT_TRUE(vmCopySupported(VmCopy::Baseline));
    if (!vmCopySupported(VmCopy::Avx512)) {
        EXPECT_EQ(vmCopy(), VmCopy::Baseline);
        GTEST_SKIP() << "strip-loop copy avx512 not in this build or not "
                        "run by this CPU";
    }
    EXPECT_EQ(vmCopy(), VmCopy::Avx512);
}

TEST(VectorExecutor, ShiftedAliasFallsBackToOracleSemantics)
{
    // store %1 reads %0 where the two are SHIFTED views of one
    // allocation (alias class 0): out[i] = in[i+1] + 1 with out
    // overlapping in. The scalar oracle interleaves element-wise; the
    // vector engine must detect the shifted alias at bind time and
    // reproduce the interleaved result exactly.
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
        BufferBinding in; // elements [1, n]
        in.base = alloc.data() + 1;
        in.dims = 1;
        in.extent[0] = n;
        in.stride[0] = 1;
        BufferBinding out = in; // elements [0, n): overlaps, shifted
        out.base = alloc.data();
        return std::vector<BufferBinding>{in, out};
    };

    Executor ex;
    ex.runScalar(fn, makeBinds(ref), {});
    for (int w : kStrips) {
        std::vector<double> probe(vec);
        ExecutablePlan plan = lowerPlan(fn, w);
        ex.run(fn, plan, makeBinds(probe), {});
        EXPECT_TRUE(bitEqual(probe, ref)) << "strip " << w;
    }
}

TEST(VectorExecutor, IdenticalAliasedViewsStayExact)
{
    // In-place update: the load and store bind the IDENTICAL view
    // (alias class 0). Same-index accesses are vector-safe; results
    // must match the oracle bitwise.
    KernelFunction fn;
    fn.name = "inplace";
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
    b.store(1, b.binary(Op::Mul, b.load(0), b.constant(1.5)));
    fn.nests.push_back(std::move(nest));

    const coord_t n = 513;
    std::vector<double> ref(n), vec(n);
    fill(ref, 12);
    vec = ref;

    Executor ex;
    {
        std::vector<BufferBinding> binds{bindVec(ref), bindVec(ref)};
        ex.runScalar(fn, binds, {});
    }
    for (int w : kStrips) {
        std::vector<double> probe(vec);
        std::vector<BufferBinding> binds{bindVec(probe), bindVec(probe)};
        ExecutablePlan plan = lowerPlan(fn, w);
        ex.run(fn, plan, binds, {});
        EXPECT_TRUE(bitEqual(probe, ref)) << "strip " << w;
    }
}

/**
 * Loads x, stores 1.5*x into x itself (or, `via_alias`, into an
 * identical aliased view of x), then stores x+1 into y. The second
 * store must see x as loaded, before the first store overwrote it:
 * x's Load may not be read in place.
 */
KernelFunction
makeStoreThenReadKernel(bool via_alias)
{
    KernelFunction fn;
    fn.name = "store_then_read";
    fn.numArgs = 3; // x, a view identical to x, y
    fn.buffers.resize(3);
    for (auto &b : fn.buffers) {
        b.dims = 1;
        b.shapeClass = 0;
    }
    fn.buffers[0].aliasClass = 0;
    fn.buffers[1].aliasClass = 0;
    LoopNest nest;
    nest.domainBuf = 2;
    BodyBuilder b(nest.body);
    int x = b.load(0);
    b.store(via_alias ? 1 : 0, b.binary(Op::Mul, x, b.constant(1.5)));
    b.store(2, b.binary(Op::Add, x, b.constant(1.0)));
    fn.nests.push_back(std::move(nest));
    return fn;
}

TEST(VectorExecutor, StoreBetweenLoadAndLastReadKeepsTheCopy)
{
    for (bool via_alias : {false, true}) {
        KernelFunction fn = makeStoreThenReadKernel(via_alias);
        const coord_t n = 517;
        std::vector<double> init(n);
        fill(init, 14);
        std::vector<double> ref_x = init, ref_y(n, 0.0);
        Executor ex;
        ex.runScalar(fn,
                     std::vector<BufferBinding>{bindVec(ref_x),
                                                bindVec(ref_x),
                                                bindVec(ref_y)},
                     {});
        for (int w : kStrips) {
            ExecutablePlan plan = lowerPlan(fn, w);
            for (const VecInstr &ins : plan.nests[0].dense.tape) {
                if (ins.op == VecOp::Load)
                    EXPECT_FALSE(ins.inPlace);
            }
            std::vector<double> x = init, y(n, 0.0);
            ex.run(fn, plan,
                   std::vector<BufferBinding>{bindVec(x), bindVec(x),
                                              bindVec(y)},
                   {});
            EXPECT_TRUE(bitEqual(x, ref_x))
                << "alias " << via_alias << " strip " << w;
            EXPECT_TRUE(bitEqual(y, ref_y))
                << "alias " << via_alias << " strip " << w;
        }
    }
}

TEST(VectorExecutor, ReductionFoldsTheStripAsLoadedBeforeAStore)
{
    // sum(x) folds x's register at the end of the strip, after the
    // nest stored 2*x back into x: the fold must see x as loaded.
    KernelFunction fn;
    fn.name = "store_then_fold";
    fn.numArgs = 2; // x, acc
    fn.buffers.resize(2);
    fn.buffers[0].dims = 1;
    fn.buffers[0].shapeClass = 0;
    fn.buffers[1].dims = 1;
    fn.buffers[1].shapeClass = 1;
    LoopNest nest;
    nest.domainBuf = 0;
    BodyBuilder b(nest.body);
    int x = b.load(0);
    b.store(0, b.binary(Op::Mul, x, b.constant(2.0)));
    Reduction red;
    red.accBuf = 1;
    red.op = ReductionOp::Sum;
    red.srcReg = x;
    nest.reductions.push_back(red);
    fn.nests.push_back(std::move(nest));

    const coord_t n = 1000;
    std::vector<double> init(n);
    fill(init, 15);
    std::vector<double> ref_x = init, ref_acc{0.5};
    Executor ex;
    ex.runScalar(fn,
                 std::vector<BufferBinding>{bindVec(ref_x),
                                            bindVec(ref_acc)},
                 {});
    for (int w : kStrips) {
        ExecutablePlan plan = lowerPlan(fn, w);
        std::vector<double> x = init, acc{0.5};
        ex.run(fn, plan,
               std::vector<BufferBinding>{bindVec(x), bindVec(acc)}, {});
        EXPECT_TRUE(bitEqual(x, ref_x)) << "strip " << w;
        EXPECT_TRUE(bitEqual(acc, ref_acc)) << "strip " << w;
    }
}

TEST(VectorExecutor, BroadcastStoreTargetKeepsLastWriteWins)
{
    // Storing through an extent-1 buffer from a size-n domain: every
    // element writes the same address and the scalar semantics are
    // last-write-wins. The vector engine must fall back and agree.
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
    for (int w : kStrips) {
        vec[0] = 0.0;
        std::vector<BufferBinding> binds{bindVec(in), bindVec(vec)};
        ExecutablePlan plan = lowerPlan(fn, w);
        ex.run(fn, plan, binds, {});
        EXPECT_TRUE(bitEqual(vec, ref)) << "strip " << w;
    }
}

TEST(VectorExecutor, MultiNestLocalTemporaryPipeline)
{
    // Two nests through a task-local temporary, exercising the arena
    // and inter-nest ordering: local = a + b; out = local * local.
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
        LoopNest nest;
        nest.domainBuf = 2;
        BodyBuilder b(nest.body);
        int t = b.load(tmp);
        b.store(2, b.binary(Op::Mul, t, t));
        fn.nests.push_back(std::move(nest));
    }

    const coord_t n = 301;
    std::vector<double> a(n), c(n), out(n, 0.0);
    fill(a, 14);
    fill(c, 15);
    std::vector<BufferBinding> binds{bindVec(a), bindVec(c),
                                     bindVec(out)};
    expectDifferentialMatch(fn, binds, out, {},
                            std::vector<double>(n, 0.0));
}

TEST(VectorExecutor, GemvMatchesOracleUnitAndNonUnitStride)
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

    const coord_t rows = 37, cols = 41;
    std::vector<double> a(rows * cols), x2(2 * cols), y(rows, 0.0);
    fill(a, 16);
    fill(x2, 17);

    BufferBinding ba;
    ba.base = a.data();
    ba.dims = 2;
    ba.extent[0] = rows;
    ba.extent[1] = cols;
    ba.stride[0] = cols;
    ba.stride[1] = 1;
    BufferBinding by = bindVec(y);

    for (coord_t xs : {coord_t(1), coord_t(2)}) {
        BufferBinding bx = bindVec(x2);
        bx.extent[0] = cols;
        bx.stride[0] = xs;
        Executor ex;
        std::vector<double> ref(rows, 0.0), vec(rows, 0.0);
        by.base = ref.data();
        std::vector<BufferBinding> rbinds{ba, bx, by};
        ex.runScalar(fn, rbinds, {});
        ExecutablePlan plan = lowerPlan(fn);
        by.base = vec.data();
        std::vector<BufferBinding> vbinds{ba, bx, by};
        ex.run(fn, plan, vbinds, {});
        EXPECT_TRUE(bitEqual(vec, ref)) << "x stride " << xs;
    }
}

TEST(VectorExecutor, CsrMatchesOracle)
{
    KernelFunction fn;
    fn.name = "csr";
    fn.numArgs = 5;
    fn.buffers.resize(5);
    for (auto &b : fn.buffers) {
        b.dims = 1;
        b.shapeClass = 0;
    }
    fn.buffers[0].dtype = DType::I64;
    fn.buffers[1].dtype = DType::I32;
    LoopNest nest;
    nest.kind = NestKind::Csr;
    nest.csrRowptr = 0;
    nest.csrColind = 1;
    nest.csrVals = 2;
    nest.csrX = 3;
    nest.csrY = 4;
    nest.domainBuf = 4;
    fn.nests.push_back(std::move(nest));

    // 4-row sparse matrix.
    std::vector<std::int64_t> rowptr{0, 2, 3, 3, 6};
    std::vector<std::int32_t> colind{0, 2, 1, 0, 1, 3};
    std::vector<double> vals{1.5, -2.0, 3.25, 0.5, -1.0, 4.0};
    std::vector<double> x{1.0, 2.0, 3.0, 4.0};

    auto makeBinds = [&](std::vector<double> &y) {
        BufferBinding brp;
        brp.base = rowptr.data();
        brp.dtype = DType::I64;
        brp.extent[0] = 5;
        brp.stride[0] = 1;
        BufferBinding bci;
        bci.base = colind.data();
        bci.dtype = DType::I32;
        bci.extent[0] = 6;
        bci.stride[0] = 1;
        BufferBinding bv = bindVec(vals);
        BufferBinding bx = bindVec(x);
        BufferBinding by = bindVec(y);
        return std::vector<BufferBinding>{brp, bci, bv, bx, by};
    };

    Executor ex;
    std::vector<double> ref(4, 0.0), vec(4, 0.0);
    ex.runScalar(fn, makeBinds(ref), {});
    ExecutablePlan plan = lowerPlan(fn);
    ex.run(fn, plan, makeBinds(vec), {});
    EXPECT_TRUE(bitEqual(vec, ref));
}

TEST(Plan, LoweringHoistsInvariantsAndClassifiesAccesses)
{
    KernelFunction fn = makeEveryOpKernel(1);
    ExecutablePlan plan = lowerPlan(fn, 64);
    ASSERT_EQ(plan.nests.size(), 1u);
    const DensePlan &dp = plan.nests[0].dense;
    // Every Const/LoadScalar is strength-reduced into immediate-form
    // tape ops, so no splats survive and no tape instruction
    // re-dispatches constants or scalars.
    EXPECT_TRUE(dp.invariants.empty());
    bool saw_kform = false;
    for (const VecInstr &ins : dp.tape) {
        EXPECT_NE(ins.op, VecOp::Splat);
        if (ins.op == VecOp::SubK || ins.op == VecOp::MulK ||
            ins.op == VecOp::DivK || ins.op == VecOp::PowK)
            saw_kform = true;
    }
    EXPECT_TRUE(saw_kform);
    // Two loads and one store become access sites.
    ASSERT_EQ(dp.accesses.size(), 3u);
    EXPECT_FALSE(dp.accesses[0].isStore);
    EXPECT_TRUE(dp.accesses[2].isStore);
    EXPECT_EQ(dp.loadBufs.size(), 2u);
    EXPECT_EQ(dp.storeBufs.size(), 1u);
    EXPECT_EQ(plan.stripWidth, 64);
    EXPECT_GT(dp.flopsPerElem, 0.0);
    // Slot reuse keeps the register file far below the SSA count.
    EXPECT_LT(dp.regCount, registerCount(fn.nests[0].body));
}

TEST(Plan, StencilLoadsReadInPlace)
{
    // The fused FUSED_ADD_MULT task of paper Fig 1
    // (Pipeline.Figure1StencilFusesToTwoTasks): five aliasing views of
    // the grid summed and scaled into `work`, another store. No store
    // of the nest can overwrite a grid view, so all five loads read
    // the grid in place. The COPY task's load of `work` reads in place
    // too: its only reader is the store into the center view.
    KernelFunction fn;
    fn.name = "fused_add_mult";
    fn.numArgs = 6; // center, north, east, west, south, work
    fn.buffers.resize(6);
    for (auto &b : fn.buffers) {
        b.dims = 2;
        b.shapeClass = 0;
        b.aliasClass = 0;
    }
    fn.buffers[5].aliasClass = 1;
    LoopNest nest;
    nest.domainBuf = 5;
    BodyBuilder b(nest.body);
    int sum = b.load(0);
    for (int view = 1; view < 5; view++)
        sum = b.binary(Op::Add, sum, b.load(view));
    b.store(5, b.binary(Op::Mul, b.constant(0.2), sum));
    fn.nests.push_back(std::move(nest));

    LoopNest copy;
    copy.domainBuf = 0;
    BodyBuilder c(copy.body);
    c.store(0, c.load(5));
    fn.nests.push_back(std::move(copy));

    ExecutablePlan plan = lowerPlan(fn);
    ASSERT_EQ(plan.nests.size(), 2u);
    int loads = 0, in_place = 0;
    for (const VecInstr &ins : plan.nests[0].dense.tape) {
        if (ins.op == VecOp::Load) {
            loads++;
            in_place += ins.inPlace ? 1 : 0;
        }
    }
    EXPECT_EQ(loads, 5);
    EXPECT_EQ(in_place, 5);
    ASSERT_EQ(plan.nests[1].dense.tape.size(), 2u);
    EXPECT_TRUE(plan.nests[1].dense.tape[0].inPlace);
}

TEST(Plan, CostMetadataMatchesIrWalk)
{
    KernelFunction fn = makeEveryOpKernel(1);
    std::vector<double> a(64), b(64), out(64);
    std::vector<BufferBinding> binds{bindVec(a), bindVec(b),
                                     bindVec(out)};
    TaskCost ir = profileCost(fn, binds);
    CompiledKernel kernel;
    kernel.fn = fn;
    kernel.plan = std::make_shared<const ExecutablePlan>(lowerPlan(fn));
    TaskCost planned = profileCost(kernel, binds);
    EXPECT_DOUBLE_EQ(planned.bytes, ir.bytes);
    EXPECT_DOUBLE_EQ(planned.wflops, ir.wflops);
    EXPECT_EQ(planned.elements, ir.elements);
}

} // namespace
} // namespace kir
} // namespace diffuse
