// The engines' bitwise contract forbids FMA contraction: GCC would
// otherwise fuse a triad's two statements, or the steps of fastmath.h's
// polynomials, wherever the target has FMA, and the AVX-512 copy of
// the strip loop always does. CMake also passes -ffp-contract=off, but
// a build of these sources that does not (perfbench's) still gets it
// here. Placed before the includes so that it covers fastmath.h too.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC optimize("fp-contract=off")
#endif

#include "exec.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <unordered_set>

#include "common/env.h"
#include "common/fastmath.h"
#include "common/logging.h"
#include "kernel/compiler.h"

namespace diffuse {
namespace kir {

namespace {

/** Read an element of an index-typed binding as coord_t. */
inline coord_t
readIndex(const BufferBinding &b, coord_t i)
{
    switch (b.dtype) {
      case DType::I32:
        return static_cast<const std::int32_t *>(b.base)[i];
      case DType::I64:
        return static_cast<const std::int64_t *>(b.base)[i];
      case DType::F64:
        return coord_t(static_cast<const double *>(b.base)[i]);
    }
    return 0;
}

/**
 * Extents of buffer `buf`. External buffers read their binding; local
 * buffers inherit the extents of any external argument sharing their
 * shape class (locals always have the shape of the store they replaced,
 * and a fused task always retains at least one argument of that shape).
 */
struct Extents
{
    int dims = 1;
    coord_t e[2] = {1, 1};

    coord_t
    volume() const
    {
        coord_t v = 1;
        for (int i = 0; i < dims; i++)
            v *= e[i];
        return v;
    }
};

Extents
resolveExtents(const KernelFunction &fn, int buf,
               std::span<const BufferBinding> ext_bindings)
{
    Extents out;
    if (buf < fn.numArgs) {
        const BufferBinding &b = ext_bindings[std::size_t(buf)];
        out.dims = b.dims;
        out.e[0] = b.extent[0];
        out.e[1] = b.extent[1];
        return out;
    }
    int want = fn.buffers[std::size_t(buf)].shapeClass;
    for (int a = 0; a < fn.numArgs; a++) {
        if (fn.buffers[std::size_t(a)].shapeClass == want) {
            const BufferBinding &b = ext_bindings[std::size_t(a)];
            out.dims = b.dims;
            out.e[0] = b.extent[0];
            out.e[1] = b.extent[1];
            return out;
        }
    }
    diffuse_panic("no external argument shares shape class %d with "
                  "local buffer %d of %s",
                  want, buf, fn.name.c_str());
}

/**
 * Build the full binding table (external args, then locals) with live
 * local buffers carved out of `arena`. The arena only grows and its
 * used prefix is re-zeroed per call, so steady state allocates
 * nothing — this replaces the fresh per-invocation vectors the
 * interpreter used to heap-allocate for every point task.
 */
void
bindLocalBuffers(const KernelFunction &fn,
                 std::span<const BufferBinding> ext,
                 std::vector<BufferBinding> &all,
                 std::vector<double> &arena)
{
    diffuse_assert(int(ext.size()) >= fn.numArgs,
                   "executor: %zu bindings for %d args of %s",
                   ext.size(), fn.numArgs, fn.name.c_str());
    all.assign(ext.begin(), ext.begin() + fn.numArgs);
    all.resize(fn.buffers.size());

    std::size_t total = 0;
    for (std::size_t b = std::size_t(fn.numArgs); b < fn.buffers.size();
         b++) {
        const BufferInfo &info = fn.buffers[b];
        diffuse_assert(info.isLocal, "non-local buffer %zu beyond args",
                       b);
        if (info.eliminated)
            continue;
        total += std::size_t(resolveExtents(fn, int(b), ext).volume());
    }
    if (arena.size() < total)
        arena.resize(total);
    std::fill_n(arena.data(), total, 0.0);

    std::size_t off = 0;
    for (std::size_t b = std::size_t(fn.numArgs); b < fn.buffers.size();
         b++) {
        const BufferInfo &info = fn.buffers[b];
        if (info.eliminated)
            continue;
        Extents e = resolveExtents(fn, int(b), ext);
        BufferBinding bind;
        bind.dims = e.dims;
        bind.extent[0] = e.e[0];
        bind.extent[1] = e.e[1];
        bind.base = arena.data() + off;
        off += std::size_t(e.volume());
        if (bind.dims == 2) {
            bind.stride[0] = bind.extent[1];
            bind.stride[1] = 1;
        } else {
            bind.stride[0] = 1;
        }
        all[b] = bind;
    }
}

/** Cost of a Gemv nest (shared by both profileCost overloads). */
TaskCost
gemvCost(const KernelFunction &fn, const LoopNest &nest,
         std::span<const BufferBinding> bindings)
{
    Extents a = resolveExtents(fn, nest.gemvA, bindings);
    coord_t rows = a.e[0];
    coord_t cols = a.e[1];
    TaskCost c;
    c.elements = rows * cols;
    c.bytes = double(rows * cols + cols + rows) * 8.0;
    c.wflops = 2.0 * double(rows) * double(cols);
    return c;
}

/** Cost of a Csr nest (shared by both profileCost overloads). */
TaskCost
csrCost(const KernelFunction &fn, const LoopNest &nest,
        std::span<const BufferBinding> bindings)
{
    const BufferBinding &vals = bindings[std::size_t(nest.csrVals)];
    const BufferBinding &colind = bindings[std::size_t(nest.csrColind)];
    Extents y = resolveExtents(fn, nest.csrY, bindings);
    coord_t nnz = vals.irregular >= 0 ? vals.irregular : vals.volume();
    coord_t rows = y.e[0];
    double idx_bytes = double(dtypeSize(colind.dtype));
    TaskCost c;
    c.elements = nnz;
    c.bytes = double(nnz) * (8.0 + idx_bytes + 8.0) +
              double(rows + 1) * 8.0 + double(rows) * 8.0;
    c.wflops = 2.0 * double(nnz);
    return c;
}

} // namespace

// ---------------------------------------------------------------------
// Cost profiling
// ---------------------------------------------------------------------

TaskCost
profileCost(const KernelFunction &fn,
            std::span<const BufferBinding> bindings)
{
    TaskCost total;
    for (const LoopNest &nest : fn.nests) {
        if (nest.kind == NestKind::Gemv) {
            total += gemvCost(fn, nest, bindings);
            continue;
        }
        if (nest.kind == NestKind::Csr) {
            total += csrCost(fn, nest, bindings);
            continue;
        }
        // Dense nest: traffic = distinct non-broadcast buffers touched;
        // broadcast (extent-1) reads stay in registers.
        Extents dom = resolveExtents(fn, nest.domainBuf, bindings);
        coord_t elems = dom.volume();
        std::unordered_set<int> loaded, stored;
        double flops_per_elem = 0.0;
        for (const Instr &i : nest.body) {
            flops_per_elem += opFlopWeight(i.op);
            if (i.op == Op::LoadBuf)
                loaded.insert(i.buf);
            else if (i.op == Op::StoreBuf)
                stored.insert(i.buf);
        }
        double bytes_per_elem = 0.0;
        for (int b : loaded) {
            Extents e = resolveExtents(fn, b, bindings);
            if (e.volume() > 1)
                bytes_per_elem +=
                    double(dtypeSize(fn.buffers[std::size_t(b)].dtype));
        }
        for (int b : stored)
            bytes_per_elem +=
                double(dtypeSize(fn.buffers[std::size_t(b)].dtype));
        flops_per_elem += double(nest.reductions.size());
        TaskCost c;
        c.elements = elems;
        c.bytes = bytes_per_elem * double(elems);
        c.wflops = flops_per_elem * double(elems);
        total += c;
    }
    return total;
}

TaskCost
profileCost(const CompiledKernel &kernel,
            std::span<const BufferBinding> bindings)
{
    const KernelFunction &fn = kernel.fn;
    if (kernel.plan == nullptr)
        return profileCost(fn, bindings);
    const ExecutablePlan &plan = *kernel.plan;
    diffuse_assert(plan.nests.size() == fn.nests.size(),
                   "plan/function nest mismatch in %s", fn.name.c_str());

    TaskCost total;
    for (std::size_t n = 0; n < fn.nests.size(); n++) {
        const LoopNest &nest = fn.nests[n];
        if (nest.kind == NestKind::Gemv) {
            total += gemvCost(fn, nest, bindings);
            continue;
        }
        if (nest.kind == NestKind::Csr) {
            total += csrCost(fn, nest, bindings);
            continue;
        }
        // Dense: flops and distinct-buffer lists were recorded at plan
        // lowering; only the extents are resolved here.
        const DensePlan &dp = plan.nests[n].dense;
        Extents dom = resolveExtents(fn, nest.domainBuf, bindings);
        coord_t elems = dom.volume();
        double bytes_per_elem = 0.0;
        for (int b : dp.loadBufs) {
            if (resolveExtents(fn, b, bindings).volume() > 1)
                bytes_per_elem +=
                    double(dtypeSize(fn.buffers[std::size_t(b)].dtype));
        }
        for (int b : dp.storeBufs)
            bytes_per_elem +=
                double(dtypeSize(fn.buffers[std::size_t(b)].dtype));
        TaskCost c;
        c.elements = elems;
        c.bytes = bytes_per_elem * double(elems);
        c.wflops = dp.flopsPerElem * double(elems);
        total += c;
    }
    return total;
}

// ---------------------------------------------------------------------
// PointContext: per-invocation resolution of a plan against bindings
// ---------------------------------------------------------------------

void
PointContext::bind(const KernelFunction &fn, const ExecutablePlan &plan,
                   std::span<const BufferBinding> bindings,
                   std::span<const double> scalars)
{
    fn_ = &fn;
    plan_ = &plan;
    scalars_ = scalars;
    bindLocalBuffers(fn, bindings, all_, arena_);

    if (nests_.size() < plan.nests.size())
        nests_.resize(plan.nests.size());
    nestCount_ = int(plan.nests.size());
    for (std::size_t n = 0; n < plan.nests.size(); n++) {
        const NestPlan &np = plan.nests[n];
        ResolvedNest &rn = nests_[n];
        rn.scalarFallback = false;
        if (np.kind == NestKind::Gemv) {
            const BufferBinding &a = all_[std::size_t(fn.nests[n].gemvA)];
            rn.rows = a.extent[0];
            rn.work = double(a.extent[0]) * double(a.extent[1]);
            rn.stripParallel = np.rowParallel;
            continue;
        }
        if (np.kind == NestKind::Csr) {
            const BufferBinding &vals =
                all_[std::size_t(fn.nests[n].csrVals)];
            rn.rows = all_[std::size_t(fn.nests[n].csrY)].extent[0];
            rn.work = double(rn.rows) +
                      double(vals.irregular >= 0 ? vals.irregular
                                                 : vals.volume());
            rn.stripParallel = np.rowParallel;
            continue;
        }

        const DensePlan &dp = np.dense;
        Extents dom = resolveExtents(fn, np.domainBuf,
                                     std::span<const BufferBinding>(
                                         all_.data(),
                                         std::size_t(fn.numArgs)));
        rn.outer = dom.dims == 2 ? dom.e[0] : 1;
        rn.inner = dom.dims == 2 ? dom.e[1] : dom.e[0];
        int w = plan.stripWidth;
        rn.stripsPerRow =
            rn.inner > 0 ? (rn.inner + w - 1) / coord_t(w) : 0;
        rn.strips = rn.outer > 0 ? rn.outer * rn.stripsPerRow : 0;
        rn.work = double(rn.strips) * w * (1.0 + dp.flopsPerElem);

        rn.accesses.resize(dp.accesses.size());
        for (std::size_t s = 0; s < dp.accesses.size(); s++) {
            const BufferBinding &b =
                all_[std::size_t(dp.accesses[s].buf)];
            ResolvedAccess &a = rn.accesses[s];
            a.base = static_cast<double *>(b.base);
            if (dom.dims == 2) {
                a.rowStride = b.extent[0] == 1 ? 0 : b.stride[0];
                a.step = b.dims == 2 && b.extent[1] != 1 ? b.stride[1]
                                                         : 0;
            } else {
                a.rowStride = 0;
                a.step = b.extent[0] == 1 ? 0 : b.stride[0];
            }
            a.kind = a.step == 1   ? AccessKind::Contiguous
                     : a.step == 0 ? AccessKind::Broadcast
                                   : AccessKind::Strided;
            // A broadcast *store* target makes element order
            // observable (every iteration writes the same address):
            // preserve the interleaved scalar semantics.
            if (dp.accesses[s].isStore &&
                ((a.step == 0 && rn.inner > 1) ||
                 (dom.dims == 2 && a.rowStride == 0 && rn.outer > 1)))
                rn.scalarFallback = true;
        }
        // Alias hazards recorded at plan time resolve here: identical
        // views are same-index accesses (safe); shifted views fall
        // back to the oracle for this nest instance.
        for (const auto &[s, t] : dp.aliasHazards) {
            const ResolvedAccess &a = rn.accesses[std::size_t(s)];
            const ResolvedAccess &b = rn.accesses[std::size_t(t)];
            if (a.base != b.base || a.rowStride != b.rowStride ||
                a.step != b.step)
                rn.scalarFallback = true;
        }
        rn.stripParallel = !rn.scalarFallback;
    }
}

// ---------------------------------------------------------------------
// Executor: vector engine
// ---------------------------------------------------------------------

bool
Executor::scalarForced()
{
    const char *env = std::getenv("DIFFUSE_SCALAR_EXEC");
    return env != nullptr && env[0] != '\0' &&
           !(env[0] == '0' && env[1] == '\0');
}

void
Executor::ensureVecRegs(const ExecutablePlan &plan)
{
    std::size_t need = std::size_t(plan.maxRegCount) *
                       std::size_t(plan.stripWidth);
    if (vregs_.size() < need)
        vregs_.resize(need);
    // Every slot starts on its own row. Tape instructions re-point
    // the slots they define; invariant slots are never redefined.
    operands_.resize(std::size_t(plan.maxRegCount));
    for (std::size_t r = 0; r < operands_.size(); r++)
        operands_[r] = vregs_.data() + r * std::size_t(plan.stripWidth);
}

void
Executor::splatInvariants(const DensePlan &dp, int width,
                          std::span<const double> scalars)
{
    for (const VecInstr &ins : dp.invariants) {
        double v = ins.scalar >= 0 ? scalars[std::size_t(ins.scalar)]
                                   : ins.imm;
        double *d = vregs_.data() + std::size_t(ins.dst) * width;
        for (int k = 0; k < width; k++)
            d[k] = v;
    }
}

// The AVX-512 copy needs GCC 12 on x86-64 (a target attribute with an
// arch, __builtin_cpu_supports("x86-64-v4")). It is compiled for
// x86-64-v4, or for the build's own target where that already has
// AVX-512. Under any other -march (native on a host without AVX-512,
// say) GCC cannot inline the loop body, compiled for that target, into
// an x86-64-v4 function, and only the baseline copy is built.
#if defined(__GNUC__) && !defined(__clang__) && __GNUC__ >= 12 &&        \
    defined(__x86_64__)
#if defined(__AVX512F__) && defined(__AVX512BW__) &&                     \
    defined(__AVX512CD__) && defined(__AVX512DQ__) && defined(__AVX512VL__)
#define DIFFUSE_VM_AVX512 1
#define DIFFUSE_VM_AVX512_TARGET
#elif defined(__k8__) && !defined(__3dNOW__) // the generic x86-64 levels
#define DIFFUSE_VM_AVX512 1
#define DIFFUSE_VM_AVX512_TARGET [[gnu::target("arch=x86-64-v4")]]
#endif
#endif
#ifndef DIFFUSE_VM_AVX512
#define DIFFUSE_VM_AVX512 0
#endif

namespace {

/** The VM's erf: the select form where the loop vectorizes, the
 * branchy form in scalar code. The two return equal bits. */
template <bool SelectErf>
[[gnu::always_inline]] inline double
vmErf(double x)
{
    if constexpr (SelectErf)
        return fastErfSelect(x);
    else
        return fastErf(x);
}

/**
 * One strip of the tape VM: the single body of every copy of the
 * strip loop (VmCopy). Each copy inlines it, so the compiler generates
 * it once per instruction set. `vr` is the vector register file and
 * `src` the operand table (Executor::vregs_ and operands_).
 */
template <bool SelectErf>
[[gnu::always_inline]] inline void
execStrip(const DensePlan &dp, const ResolvedNest &rn, coord_t strip,
          int width, std::span<const double> scalars, double *vr,
          const double **src, double *partials)
{
    coord_t row = strip / rn.stripsPerRow;
    coord_t col0 = (strip % rn.stripsPerRow) * width;
    int len = int(std::min<coord_t>(width, rn.inner - col0));
    std::size_t w = std::size_t(width);

    for (const VecInstr &ins : dp.tape) {
        switch (ins.op) {
          case VecOp::Load: {
            const ResolvedAccess &a =
                rn.accesses[std::size_t(ins.access)];
            const double *p =
                a.base + row * a.rowStride + col0 * a.step;
            if (ins.inPlace && a.step == 1) {
                src[std::size_t(ins.dst)] = p;
                break;
            }
            double *__restrict d = vr + std::size_t(ins.dst) * w;
            src[std::size_t(ins.dst)] = d;
            if (a.step == 1) {
                for (int k = 0; k < len; k++)
                    d[k] = p[k];
            } else if (a.step == 0) {
                double v = *p;
                for (int k = 0; k < len; k++)
                    d[k] = v;
            } else {
                coord_t s = a.step;
                for (int k = 0; k < len; k++)
                    d[k] = p[k * s];
            }
            break;
          }
          case VecOp::Store: {
            const ResolvedAccess &a =
                rn.accesses[std::size_t(ins.access)];
            double *p = a.base + row * a.rowStride + col0 * a.step;
            // An in-place Load of the identical view: the strip is
            // already there (and __restrict forbids the self-copy).
            if (src[std::size_t(ins.a)] == p)
                break;
            const double *__restrict s = src[std::size_t(ins.a)];
            if (a.step == 1) {
                for (int k = 0; k < len; k++)
                    p[k] = s[k];
            } else if (a.step == 0) {
                // Excluded by scalarFallback when inner > 1; a
                // single-iteration broadcast store is a plain write.
                *p = s[len - 1];
            } else {
                coord_t st = a.step;
                for (int k = 0; k < len; k++)
                    p[k * st] = s[k];
            }
            break;
          }
          case VecOp::Splat:
            // Hoisted into the invariant prefix at plan time.
            break;
// The op table's rows (kernel/ops.h), one strip loop per shape. Each
// loop binds the shape's operands by name (through the operand table,
// so an operand may be an in-place Load's buffer) and evaluates the
// row's expression per element into the destination's own row. A
// triad's product T is a statement of its own and this file forbids
// FP contraction (the pragma at its top), so both IEEE rounding steps
// survive. EXP, LOG and ERF are the runtime's own (common/fastmath.h).
#define POW std::pow
#define EXP fastExp
#define LOG fastLog
#define ERF vmErf<SelectErf>
#define SQRT std::sqrt
#define FABS std::fabs
#define DIFFUSE_VM_REG(R) (src[std::size_t(ins.R)])
#define DIFFUSE_VM_IMM(S, I)                                            \
    (ins.S >= 0 ? scalars[std::size_t(ins.S)] : ins.I)
#define DIFFUSE_VM_Unary(EXPR)                                          \
    const double *__restrict va = DIFFUSE_VM_REG(a);                    \
    for (int i = 0; i < len; i++) {                                     \
        const double A = va[i];                                         \
        d[i] = (EXPR);                                                  \
    }
#define DIFFUSE_VM_Binary(EXPR)                                         \
    const double *__restrict va = DIFFUSE_VM_REG(a);                    \
    const double *__restrict vb = DIFFUSE_VM_REG(b);                    \
    for (int i = 0; i < len; i++) {                                     \
        const double A = va[i], B = vb[i];                              \
        d[i] = (EXPR);                                                  \
    }
#define DIFFUSE_VM_Ternary(EXPR)                                        \
    const double *__restrict va = DIFFUSE_VM_REG(a);                    \
    const double *__restrict vb = DIFFUSE_VM_REG(b);                    \
    const double *__restrict vc = DIFFUSE_VM_REG(c);                    \
    for (int i = 0; i < len; i++) {                                     \
        const double A = va[i], B = vb[i], C = vc[i];                   \
        d[i] = (EXPR);                                                  \
    }
#define DIFFUSE_VM_Imm(EXPR)                                            \
    const double K = DIFFUSE_VM_IMM(scalar, imm);                       \
    DIFFUSE_VM_Unary(EXPR)
#define DIFFUSE_VM_Triad(EXPR)                                          \
    const double *__restrict va = DIFFUSE_VM_REG(a);                    \
    const double *__restrict vb = DIFFUSE_VM_REG(b);                    \
    const double *__restrict vc = DIFFUSE_VM_REG(c);                    \
    for (int i = 0; i < len; i++) {                                     \
        const double A = va[i], B = vb[i], C = vc[i];                   \
        const double T = A * B;                                         \
        d[i] = (EXPR);                                                  \
    }
#define DIFFUSE_VM_TriadK(EXPR)                                         \
    const double K = DIFFUSE_VM_IMM(scalar, imm);                       \
    const double *__restrict va = DIFFUSE_VM_REG(a);                    \
    const double *__restrict vb = DIFFUSE_VM_REG(b);                    \
    for (int i = 0; i < len; i++) {                                     \
        const double A = va[i], B = vb[i];                              \
        const double T = A * B;                                         \
        d[i] = (EXPR);                                                  \
    }
#define DIFFUSE_VM_Scale(EXPR)                                          \
    const double K = DIFFUSE_VM_IMM(scalar, imm);                       \
    const double *__restrict va = DIFFUSE_VM_REG(a);                    \
    const double *__restrict vc = DIFFUSE_VM_REG(c);                    \
    for (int i = 0; i < len; i++) {                                     \
        const double A = va[i], C = vc[i];                              \
        const double T = A * K;                                         \
        d[i] = (EXPR);                                                  \
    }
#define DIFFUSE_VM_ScaleK(EXPR)                                         \
    const double K = DIFFUSE_VM_IMM(scalar, imm);                       \
    const double K2 = DIFFUSE_VM_IMM(scalar2, imm2);                    \
    const double *__restrict va = DIFFUSE_VM_REG(a);                    \
    for (int i = 0; i < len; i++) {                                     \
        const double A = va[i];                                         \
        const double T = A * K;                                         \
        d[i] = (EXPR);                                                  \
    }
#define DIFFUSE_VM_CASE(Name, Shape, Expr)                              \
          case VecOp::Name: {                                           \
            double *__restrict d = vr + std::size_t(ins.dst) * w;       \
            DIFFUSE_VM_##Shape(Expr)                                    \
            src[std::size_t(ins.dst)] = d;                              \
            break;                                                      \
          }
#define DIFFUSE_VM_MIRROR(Name, Shape, Weight, Expr)                    \
    DIFFUSE_VM_CASE(Name, Shape, Expr)
            DIFFUSE_TAPE_OPS(DIFFUSE_VM_MIRROR, DIFFUSE_VM_CASE)
#undef POW
#undef EXP
#undef LOG
#undef ERF
#undef SQRT
#undef FABS
#undef DIFFUSE_VM_REG
#undef DIFFUSE_VM_IMM
#undef DIFFUSE_VM_Unary
#undef DIFFUSE_VM_Binary
#undef DIFFUSE_VM_Ternary
#undef DIFFUSE_VM_Imm
#undef DIFFUSE_VM_Triad
#undef DIFFUSE_VM_TriadK
#undef DIFFUSE_VM_Scale
#undef DIFFUSE_VM_ScaleK
#undef DIFFUSE_VM_CASE
#undef DIFFUSE_VM_MIRROR
        }
    }

    // Fold reduction lanes in element order: the combine sequence is
    // exactly the scalar interpreter's, so results are bit-identical
    // at every strip width.
    if (partials != nullptr) {
        for (std::size_t r = 0; r < dp.reductions.size(); r++) {
            const Reduction &red = dp.reductions[r];
            const double *s = src[std::size_t(red.srcReg)];
            double p = partials[r];
            for (int k = 0; k < len; k++)
                p = applyReduction(red.op, p, s[k]);
            partials[r] = p;
        }
    }
}

/** The baseline copy: the build's own target. */
void
execStripsBaseline(const DensePlan &dp, const ResolvedNest &rn,
                   coord_t strip0, coord_t strip1, int width,
                   std::span<const double> scalars, double *vr,
                   const double **src, double *partials)
{
    for (coord_t s = strip0; s < strip1; s++)
        execStrip<false>(dp, rn, s, width, scalars, vr, src, partials);
}

#if DIFFUSE_VM_AVX512
/** The AVX-512 copy: masked vector code for the selects of exp, log
 * and erf. Not target_clones, whose ifunc cannot be forced. */
DIFFUSE_VM_AVX512_TARGET void
execStripsAvx512(const DensePlan &dp, const ResolvedNest &rn,
                 coord_t strip0, coord_t strip1, int width,
                 std::span<const double> scalars, double *vr,
                 const double **src, double *partials)
{
    for (coord_t s = strip0; s < strip1; s++)
        execStrip<true>(dp, rn, s, width, scalars, vr, src, partials);
}
#endif

/** The copy in use: picked on first use, until forceVmCopy(). */
std::atomic<VmCopy> &
currentCopy()
{
    static std::atomic<VmCopy> copy{vmCopySupported(VmCopy::Avx512)
                                        ? VmCopy::Avx512
                                        : VmCopy::Baseline};
    return copy;
}

} // namespace

const char *
vmCopyName(VmCopy copy)
{
    return copy == VmCopy::Avx512 ? "avx512" : "baseline";
}

bool
vmCopySupported(VmCopy copy)
{
    if (copy == VmCopy::Baseline)
        return true;
#if DIFFUSE_VM_AVX512
    __builtin_cpu_init();
    return __builtin_cpu_supports("x86-64-v4");
#else
    return false;
#endif
}

VmCopy
vmCopy()
{
    return currentCopy().load(std::memory_order_relaxed);
}

VmCopy
forceVmCopy(VmCopy copy)
{
    diffuse_assert(vmCopySupported(copy),
                   "strip-loop copy %s is not supported here",
                   vmCopyName(copy));
    return currentCopy().exchange(copy, std::memory_order_relaxed);
}

void
Executor::execStrips(const DensePlan &dp, const ResolvedNest &rn,
                     coord_t strip0, coord_t strip1, int width,
                     std::span<const double> scalars, double *partials)
{
#if DIFFUSE_VM_AVX512
    if (vmCopy() == VmCopy::Avx512) {
        execStripsAvx512(dp, rn, strip0, strip1, width, scalars,
                         vregs_.data(), operands_.data(), partials);
        return;
    }
#endif
    execStripsBaseline(dp, rn, strip0, strip1, width, scalars,
                       vregs_.data(), operands_.data(), partials);
}

void
Executor::runNest(PointContext &ctx, int nest)
{
    const KernelFunction &fn = *ctx.fn_;
    const ExecutablePlan &plan = *ctx.plan_;
    const NestPlan &np = plan.nests[std::size_t(nest)];
    const LoopNest &loop = fn.nests[std::size_t(nest)];
    const ResolvedNest &rn = ctx.nest(nest);

    switch (np.kind) {
      case NestKind::Gemv:
        runGemv(loop, ctx.all_, 0, rn.rows);
        return;
      case NestKind::Csr:
        runCsr(loop, ctx.all_, 0, rn.rows);
        return;
      case NestKind::Dense:
        break;
    }
    if (rn.scalarFallback) {
        runDense(fn, loop, ctx.all_, ctx.scalars_);
        return;
    }

    const DensePlan &dp = np.dense;
    ensureVecRegs(plan);
    splatInvariants(dp, plan.stripWidth, ctx.scalars_);
    invariantEpoch_ = 0; // register file no longer matches any epoch

    partials_.resize(dp.reductions.size());
    for (std::size_t r = 0; r < dp.reductions.size(); r++)
        partials_[r] = reductionIdentity(dp.reductions[r].op);

    execStrips(dp, rn, 0, rn.strips, plan.stripWidth, ctx.scalars_,
               partials_.data());

    for (std::size_t r = 0; r < dp.reductions.size(); r++) {
        const Reduction &red = dp.reductions[r];
        const BufferBinding &acc =
            ctx.all_[std::size_t(red.accBuf)];
        double *p = static_cast<double *>(acc.base);
        *p = applyReduction(red.op, *p, partials_[r]);
    }
}

void
Executor::runStrips(PointContext &ctx, int nest, coord_t strip0,
                    coord_t strip1, std::uint64_t epoch)
{
    const ExecutablePlan &plan = *ctx.plan_;
    const DensePlan &dp = plan.nests[std::size_t(nest)].dense;
    const ResolvedNest &rn = ctx.nest(nest);
    diffuse_assert(dp.reductions.empty(),
                   "runStrips on a reduction-carrying nest");

    ensureVecRegs(plan);
    if (invariantEpoch_ != epoch) {
        splatInvariants(dp, plan.stripWidth, ctx.scalars_);
        invariantEpoch_ = epoch;
    }
    execStrips(dp, rn, strip0, strip1, plan.stripWidth, ctx.scalars_,
               nullptr);
}

void
Executor::runGemvRows(PointContext &ctx, int nest, coord_t row0,
                      coord_t row1)
{
    runGemv(ctx.fn_->nests[std::size_t(nest)], ctx.all_, row0, row1);
}

void
Executor::runCsrRows(PointContext &ctx, int nest, coord_t row0,
                     coord_t row1)
{
    runCsr(ctx.fn_->nests[std::size_t(nest)], ctx.all_, row0, row1);
}

void
Executor::run(const KernelFunction &fn, const ExecutablePlan &plan,
              std::span<const BufferBinding> bindings,
              std::span<const double> scalars)
{
    ownCtx_.bind(fn, plan, bindings, scalars);
    for (int n = 0; n < ownCtx_.nestCount(); n++)
        runNest(ownCtx_, n);
}

void
Executor::run(const KernelFunction &fn,
              std::span<const BufferBinding> bindings,
              std::span<const double> scalars)
{
    if (scalarForced()) {
        runScalar(fn, bindings, scalars);
        return;
    }
    ExecutablePlan plan = lowerPlan(fn);
    run(fn, plan, bindings, scalars);
}

// ---------------------------------------------------------------------
// Executor: the scalar oracle
// ---------------------------------------------------------------------

void
Executor::runScalar(const KernelFunction &fn,
                    std::span<const BufferBinding> bindings,
                    std::span<const double> scalars)
{
    bindLocalBuffers(fn, bindings, all_, scalarArena_);

    for (const LoopNest &nest : fn.nests) {
        switch (nest.kind) {
          case NestKind::Dense:
            runDense(fn, nest, all_, scalars);
            break;
          case NestKind::Gemv:
            runGemv(nest, all_, 0,
                    all_[std::size_t(nest.gemvA)].extent[0]);
            break;
          case NestKind::Csr:
            runCsr(nest, all_, 0,
                   all_[std::size_t(nest.csrY)].extent[0]);
            break;
        }
    }
}

void
Executor::runDense(const KernelFunction &fn, const LoopNest &nest,
                   std::span<const BufferBinding> bindings,
                   std::span<const double> scalars)
{
    Extents dom = resolveExtents(fn, nest.domainBuf,
                                 bindings.subspan(0, std::size_t(
                                                         fn.numArgs)));
    coord_t rows = dom.e[0];
    coord_t cols = dom.dims == 2 ? dom.e[1] : 1;

    regs_.assign(std::size_t(registerCount(nest.body)), 0.0);
    double *regs = regs_.data();

    std::vector<double> partials(nest.reductions.size());
    for (std::size_t r = 0; r < nest.reductions.size(); r++)
        partials[r] = reductionIdentity(nest.reductions[r].op);

    auto address = [](const BufferBinding &b, coord_t i,
                      coord_t j) -> coord_t {
        coord_t ii = b.extent[0] == 1 ? 0 : i;
        if (b.dims == 2) {
            coord_t jj = b.extent[1] == 1 ? 0 : j;
            return ii * b.stride[0] + jj * b.stride[1];
        }
        return ii * b.stride[0];
    };

    for (coord_t i = 0; i < rows; i++) {
        for (coord_t j = 0; j < cols; j++) {
            for (const Instr &ins : nest.body) {
                switch (ins.op) {
                  case Op::LoadBuf: {
                    const BufferBinding &b = bindings[std::size_t(
                        ins.buf)];
                    regs[ins.dst] = static_cast<const double *>(
                        b.base)[address(b, i, j)];
                    break;
                  }
                  case Op::StoreBuf: {
                    const BufferBinding &b = bindings[std::size_t(
                        ins.buf)];
                    static_cast<double *>(b.base)[address(b, i, j)] =
                        regs[ins.a];
                    break;
                  }
                  case Op::LoadScalar:
                    regs[ins.dst] = scalars[std::size_t(ins.scalar)];
                    break;
                  case Op::Const:
                    regs[ins.dst] = ins.imm;
                    break;
                  case Op::Copy:
                    regs[ins.dst] = regs[ins.a];
                    break;
                  case Op::Add:
                    regs[ins.dst] = regs[ins.a] + regs[ins.b];
                    break;
                  case Op::Sub:
                    regs[ins.dst] = regs[ins.a] - regs[ins.b];
                    break;
                  case Op::Mul:
                    regs[ins.dst] = regs[ins.a] * regs[ins.b];
                    break;
                  case Op::Div:
                    regs[ins.dst] = regs[ins.a] / regs[ins.b];
                    break;
                  case Op::Max:
                    regs[ins.dst] = regs[ins.a] > regs[ins.b]
                                        ? regs[ins.a]
                                        : regs[ins.b];
                    break;
                  case Op::Min:
                    regs[ins.dst] = regs[ins.a] < regs[ins.b]
                                        ? regs[ins.a]
                                        : regs[ins.b];
                    break;
                  case Op::Pow:
                    regs[ins.dst] = std::pow(regs[ins.a], regs[ins.b]);
                    break;
                  case Op::Neg:
                    regs[ins.dst] = -regs[ins.a];
                    break;
                  case Op::Sqrt:
                    regs[ins.dst] = std::sqrt(regs[ins.a]);
                    break;
                  case Op::Exp:
                    regs[ins.dst] = fastExp(regs[ins.a]);
                    break;
                  case Op::Log:
                    regs[ins.dst] = fastLog(regs[ins.a]);
                    break;
                  case Op::Erf:
                    regs[ins.dst] = fastErf(regs[ins.a]);
                    break;
                  case Op::Abs:
                    regs[ins.dst] = std::fabs(regs[ins.a]);
                    break;
                  case Op::CmpLt:
                    regs[ins.dst] =
                        regs[ins.a] < regs[ins.b] ? 1.0 : 0.0;
                    break;
                  case Op::CmpGt:
                    regs[ins.dst] =
                        regs[ins.a] > regs[ins.b] ? 1.0 : 0.0;
                    break;
                  case Op::Select:
                    regs[ins.dst] = regs[ins.a] != 0.0 ? regs[ins.b]
                                                       : regs[ins.c];
                    break;
                }
            }
            for (std::size_t r = 0; r < nest.reductions.size(); r++) {
                partials[r] =
                    applyReduction(nest.reductions[r].op, partials[r],
                                regs[nest.reductions[r].srcReg]);
            }
        }
    }

    for (std::size_t r = 0; r < nest.reductions.size(); r++) {
        const Reduction &red = nest.reductions[r];
        const BufferBinding &acc = bindings[std::size_t(red.accBuf)];
        double *p = static_cast<double *>(acc.base);
        *p = applyReduction(red.op, *p, partials[r]);
    }
}

void
Executor::runGemv(const LoopNest &nest,
                  std::span<const BufferBinding> bindings, coord_t row0,
                  coord_t row1)
{
    const BufferBinding &a = bindings[std::size_t(nest.gemvA)];
    const BufferBinding &x = bindings[std::size_t(nest.gemvX)];
    const BufferBinding &y = bindings[std::size_t(nest.gemvY)];
    coord_t cols = a.extent[1];
    const double *ap = static_cast<const double *>(a.base);
    const double *xp = static_cast<const double *>(x.base);
    double *yp = static_cast<double *>(y.base);
    if (a.stride[1] == 1 && x.stride[0] == 1) {
        // Unit-stride fast path: a plain dot per row that the
        // compiler can unroll and vectorize.
        for (coord_t i = row0; i < row1; i++) {
            const double *__restrict row = ap + i * a.stride[0];
            double sum = 0.0;
            for (coord_t j = 0; j < cols; j++)
                sum += row[j] * xp[j];
            yp[i * y.stride[0]] = sum;
        }
        return;
    }
    for (coord_t i = row0; i < row1; i++) {
        double sum = 0.0;
        const double *row = ap + i * a.stride[0];
        for (coord_t j = 0; j < cols; j++)
            sum += row[j * a.stride[1]] * xp[j * x.stride[0]];
        yp[i * y.stride[0]] = sum;
    }
}

void
Executor::runCsr(const LoopNest &nest,
                 std::span<const BufferBinding> bindings, coord_t row0,
                 coord_t row1)
{
    const BufferBinding &rowptr = bindings[std::size_t(nest.csrRowptr)];
    const BufferBinding &colind = bindings[std::size_t(nest.csrColind)];
    const BufferBinding &vals = bindings[std::size_t(nest.csrVals)];
    const BufferBinding &x = bindings[std::size_t(nest.csrX)];
    const BufferBinding &y = bindings[std::size_t(nest.csrY)];
    const double *vp = static_cast<const double *>(vals.base);
    const double *xp = static_cast<const double *>(x.base);
    double *yp = static_cast<double *>(y.base);
    if (x.stride[0] == 1 && colind.dtype == DType::I32) {
        // Unit-stride gather fast path over the common i32 index type.
        const std::int32_t *ci =
            static_cast<const std::int32_t *>(colind.base);
        for (coord_t i = row0; i < row1; i++) {
            coord_t begin = readIndex(rowptr, i);
            coord_t end = readIndex(rowptr, i + 1);
            double sum = 0.0;
            for (coord_t k = begin; k < end; k++)
                sum += vp[k] * xp[ci[k]];
            yp[i * y.stride[0]] = sum;
        }
        return;
    }
    for (coord_t i = row0; i < row1; i++) {
        coord_t begin = readIndex(rowptr, i);
        coord_t end = readIndex(rowptr, i + 1);
        double sum = 0.0;
        for (coord_t k = begin; k < end; k++)
            sum += vp[k] * xp[readIndex(colind, k) * x.stride[0]];
        yp[i * y.stride[0]] = sum;
    }
}

// ---------------------------------------------------------------------
// WorkerPool
// ---------------------------------------------------------------------

namespace {

/** Live pool helper threads, process-wide (lazy-start regression
 * tests: N sessions sharing one pool spawn at most one pool's
 * worth of threads). */
std::atomic<int> g_liveThreads{0};

} // namespace

int
WorkerPool::defaultWorkers()
{
    return envInt("DIFFUSE_WORKERS", 1, 1, 1024);
}

int
WorkerPool::liveThreads()
{
    return g_liveThreads.load(std::memory_order_relaxed);
}

WorkerPool::WorkerPool(int workers)
{
    if (workers <= 0)
        workers = defaultWorkers();
    target_.store(workers, std::memory_order_relaxed);
    // Threads spawn lazily in ensureSpawnedLocked(): a pool that only
    // ever runs sequential work (Simulated mode, workers=1 sessions,
    // idle sessions of a shared pool) costs nothing.
}

void
WorkerPool::reserve(int workers)
{
    if (workers <= target_.load(std::memory_order_relaxed))
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    if (workers > target_.load(std::memory_order_relaxed))
        target_.store(workers, std::memory_order_relaxed);
}

int
WorkerPool::threadsSpawned() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return int(threads_.size());
}

void
WorkerPool::ensureSpawnedLocked(int cap)
{
    // Spawn only what this job can actually seat (cap - 1 helpers):
    // a small-worker session on a large shared pool must not start
    // threads that could never claim one of its slots. Later jobs
    // with a larger cap grow the pool then.
    int want = std::min(target_.load(std::memory_order_relaxed), cap) - 1;
    while (int(threads_.size()) < want) {
        threads_.emplace_back(&WorkerPool::workerLoop, this);
        g_liveThreads.fetch_add(1, std::memory_order_relaxed);
    }
}

WorkerPool::~WorkerPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    start_.notify_all();
    for (std::thread &t : threads_)
        t.join();
    g_liveThreads.fetch_sub(int(threads_.size()),
                            std::memory_order_relaxed);
}

void
WorkerPool::runStint(Job &job, int slot)
{
    for (;;) {
        coord_t begin = job.next.fetch_add(job.chunk);
        if (begin >= job.numItems)
            return;
        coord_t end = std::min(job.numItems, begin + job.chunk);
        if (slot != 0)
            steals_.fetch_add(1, std::memory_order_relaxed);
        // A cancelled job's chunks are credited without executing:
        // the accounting still converges and the stint drains fast.
        bool run;
        {
            std::lock_guard<std::mutex> lock(job.m);
            run = !job.cancelled;
        }
        if (run) {
            try {
                (*job.fn)(slot, begin, end);
            } catch (...) {
                // A kernel share may throw (injected faults, real
                // bugs). Letting it escape workerLoop() would
                // std::terminate the process; record the first
                // exception and cancel the remainder so runJob can
                // rethrow it on the submitting thread.
                std::lock_guard<std::mutex> lock(job.m);
                if (!job.error)
                    job.error = std::current_exception();
                job.cancelled = true;
            }
        }
        std::lock_guard<std::mutex> lock(job.m);
        job.itemsDone += end - begin;
        if (job.itemsDone >= job.numItems) {
            job.done = true;
            job.cv.notify_all();
        }
    }
}

void
WorkerPool::workerLoop()
{
    for (;;) {
        std::shared_ptr<Job> job;
        int slot = -1;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            for (;;) {
                if (stop_)
                    return;
                // Lease a free worker slot on any active job that
                // still has unclaimed chunks. Scanning in registration
                // order is fair enough: a job whose chunks are all
                // claimed is skipped, so helpers spill onto younger
                // jobs instead of piling up.
                for (const std::shared_ptr<Job> &j : activeJobs_) {
                    if (j->next.load() >= j->numItems)
                        continue;
                    std::lock_guard<std::mutex> jl(j->m);
                    if (j->freeSlots == 0)
                        continue;
                    slot = j->freeSlots--;
                    job = j;
                    break;
                }
                if (job)
                    break;
                std::uint64_t seen = signal_;
                start_.wait(lock, [&] {
                    return stop_ || signal_ != seen;
                });
            }
        }
        // The stint ends only once every chunk is claimed, so the
        // slot lease is never returned: no chunk is left for another
        // helper to run on it.
        runStint(*job, slot);
    }
}

void
WorkerPool::runJob(coord_t n, coord_t chunk, int cap,
                   const std::function<void(int, coord_t, coord_t)> &fn)
{
    auto job = std::make_shared<Job>();
    job->fn = &fn;
    job->numItems = n;
    job->chunk = chunk;
    // The caller owns slot 0 for the whole job; helpers lease
    // 1..cap-1.
    job->freeSlots = cap - 1;

    {
        std::lock_guard<std::mutex> lock(mutex_);
        ensureSpawnedLocked(cap);
        activeJobs_.push_back(job);
        signal_++;
    }
    start_.notify_all();

    runStint(*job, 0);

    // Every chunk is claimed; some may still be executing on helper
    // slots. Wait for the accounting to converge rather than for a
    // quiescent pool — other jobs keep running.
    {
        std::unique_lock<std::mutex> lock(job->m);
        job->cv.wait(lock, [&] { return job->done; });
    }
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = std::find(activeJobs_.begin(), activeJobs_.end(), job);
        diffuse_assert(it != activeJobs_.end(),
                       "job vanished from the scheduler registry");
        activeJobs_.erase(it);
    }
    // Move the error out under the job's lock: once the job holds no
    // reference, a helper dropping the last Job reference cannot free
    // the exception while the caller's handler copies it.
    std::exception_ptr error;
    {
        std::lock_guard<std::mutex> lock(job->m);
        error = std::move(job->error);
    }
    if (error)
        std::rethrow_exception(error);
}

} // namespace kir
} // namespace diffuse
