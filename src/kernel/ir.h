/**
 * @file
 * Kernel intermediate representation — the mini-MLIR substitute.
 *
 * A KernelFunction is the body of a (possibly fused) task: a sequence of
 * loop nests over buffer arguments, in program order, exactly like the
 * MLIR modules Diffuse's JIT builds from generator functions (paper §6,
 * Fig 8). Buffers play the role of memrefs: external buffers are the
 * fused task's store arguments, local buffers are task-local temporaries
 * produced by temporary-store elimination.
 *
 * Three nest kinds cover the paper's workloads:
 *  - Dense: element-wise affine loops (the `affine.for` bodies of Fig 8),
 *    optionally carrying reductions into scalar accumulators;
 *  - Gemv: dense matrix-vector product rows;
 *  - Csr: sparse matrix-vector product over CSR structure (Legate Sparse).
 *
 * Bodies are SSA: every instruction defines a fresh register. This keeps
 * the store-to-load forwarding and dead-code passes simple and sound.
 */

#ifndef DIFFUSE_KERNEL_IR_H
#define DIFFUSE_KERNEL_IR_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/geometry.h"
#include "common/types.h"
#include "kernel/ops.h"

namespace diffuse {
namespace kir {

/**
 * Per-element operations: four addressing ops, then one op per MIRROR
 * row of the op table (kernel/ops.h). Arity is implied by the opcode.
 */
enum class Op : std::uint8_t {
    LoadBuf,    ///< dst = buf[idx]
    StoreBuf,   ///< buf[idx] = a
    LoadScalar, ///< dst = scalars[scalar]
    Const,      ///< dst = imm
    DIFFUSE_TAPE_OPS(DIFFUSE_OP_ENUM, DIFFUSE_OP_SKIP)
};

/**
 * Weighted flop cost of an op, approximating GPU instruction throughput
 * ratios (transcendentals run on the SFU at a fraction of FMA rate).
 * These weights make compute-heavy kernels such as Black-Scholes partly
 * compute-bound, as on real hardware.
 */
double opFlopWeight(Op op);

/** A three-address instruction. Registers are 32-bit indices. */
struct Instr
{
    Op op;
    std::int32_t dst = -1;
    std::int32_t a = -1;
    std::int32_t b = -1;
    std::int32_t c = -1;
    std::int32_t buf = -1;    ///< buffer index for LoadBuf/StoreBuf
    std::int32_t scalar = -1; ///< scalar index for LoadScalar
    double imm = 0.0;         ///< immediate for Const
};

/** Metadata for one buffer (memref) of a kernel function. */
struct BufferInfo
{
    int dims = 1;
    DType dtype = DType::F64;
    /** Task-local temporary: allocated inside the task, never a store. */
    bool isLocal = false;
    /** Deleted by dead-code elimination; never allocated or counted. */
    bool eliminated = false;
    /**
     * Buffers sharing a non-negative alias class may reference
     * overlapping memory (different views of the same store). The loop
     * fusion pass must not reorder accesses across an alias class.
     */
    int aliasClass = -1;
    /**
     * Buffers with equal shape class have identical extents at runtime;
     * loop nests anchored on same-class buffers may be fused.
     */
    int shapeClass = -1;
};

/** Kinds of loop nests. */
enum class NestKind : std::uint8_t { Dense, Gemv, Csr };

/** A reduction carried by a Dense nest. */
struct Reduction
{
    int accBuf = -1;      ///< scalar accumulator buffer
    ReductionOp op = ReductionOp::Sum;
    int srcReg = -1;      ///< register combined once per element
};

/**
 * One loop nest. Dense nests iterate the index space of `domainBuf`
 * element-wise; Gemv and Csr nests are fixed-function forms that the
 * loop-fusion pass treats as barriers.
 */
struct LoopNest
{
    NestKind kind = NestKind::Dense;
    int domainBuf = -1;
    std::vector<Instr> body;
    std::vector<Reduction> reductions;

    // Gemv roles: y[i] = sum_j A[i,j] * x[j]
    int gemvA = -1, gemvX = -1, gemvY = -1;

    // Csr roles: y[i] = sum_{k in row i} vals[k] * x[colind[k]]
    int csrRowptr = -1, csrColind = -1, csrVals = -1, csrX = -1,
        csrY = -1;
};

/**
 * A complete kernel function: buffers, scalars and loop nests.
 * The first `numArgs` buffers are external arguments bound by the
 * runtime; the rest are task-local.
 */
struct KernelFunction
{
    std::string name;
    int numArgs = 0;
    int numScalars = 0;
    std::vector<BufferInfo> buffers;
    std::vector<LoopNest> nests;

    /** Append a local buffer, returning its index. */
    int
    addLocal(int dims, int shape_class, DType dtype = DType::F64)
    {
        BufferInfo info;
        info.dims = dims;
        info.isLocal = true;
        info.shapeClass = shape_class;
        info.dtype = dtype;
        buffers.push_back(info);
        return int(buffers.size()) - 1;
    }

    /** Total instruction count across nests (compile-cost proxy). */
    std::size_t
    instructionCount() const
    {
        std::size_t n = 0;
        for (const auto &nest : nests)
            n += nest.body.size();
        return n;
    }

    /** Number of live (non-eliminated) local buffers. */
    int
    liveLocalCount() const
    {
        int n = 0;
        for (const auto &b : buffers) {
            if (b.isLocal && !b.eliminated)
                n++;
        }
        return n;
    }
};

/**
 * Helper for emitting SSA bodies inside generator functions.
 */
class BodyBuilder
{
  public:
    explicit BodyBuilder(std::vector<Instr> &body) : body_(body) {}

    int
    load(int buf)
    {
        Instr i;
        i.op = Op::LoadBuf;
        i.dst = next_++;
        i.buf = buf;
        body_.push_back(i);
        return i.dst;
    }

    void
    store(int buf, int reg)
    {
        Instr i;
        i.op = Op::StoreBuf;
        i.a = reg;
        i.buf = buf;
        body_.push_back(i);
    }

    int
    scalar(int idx)
    {
        Instr i;
        i.op = Op::LoadScalar;
        i.dst = next_++;
        i.scalar = idx;
        body_.push_back(i);
        return i.dst;
    }

    int
    constant(double v)
    {
        Instr i;
        i.op = Op::Const;
        i.dst = next_++;
        i.imm = v;
        body_.push_back(i);
        return i.dst;
    }

    int
    binary(Op op, int a, int b)
    {
        Instr i;
        i.op = op;
        i.dst = next_++;
        i.a = a;
        i.b = b;
        body_.push_back(i);
        return i.dst;
    }

    int
    unary(Op op, int a)
    {
        Instr i;
        i.op = op;
        i.dst = next_++;
        i.a = a;
        body_.push_back(i);
        return i.dst;
    }

    int
    select(int cond, int t, int f)
    {
        Instr i;
        i.op = Op::Select;
        i.dst = next_++;
        i.a = cond;
        i.b = t;
        i.c = f;
        body_.push_back(i);
        return i.dst;
    }

  private:
    std::vector<Instr> &body_;
    int next_ = 0;
};

/** Largest register index used in a body, plus one. */
int registerCount(const std::vector<Instr> &body);

} // namespace kir
} // namespace diffuse

#endif // DIFFUSE_KERNEL_IR_H
