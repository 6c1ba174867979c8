/**
 * @file
 * The op table: the single definition of every arithmetic tape op.
 *
 * Each row names an op, the operand shape it reads and one expression
 * for its result. Everything else about the op is generated from the
 * row: the kir::Op and kir::VecOp enumerators, mirrorOp and
 * opFlopWeight and the tape VM's strip loop (execStrip in exec.cc,
 * which expands the expression as code). The scalar interpreter
 * (Executor::runDense) is kept apart on purpose: it is the
 * independent oracle the VM is checked against
 * (VectorExecutor.EveryTableOpMatchesOracle).
 *
 * Rows come in two kinds:
 *  - MIRROR(Name, Shape, Weight, Expr): the tape form of the scalar
 *    Op of the same name, listed in Op order, with that Op's weighted
 *    flop cost (see opFlopWeight);
 *  - DERIVED(Name, Shape, Expr): a strength-reduced form that plan
 *    lowering (plan.cc) builds from mirrors.
 *
 * Shapes and the operands they bind:
 *   Unary    A
 *   Binary   A B
 *   Ternary  A B C
 *   Imm      A K
 *   Triad    A B C, T = A * B
 *   TriadK   A B K, T = A * B
 *   Scale    A C K, T = A * K
 *   ScaleK   A K K2, T = A * K
 * A, B and C read the registers VecInstr::a/b/c; K and K2 are the
 * immediates (imm or scalars[scalar], imm2 or scalars[scalar2]). T is
 * a fused triad's product. The VM computes it as a statement of its
 * own, so both IEEE rounding steps survive: triads fuse register
 * traffic, not arithmetic. Expressions call POW, EXP, LOG, ERF, SQRT
 * and FABS, which the VM binds to the code the scalar oracle runs:
 * std::pow, std::sqrt and std::fabs, and for EXP, LOG and ERF the
 * runtime's own fastExp, fastLog and fastErf (common/fastmath.h). The
 * VM's AVX-512 copy binds ERF to fastErfSelect, the branch-free form
 * that returns fastErf's bits.
 *
 * Adding a mirror op takes one row here and one case in runDense;
 * adding a derived op takes one row and its lowering rule in plan.cc.
 */

#ifndef DIFFUSE_KERNEL_OPS_H
#define DIFFUSE_KERNEL_OPS_H

// clang-format off
#define DIFFUSE_TAPE_OPS(MIRROR, DERIVED)                                 \
    MIRROR(Copy,      Unary,   0.0,  A)                                   \
    MIRROR(Add,       Binary,  1.0,  A + B)                               \
    MIRROR(Sub,       Binary,  1.0,  A - B)                               \
    MIRROR(Mul,       Binary,  1.0,  A * B)                               \
    MIRROR(Div,       Binary,  4.0,  A / B)                               \
    MIRROR(Max,       Binary,  1.0,  A > B ? A : B)                       \
    MIRROR(Min,       Binary,  1.0,  A < B ? A : B)                       \
    MIRROR(Pow,       Binary,  32.0, POW(A, B))                           \
    MIRROR(Neg,       Unary,   1.0,  -A)                                  \
    MIRROR(Sqrt,      Unary,   4.0,  SQRT(A))                             \
    MIRROR(Exp,       Unary,   16.0, EXP(A))                              \
    MIRROR(Log,       Unary,   16.0, LOG(A))                              \
    MIRROR(Erf,       Unary,   24.0, ERF(A))                              \
    MIRROR(Abs,       Unary,   1.0,  FABS(A))                             \
    MIRROR(CmpLt,     Binary,  1.0,  A < B ? 1.0 : 0.0)                   \
    MIRROR(CmpGt,     Binary,  1.0,  A > B ? 1.0 : 0.0)                   \
    MIRROR(Select,    Ternary, 1.0,  A != 0.0 ? B : C)                    \
    DERIVED(AddK,     Imm,           A + K)                               \
    DERIVED(SubK,     Imm,           A - K)                               \
    DERIVED(RsubK,    Imm,           K - A)                               \
    DERIVED(MulK,     Imm,           A * K)                               \
    DERIVED(DivK,     Imm,           A / K)                               \
    DERIVED(RdivK,    Imm,           K / A)                               \
    DERIVED(MaxK,     Imm,           A > K ? A : K)                       \
    DERIVED(MinK,     Imm,           A < K ? A : K)                       \
    DERIVED(PowK,     Imm,           POW(A, K))                           \
    DERIVED(CmpLtK,   Imm,           A < K ? 1.0 : 0.0)                   \
    DERIVED(CmpGtK,   Imm,           A > K ? 1.0 : 0.0)                   \
    DERIVED(MulAdd,   Triad,         T + C)                               \
    DERIVED(AddMul,   Triad,         C + T)                               \
    DERIVED(MulSub,   Triad,         T - C)                               \
    DERIVED(SubMul,   Triad,         C - T)                               \
    DERIVED(MulAddK,  TriadK,        T + K)                               \
    DERIVED(MulSubK,  TriadK,        T - K)                               \
    DERIVED(MulRsubK, TriadK,        K - T)                               \
    DERIVED(MulKAdd,  Scale,         T + C)                               \
    DERIVED(AddMulK,  Scale,         C + T)                               \
    DERIVED(MulKSub,  Scale,         T - C)                               \
    DERIVED(SubMulK,  Scale,         C - T)                               \
    DERIVED(MulKAddK, ScaleK,        T + K2)                              \
    DERIVED(MulKSubK, ScaleK,        T - K2)                              \
    DERIVED(MulKRsubK, ScaleK,       K2 - T)
// clang-format on

/** Row expanders shared by the generated enums and tables. */
#define DIFFUSE_OP_ENUM(Name, ...) Name,
#define DIFFUSE_OP_SKIP(...)

#endif // DIFFUSE_KERNEL_OPS_H
