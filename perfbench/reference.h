/**
 * @file
 * Plain single-threaded C++ references the benchmark checks the
 * library's outputs against. They build their own CSR operators and
 * run the textbook solver recurrences with no library code, so a
 * defect in assembly, fusion, replay or execution shows as a mismatch.
 */

#ifndef PERFBENCH_REFERENCE_H
#define PERFBENCH_REFERENCE_H

#include <cstdint>
#include <vector>

namespace perfbench {
namespace ref {

/** A host CSR matrix. */
struct Csr
{
    std::int64_t rows = 0;
    std::int64_t cols = 0;
    std::vector<std::int64_t> rowptr;
    std::vector<std::int32_t> col;
    std::vector<double> val;

    std::size_t bytes() const;
};

/** 5-point Poisson operator on an nx-by-ny grid (4 on the diagonal). */
Csr poisson2d(std::int64_t nx, std::int64_t ny);
/** Tridiagonal matrix with constant diagonals. */
Csr tridiagonal(std::int64_t n, double diag, double off);
/** coarse[i] = fine[2i]. */
Csr injection1d(std::int64_t nFine);
/** Linear interpolation from n/2 coarse points to n fine points. */
Csr prolongation1d(std::int64_t nFine);

using Vec = std::vector<double>;

Vec spmv(const Csr &a, const Vec &x);
double dot(const Vec &a, const Vec &b);
/** ||b - A x||^2. */
double residualSq(const Csr &a, const Vec &x, const Vec &b);

/** Unpreconditioned CG from x0 = 0, fixed iteration count. */
Vec cg(const Csr &a, const Vec &b, int iters);
/** Unpreconditioned BiCGSTAB from x0 = 0, fixed iteration count. */
Vec bicgstab(const Csr &a, const Vec &b, int iters);

/** Geometric multigrid hierarchy over 1-D Poisson chains. */
struct Gmg
{
    std::vector<Csr> a;
    std::vector<Csr> restrict_;
    std::vector<Csr> prolong;
    std::vector<Vec> dinvW; ///< weight / diag(A) per level
    int smoothSteps = 2;
};
Gmg gmgHierarchy(std::int64_t n, int levels, double weight = 2.0 / 3.0);
/** CG preconditioned by one weighted-Jacobi V-cycle per iteration. */
Vec gmgPcg(const Gmg &h, const Vec &b, int iters);

/** The values Context::random(n, seed, lo, hi) fills an array with. */
Vec uniform(std::uint64_t seed, std::int64_t n, double lo, double hi);

/**
 * One step of the Fig 1 stencil on an (n+2)x(n+2) row-major grid:
 * each interior cell becomes 0.2 * (c + north + east + west + south),
 * summed in that order, from the pre-step values.
 */
double stencilCell(const double *grid, std::int64_t n, std::int64_t i,
                   std::int64_t j);

} // namespace ref
} // namespace perfbench

#endif // PERFBENCH_REFERENCE_H
