/**
 * @file
 * sparse-mini: distributed CSR matrices, standing in for Legate Sparse
 * (paper §7). Matrices are row-tiled; SpMV reads its input vector
 * through an *image* partition (the x entries its rows touch), so a
 * preceding write of x through a Tiling partition is a true dependence
 * and SpMV never fuses with the vector update that produced x —
 * exactly the behaviour the paper's solvers exhibit.
 *
 * Row pointers, column indices and values are stores like any other;
 * their pieces are registered as image partitions computed at matrix
 * assembly (the scale-aware analogue of Legion dependent partitioning)
 * and interned by content, so a rebuilt operator reuses the ids — and
 * with them the cached plans and trace epochs — of an equal one.
 * Column indices may be 32-bit, matching the paper's PETSc-parity
 * adjustment (§7.1 footnote: PETSc stores coordinates as 32-bit).
 */

#ifndef DIFFUSE_SPARSE_CSR_H
#define DIFFUSE_SPARSE_CSR_H

#include <array>
#include <memory>
#include <vector>

#include "cunumeric/ndarray.h"

namespace diffuse {
namespace sp {

/** Task types registered by sparse-mini. */
struct SparseOps
{
    TaskTypeId spmv = 0;
};

class SparseContext;

/**
 * A distributed CSR matrix handle. Copies share the assembly
 * (reference semantics), and dropping the last handle releases the
 * underlying stores.
 */
class CsrMatrix
{
  public:
    CsrMatrix() = default;

    coord_t rows() const { return impl_ ? impl_->rows : 0; }
    coord_t cols() const { return impl_ ? impl_->cols : 0; }
    coord_t nnz() const { return impl_ ? impl_->nnz : 0; }
    bool valid() const { return impl_ != nullptr; }

    /** Dense vector holding the matrix diagonal (assembly-time). */
    const num::NDArray &diagonal() const { return impl_->diag; }

    /** Ids of the row-pointer, nonzero and gathered-x image
     * partitions. Interned by content (core/context.h): two operators
     * of one context share an id exactly when those pieces agree. */
    std::array<ImageId, 3>
    imageIds() const
    {
        return {impl_->rowptrImage, impl_->nnzImage, impl_->gatherImage};
    }

  private:
    friend class SparseContext;

    struct Impl
    {
        DiffuseRuntime *rt = nullptr;
        StoreId rowptr = INVALID_STORE;
        StoreId colind = INVALID_STORE;
        StoreId vals = INVALID_STORE;
        ImageId rowptrImage = 0;
        ImageId nnzImage = 0;
        ImageId gatherImage = 0;
        coord_t rows = 0, cols = 0, nnz = 0;
        bool idx32 = true;
        num::NDArray diag;

        ~Impl()
        {
            if (rt) {
                rt->releaseApp(rowptr);
                rt->releaseApp(colind);
                rt->releaseApp(vals);
            }
        }
    };

    explicit CsrMatrix(std::shared_ptr<Impl> impl)
        : impl_(std::move(impl))
    {}

    std::shared_ptr<Impl> impl_;
};

/**
 * Library context for sparse operations; shares the array context's
 * DiffuseRuntime.
 */
class SparseContext
{
  public:
    explicit SparseContext(num::Context &arrays);

    num::Context &arrays() { return arrays_; }

    /**
     * Assemble the 5-point 2-D Poisson operator on an nx-by-ny grid
     * (rows = nx*ny), the standard Krylov-benchmark matrix.
     */
    CsrMatrix poisson2d(coord_t nx, coord_t ny, bool idx32 = true);

    /** Tridiagonal (1-D Poisson-like) matrix. */
    CsrMatrix tridiagonal(coord_t n, double diag, double off,
                          bool idx32 = true);

    /**
     * Injection restriction operator: coarse[i] = fine[2i] over a 1-D
     * hierarchy (rows = n/2, cols = n), used by the GMG solver.
     */
    CsrMatrix injection1d(coord_t n_fine, bool idx32 = true);

    /** Linear prolongation operator (transpose-like of injection). */
    CsrMatrix prolongation1d(coord_t n_fine, bool idx32 = true);

    /** y = A @ x as one index task. */
    num::NDArray spmv(const CsrMatrix &a, const num::NDArray &x);

  private:
    /** Triplet-free direct CSR assembly helper. */
    struct Assembly
    {
        coord_t rows = 0, cols = 0;
        std::vector<std::int64_t> rowptr;
        std::vector<std::int64_t> colind;
        std::vector<double> vals;
    };

    /**
     * Structure description used in Simulated mode: the matrix never
     * materializes, only its partition images do — so weak-scaling
     * studies can use the paper's per-GPU problem sizes without
     * assembling billions of nonzeros on the host.
     */
    struct AnalyticCsr
    {
        coord_t rows = 0, cols = 0, nnz = 0;
        /** Row-pointer value at row r (prefix nonzero count). */
        std::function<coord_t(coord_t)> nnzUpTo;
        /** Column bounds [lo, hi) touched by rows [r0, r1). */
        std::function<std::pair<coord_t, coord_t>(coord_t, coord_t)>
            colRange;
    };

    CsrMatrix finalize(Assembly &&assembly, bool idx32);
    CsrMatrix finalizeAnalytic(const AnalyticCsr &shape, bool idx32);
    CsrMatrix makeHandle(coord_t rows, coord_t cols, coord_t nnz,
                         bool idx32);
    /**
     * Compute the operator's three image partitions (per-point
     * row-pointer windows, nonzero ranges, gathered-x bounds) and
     * intern them in the session context's image table. The ids name
     * the pieces, not this call: rebuilding an equal operator, in this
     * session or any other of the context, yields the same ids, so
     * its SpMV memo keys, trace codes and layout keys repeat too.
     */
    void registerImages(CsrMatrix::Impl &impl,
                        const std::function<coord_t(coord_t)> &nnz_up_to,
                        const std::function<std::pair<coord_t, coord_t>(
                            coord_t, coord_t)> &col_range);

    bool simulated() const;

    num::Context &arrays_;
    SparseOps ops_;
};

} // namespace sp
} // namespace diffuse

#endif // DIFFUSE_SPARSE_CSR_H
