/**
 * @file
 * A replayed step stays off the allocator: once a solver loop has
 * warmed up, flushWindow() over its replayed epochs (trace replay,
 * retirement through the in-flight window, kernels and exchanges)
 * calls operator new not once. Issuing the tasks is not counted:
 * every operation still builds an IndexTask and an NDArray handle.
 *
 * This binary replaces the global operator new, so it holds no other
 * test. Only the test thread's calls count, and only while a flush is
 * being measured.
 *
 * The nests run below the fan-out grain, as perfbench's solvers_small
 * runs them. DIFFUSE_CHUNK > 0 would hand every nest to the worker
 * pool, which allocates a job per hand-off (WorkerPool::runJob) — a
 * cost of fan-out, not of replay — so the test clears it for its own
 * process.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>

#include "cunumeric/ndarray.h"
#include "solvers/solvers.h"
#include "sparse/csr.h"

namespace {

thread_local bool t_counting = false;
thread_local std::uint64_t t_news = 0;

void *
countedAlloc(std::size_t size, std::size_t align = 0)
{
    if (t_counting)
        t_news++;
    if (size == 0)
        size = 1;
    void *p = nullptr;
    if (align > alignof(std::max_align_t)) {
        size = (size + align - 1) / align * align;
        p = std::aligned_alloc(align, size);
    } else {
        p = std::malloc(size);
    }
    if (p == nullptr)
        throw std::bad_alloc();
    return p;
}

} // namespace

void *
operator new(std::size_t n)
{
    return countedAlloc(n);
}
void *
operator new[](std::size_t n)
{
    return countedAlloc(n);
}
void *
operator new(std::size_t n, std::align_val_t a)
{
    return countedAlloc(n, std::size_t(a));
}
void *
operator new[](std::size_t n, std::align_val_t a)
{
    return countedAlloc(n, std::size_t(a));
}
void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    try {
        return countedAlloc(n);
    } catch (...) {
        return nullptr;
    }
}
void *
operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    try {
        return countedAlloc(n);
    } catch (...) {
        return nullptr;
    }
}
void
operator delete(void *p) noexcept
{
    std::free(p);
}
void
operator delete[](void *p) noexcept
{
    std::free(p);
}
void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}
void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace diffuse {
namespace {

using num::Context;
using num::NDArray;

/** operator new calls the test thread makes inside `f`. */
template <class F>
std::uint64_t
newsDuring(F &&f)
{
    t_news = 0;
    t_counting = true;
    f();
    t_counting = false;
    return t_news;
}

/**
 * perfbench's solvers_small step (CG, BiCGSTAB and GMG-PCG, 10
 * iterations each, a residual read back per solve) at `ranks`; returns
 * the largest number of operator new calls one step's flushes made
 * after `warm` steps. The warm-up is long because a destroyed store's
 * record is recycled into whatever role the next new store plays, so
 * its placement and coherence lists reach their largest capacities
 * only after several steps (ten, at ranks 4).
 */
std::uint64_t
steadyFlushNews(int ranks, int warm, int steps)
{
    DiffuseOptions o;
    o.mode = rt::ExecutionMode::Real;
    o.workers = 2;
    o.ranks = ranks;
    o.trace = 1;
    DiffuseRuntime rt(rt::MachineConfig::withGpus(4), o);
    Context np(rt);
    sp::SparseContext sp(np);
    solvers::SolverContext sol(np, sp);
    sp::CsrMatrix a = sp.poisson2d(64, 64);
    solvers::GmgHierarchy h = sol.buildHierarchy1d(4096, 4);
    NDArray b2 = np.random(64 * 64, 0x2d, -1.0, 1.0);
    NDArray b1 = np.random(4096, 0x1d, -1.0, 1.0);

    std::uint64_t worst = 0;
    for (int step = 0; step < warm + steps; step++) {
        std::uint64_t replays = rt.fusionStats().traceEpochsReplayed;
        std::uint64_t flushes = rt.fusionStats().flushes;
        std::uint64_t news = 0;
        for (int which = 0; which < 3; which++) {
            const sp::CsrMatrix &op = which == 2 ? h.levels[0].a : a;
            const NDArray &b = which == 2 ? b1 : b2;
            NDArray x = which == 0   ? sol.cg(op, b, 10)
                        : which == 1 ? sol.bicgstab(op, b, 10)
                                     : sol.gmgPcg(h, b, 10);
            NDArray res = np.norm2Sq(np.sub(b, sp.spmv(op, x)));
            news += newsDuring([&] { rt.flushWindow(); });
            (void)rt.low().readScalarValue(res.store());
        }
        if (step < warm)
            continue;
        // Every flush of a measured step replayed.
        EXPECT_EQ(rt.fusionStats().traceEpochsReplayed - replays,
                  rt.fusionStats().flushes - flushes)
            << "ranks " << ranks << " step " << step;
        worst = std::max(worst, news);
    }
    return worst;
}

TEST(ReplayAlloc, SteadyStateFlushCallsNoOperatorNew)
{
    unsetenv("DIFFUSE_CHUNK");
    for (int ranks : {4, 1}) {
        EXPECT_EQ(steadyFlushNews(ranks, /*warm=*/16, /*steps=*/3), 0u)
            << "ranks " << ranks;
    }
}

} // namespace
} // namespace diffuse
