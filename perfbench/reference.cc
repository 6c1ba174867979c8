#include "reference.h"

#include "common/rng.h"

namespace perfbench {
namespace ref {

std::size_t
Csr::bytes() const
{
    return rowptr.size() * sizeof(std::int64_t) +
           col.size() * sizeof(std::int32_t) + val.size() * sizeof(double);
}

namespace {

void
push(Csr &m, std::int64_t c, double v)
{
    m.col.push_back(std::int32_t(c));
    m.val.push_back(v);
}

void
endRow(Csr &m)
{
    m.rowptr.push_back(std::int64_t(m.col.size()));
}

Vec
axpy(const Vec &x, double alpha, const Vec &y)
{
    Vec out(x.size());
    for (std::size_t i = 0; i < x.size(); i++)
        out[i] = x[i] + alpha * y[i];
    return out;
}

} // namespace

Csr
poisson2d(std::int64_t nx, std::int64_t ny)
{
    Csr m;
    m.rows = m.cols = nx * ny;
    m.rowptr.push_back(0);
    for (std::int64_t i = 0; i < ny; i++) {
        for (std::int64_t j = 0; j < nx; j++) {
            std::int64_t row = i * nx + j;
            if (i > 0)
                push(m, row - nx, -1.0);
            if (j > 0)
                push(m, row - 1, -1.0);
            push(m, row, 4.0);
            if (j + 1 < nx)
                push(m, row + 1, -1.0);
            if (i + 1 < ny)
                push(m, row + nx, -1.0);
            endRow(m);
        }
    }
    return m;
}

Csr
tridiagonal(std::int64_t n, double diag, double off)
{
    Csr m;
    m.rows = m.cols = n;
    m.rowptr.push_back(0);
    for (std::int64_t i = 0; i < n; i++) {
        if (i > 0)
            push(m, i - 1, off);
        push(m, i, diag);
        if (i + 1 < n)
            push(m, i + 1, off);
        endRow(m);
    }
    return m;
}

Csr
injection1d(std::int64_t nFine)
{
    Csr m;
    m.rows = nFine / 2;
    m.cols = nFine;
    m.rowptr.push_back(0);
    for (std::int64_t i = 0; i < m.rows; i++) {
        push(m, 2 * i, 1.0);
        endRow(m);
    }
    return m;
}

Csr
prolongation1d(std::int64_t nFine)
{
    Csr m;
    std::int64_t nCoarse = nFine / 2;
    m.rows = nFine;
    m.cols = nCoarse;
    m.rowptr.push_back(0);
    for (std::int64_t i = 0; i < nFine; i++) {
        if (i % 2 == 0) {
            push(m, i / 2, 1.0);
        } else {
            push(m, i / 2, 0.5);
            if (i / 2 + 1 < nCoarse)
                push(m, i / 2 + 1, 0.5);
        }
        endRow(m);
    }
    return m;
}

Vec
spmv(const Csr &a, const Vec &x)
{
    Vec y(std::size_t(a.rows), 0.0);
    for (std::int64_t r = 0; r < a.rows; r++) {
        double acc = 0.0;
        for (std::int64_t k = a.rowptr[std::size_t(r)];
             k < a.rowptr[std::size_t(r) + 1]; k++)
            acc += a.val[std::size_t(k)] *
                   x[std::size_t(a.col[std::size_t(k)])];
        y[std::size_t(r)] = acc;
    }
    return y;
}

double
dot(const Vec &a, const Vec &b)
{
    double s = 0.0;
    for (std::size_t i = 0; i < a.size(); i++)
        s += a[i] * b[i];
    return s;
}

double
residualSq(const Csr &a, const Vec &x, const Vec &b)
{
    Vec ax = spmv(a, x);
    double s = 0.0;
    for (std::size_t i = 0; i < b.size(); i++)
        s += (b[i] - ax[i]) * (b[i] - ax[i]);
    return s;
}

Vec
cg(const Csr &a, const Vec &b, int iters)
{
    Vec x(b.size(), 0.0);
    Vec r = b;
    Vec p = r;
    double rsold = dot(r, r);
    for (int it = 0; it < iters; it++) {
        Vec ap = spmv(a, p);
        double alpha = rsold / dot(p, ap);
        x = axpy(x, alpha, p);
        r = axpy(r, -alpha, ap);
        double rsnew = dot(r, r);
        double beta = rsnew / rsold;
        for (std::size_t i = 0; i < p.size(); i++)
            p[i] = beta * p[i] + r[i];
        rsold = rsnew;
    }
    return x;
}

Vec
bicgstab(const Csr &a, const Vec &b, int iters)
{
    Vec x(b.size(), 0.0);
    Vec r = b;
    Vec rhat = r;
    Vec p = r;
    double rho = dot(rhat, r);
    for (int it = 0; it < iters; it++) {
        Vec v = spmv(a, p);
        double alpha = rho / dot(rhat, v);
        Vec s = axpy(r, -alpha, v);
        Vec t = spmv(a, s);
        double omega = dot(t, s) / dot(t, t);
        x = axpy(axpy(x, alpha, p), omega, s);
        r = axpy(s, -omega, t);
        double rhoNew = dot(rhat, r);
        double beta = (rhoNew / rho) * (alpha / omega);
        Vec pm = axpy(p, -omega, v);
        for (std::size_t i = 0; i < p.size(); i++)
            p[i] = beta * pm[i] + r[i];
        rho = rhoNew;
    }
    return x;
}

Gmg
gmgHierarchy(std::int64_t n, int levels, double weight)
{
    Gmg h;
    std::int64_t size = n;
    for (int l = 0; l < levels; l++) {
        h.a.push_back(tridiagonal(size, 2.0, -1.0));
        Vec d(std::size_t(size), weight / 2.0);
        h.dinvW.push_back(d);
        if (l + 1 < levels) {
            h.restrict_.push_back(injection1d(size));
            h.prolong.push_back(prolongation1d(size));
        }
        size /= 2;
    }
    return h;
}

namespace {

Vec
vcycle(const Gmg &h, std::size_t level, const Vec &b)
{
    const Csr &a = h.a[level];
    const Vec &dw = h.dinvW[level];
    auto smooth = [&](Vec &x) {
        Vec ax = spmv(a, x);
        for (std::size_t i = 0; i < x.size(); i++)
            x[i] = x[i] + dw[i] * (b[i] - ax[i]);
    };
    Vec x(b.size());
    for (std::size_t i = 0; i < b.size(); i++)
        x[i] = dw[i] * b[i];
    for (int s = 1; s < h.smoothSteps; s++)
        smooth(x);
    if (level + 1 < h.a.size()) {
        Vec ax = spmv(a, x);
        Vec res(b.size());
        for (std::size_t i = 0; i < b.size(); i++)
            res[i] = b[i] - ax[i];
        Vec ec = vcycle(h, level + 1, spmv(h.restrict_[level], res));
        Vec ef = spmv(h.prolong[level], ec);
        for (std::size_t i = 0; i < x.size(); i++)
            x[i] = x[i] + ef[i];
        for (int s = 0; s < h.smoothSteps; s++)
            smooth(x);
    }
    return x;
}

} // namespace

Vec
gmgPcg(const Gmg &h, const Vec &b, int iters)
{
    const Csr &a = h.a[0];
    Vec x(b.size(), 0.0);
    Vec r = b;
    Vec z = vcycle(h, 0, r);
    Vec p = z;
    double rz = dot(r, z);
    for (int it = 0; it < iters; it++) {
        Vec ap = spmv(a, p);
        double alpha = rz / dot(p, ap);
        x = axpy(x, alpha, p);
        r = axpy(r, -alpha, ap);
        z = vcycle(h, 0, r);
        double rzNew = dot(r, z);
        double beta = rzNew / rz;
        for (std::size_t i = 0; i < p.size(); i++)
            p[i] = beta * p[i] + z[i];
        rz = rzNew;
    }
    return x;
}

Vec
uniform(std::uint64_t seed, std::int64_t n, double lo, double hi)
{
    diffuse::Rng rng(seed);
    Vec v(static_cast<std::size_t>(n));
    for (double &e : v)
        e = rng.uniform(lo, hi);
    return v;
}

double
stencilCell(const double *grid, std::int64_t n, std::int64_t i,
            std::int64_t j)
{
    std::int64_t w = n + 2;
    double c = grid[i * w + j];
    double north = grid[(i - 1) * w + j];
    double east = grid[i * w + j + 1];
    double west = grid[i * w + j - 1];
    double south = grid[(i + 1) * w + j];
    return 0.2 * ((((c + north) + east) + west) + south);
}

} // namespace ref
} // namespace perfbench
