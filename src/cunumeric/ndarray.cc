#include "ndarray.h"

#include <cmath>

#include "common/logging.h"
#include "common/rng.h"
#include "cunumeric/generators.h"

namespace diffuse {
namespace num {

// ---------------------------------------------------------------------
// NDArray
// ---------------------------------------------------------------------

Point
NDArray::shape() const
{
    return view_.extent();
}

bool
NDArray::wholeStore() const
{
    return impl_ && view_ == impl_->shape;
}

NDArray
NDArray::slice2d(coord_t r0, coord_t r1, coord_t c0, coord_t c1) const
{
    diffuse_assert(impl_ && view_.dim() == 2, "slice2d wants 2-D array");
    Rect v(Point(view_.lo[0] + r0, view_.lo[1] + c0),
           Point(view_.lo[0] + r1, view_.lo[1] + c1));
    diffuse_assert(view_.contains(v), "slice2d out of bounds");
    return NDArray(impl_, v);
}

NDArray
NDArray::slice(coord_t lo, coord_t hi) const
{
    diffuse_assert(impl_ && view_.dim() == 1, "slice wants 1-D array");
    Rect v(Point(view_.lo[0] + lo), Point(view_.lo[0] + hi));
    diffuse_assert(view_.contains(v), "slice out of bounds");
    return NDArray(impl_, v);
}

PartitionDesc
NDArray::partition(int procs) const
{
    diffuse_assert(impl_, "partition of invalid array");
    // Scalar stores are accessed replicated.
    if (impl_->shape.volume() == 1)
        return PartitionDesc::none();
    Point ext = view_.extent();
    if (view_.dim() == 1) {
        coord_t tile = (ext[0] + procs - 1) / procs;
        return PartitionDesc::tiling(Point(tile), view_.lo, ext,
                                     PROJ_IDENTITY);
    }
    // 2-D arrays are row-tiled with one block row per processor.
    coord_t tile_rows = (ext[0] + procs - 1) / procs;
    return PartitionDesc::tiling(Point(tile_rows, ext[1]), view_.lo,
                                 ext, PROJ_ROWS_2D);
}

// ---------------------------------------------------------------------
// Context
// ---------------------------------------------------------------------

Context::Context(DiffuseRuntime &rt) : rt_(rt)
{
    registerGenerators(rt_.registry(), ops_);
}

namespace {

Rect
launchDomainFor(int procs)
{
    return Rect(Point(coord_t(0)), Point(coord_t(procs)));
}

Rect
scalarDomain()
{
    return Rect(Point(coord_t(0)), Point(coord_t(1)));
}

} // namespace

NDArray
Context::zeros(coord_t n, double init)
{
    auto impl = std::make_shared<NDArray::Impl>();
    impl->rt = &rt_;
    impl->store = rt_.createStore(Point(n), DType::F64, init);
    impl->shape = Rect::fromShape(Point(n));
    return NDArray(impl, impl->shape);
}

NDArray
Context::zeros2d(coord_t rows, coord_t cols, double init)
{
    auto impl = std::make_shared<NDArray::Impl>();
    impl->rt = &rt_;
    impl->store = rt_.createStore(Point(rows, cols), DType::F64, init);
    impl->shape = Rect::fromShape(Point(rows, cols));
    return NDArray(impl, impl->shape);
}

NDArray
Context::random(coord_t n, std::uint64_t seed, double lo, double hi)
{
    NDArray a = zeros(n);
    if (rt_.low().mode() == rt::ExecutionMode::Real) {
        double *p = rt_.low().dataF64(a.store());
        Rng rng(seed);
        for (coord_t i = 0; i < n; i++)
            p[i] = rng.uniform(lo, hi);
        rt_.low().markInitialized(a.store());
    }
    return a;
}

NDArray
Context::random2d(coord_t rows, coord_t cols, std::uint64_t seed,
                  double lo, double hi)
{
    NDArray a = zeros2d(rows, cols);
    if (rt_.low().mode() == rt::ExecutionMode::Real) {
        double *p = rt_.low().dataF64(a.store());
        Rng rng(seed);
        for (coord_t i = 0; i < rows * cols; i++)
            p[i] = rng.uniform(lo, hi);
        rt_.low().markInitialized(a.store());
    }
    return a;
}

NDArray
Context::scalar(double v)
{
    return zeros(1, v);
}

NDArray
Context::elementwise(TaskTypeId type, const char *name,
                     std::initializer_list<const NDArray *> inputs,
                     std::vector<double> scalars)
{
    diffuse_assert(inputs.size() > 0, "%s: no inputs", name);
    const NDArray &first = **inputs.begin();
    Point out_shape = first.shape();
    for (const NDArray *in : inputs) {
        diffuse_assert(in->shape() == out_shape ||
                           in->size() == 1,
                       "%s: shape mismatch", name);
    }

    NDArray out = out_shape.dim == 2
                      ? zeros2d(out_shape[0], out_shape[1])
                      : zeros(out_shape[0]);

    int procs = this->procs();
    IndexTask task;
    task.type = type;
    task.name = name;
    task.launchDomain =
        first.size() == 1 ? scalarDomain() : launchDomainFor(procs);
    for (const NDArray *in : inputs) {
        task.args.emplace_back(in->store(), in->partition(procs),
                               Privilege::Read);
    }
    task.args.emplace_back(out.store(), out.partition(procs),
                           Privilege::Write);
    task.scalars = std::move(scalars);
    rt_.submit(std::move(task));
    return out;
}

NDArray
Context::add(const NDArray &a, const NDArray &b)
{
    return elementwise(ops_.add, "add", {&a, &b}, {});
}

NDArray
Context::sub(const NDArray &a, const NDArray &b)
{
    return elementwise(ops_.sub, "sub", {&a, &b}, {});
}

NDArray
Context::mul(const NDArray &a, const NDArray &b)
{
    return elementwise(ops_.mul, "mul", {&a, &b}, {});
}

NDArray
Context::div(const NDArray &a, const NDArray &b)
{
    return elementwise(ops_.div, "div", {&a, &b}, {});
}

NDArray
Context::maximum(const NDArray &a, const NDArray &b)
{
    return elementwise(ops_.maximum, "maximum", {&a, &b}, {});
}

NDArray
Context::minimum(const NDArray &a, const NDArray &b)
{
    return elementwise(ops_.minimum, "minimum", {&a, &b}, {});
}

NDArray
Context::addScalar(const NDArray &a, double s)
{
    return elementwise(ops_.addScalar, "add_scalar", {&a}, {s});
}

NDArray
Context::mulScalar(double s, const NDArray &a)
{
    return elementwise(ops_.mulScalar, "mul_scalar", {&a}, {s});
}

NDArray
Context::axpy(const NDArray &a, double s, const NDArray &b)
{
    return elementwise(ops_.axpy, "axpy", {&a, &b}, {s});
}

NDArray
Context::powScalar(const NDArray &a, double s)
{
    return elementwise(ops_.powScalar, "pow_scalar", {&a}, {s});
}

NDArray
Context::neg(const NDArray &a)
{
    return elementwise(ops_.neg, "neg", {&a}, {});
}

NDArray
Context::sqrt(const NDArray &a)
{
    return elementwise(ops_.sqrtOp, "sqrt", {&a}, {});
}

NDArray
Context::exp(const NDArray &a)
{
    return elementwise(ops_.expOp, "exp", {&a}, {});
}

NDArray
Context::log(const NDArray &a)
{
    return elementwise(ops_.logOp, "log", {&a}, {});
}

NDArray
Context::erf(const NDArray &a)
{
    return elementwise(ops_.erfOp, "erf", {&a}, {});
}

NDArray
Context::abs(const NDArray &a)
{
    return elementwise(ops_.absOp, "abs", {&a}, {});
}

NDArray
Context::recip(double s, const NDArray &a)
{
    return elementwise(ops_.recip, "recip", {&a}, {s});
}

void
Context::assign(const NDArray &dst, const NDArray &src)
{
    diffuse_assert(dst.shape() == src.shape(), "assign shape mismatch");
    int procs = this->procs();
    IndexTask task;
    task.type = ops_.copy;
    task.name = "copy";
    task.launchDomain =
        dst.size() == 1 ? scalarDomain() : launchDomainFor(procs);
    task.args.emplace_back(src.store(), src.partition(procs),
                           Privilege::Read);
    task.args.emplace_back(dst.store(), dst.partition(procs),
                           Privilege::Write);
    rt_.submit(std::move(task));
}

void
Context::fill(const NDArray &dst, double value)
{
    int procs = this->procs();
    IndexTask task;
    task.type = ops_.fill;
    task.name = "fill";
    task.launchDomain =
        dst.size() == 1 ? scalarDomain() : launchDomainFor(procs);
    task.args.emplace_back(dst.store(), dst.partition(procs),
                           Privilege::Write);
    task.scalars = {value};
    rt_.submit(std::move(task));
}

NDArray
Context::reduction(TaskTypeId type, const char *name,
                   std::initializer_list<const NDArray *> inputs)
{
    NDArray acc = zeros(1, 0.0);
    int procs = this->procs();
    IndexTask task;
    task.type = type;
    task.name = name;
    task.launchDomain = launchDomainFor(procs);
    for (const NDArray *in : inputs) {
        task.args.emplace_back(in->store(), in->partition(procs),
                               Privilege::Read);
    }
    task.args.emplace_back(acc.store(), PartitionDesc::none(),
                           Privilege::Reduce, ReductionOp::Sum);
    rt_.submit(std::move(task));
    return acc;
}

NDArray
Context::sum(const NDArray &a)
{
    return reduction(ops_.sumReduce, "sum", {&a});
}

NDArray
Context::dot(const NDArray &a, const NDArray &b)
{
    diffuse_assert(a.shape() == b.shape(), "dot shape mismatch");
    return reduction(ops_.dot, "dot", {&a, &b});
}

NDArray
Context::norm2Sq(const NDArray &a)
{
    return reduction(ops_.norm2Sq, "norm2sq", {&a});
}

NDArray
Context::scalarOp(TaskTypeId type, const char *name,
                  std::initializer_list<const NDArray *> inputs)
{
    NDArray out = zeros(1, 0.0);
    IndexTask task;
    task.type = type;
    task.name = name;
    task.launchDomain = scalarDomain();
    for (const NDArray *in : inputs) {
        diffuse_assert(in->size() == 1, "%s wants scalar stores", name);
        task.args.emplace_back(in->store(), PartitionDesc::none(),
                               Privilege::Read);
    }
    task.args.emplace_back(out.store(), PartitionDesc::none(),
                           Privilege::Write);
    rt_.submit(std::move(task));
    return out;
}

NDArray
Context::scalarDiv(const NDArray &a, const NDArray &b)
{
    return scalarOp(ops_.scalarDiv, "sdiv", {&a, &b});
}

NDArray
Context::scalarMul(const NDArray &a, const NDArray &b)
{
    return scalarOp(ops_.scalarMul, "smul", {&a, &b});
}

NDArray
Context::scalarSub(const NDArray &a, const NDArray &b)
{
    return scalarOp(ops_.scalarSub, "ssub", {&a, &b});
}

NDArray
Context::scalarSqrt(const NDArray &a)
{
    return scalarOp(ops_.scalarSqrt, "ssqrt", {&a});
}

void
Context::scalarAssign(const NDArray &dst, const NDArray &src)
{
    IndexTask task;
    task.type = ops_.scalarCopy;
    task.name = "scopy";
    task.launchDomain = scalarDomain();
    task.args.emplace_back(src.store(), PartitionDesc::none(),
                           Privilege::Read);
    task.args.emplace_back(dst.store(), PartitionDesc::none(),
                           Privilege::Write);
    rt_.submit(std::move(task));
}

NDArray
Context::axpyS(const NDArray &a, const NDArray &alpha, const NDArray &b)
{
    return elementwise(ops_.axpyS, "axpy_s", {&a, &alpha, &b}, {});
}

NDArray
Context::axmyS(const NDArray &a, const NDArray &alpha, const NDArray &b)
{
    return elementwise(ops_.axmyS, "axmy_s", {&a, &alpha, &b}, {});
}

NDArray
Context::aypxS(const NDArray &a, const NDArray &alpha, const NDArray &b)
{
    return elementwise(ops_.aypxS, "aypx_s", {&a, &alpha, &b}, {});
}

void
Context::axpyInto(const NDArray &dst, const NDArray &alpha,
                  const NDArray &b, bool subtract)
{
    int procs = this->procs();
    IndexTask task;
    task.type = ops_.axpyInto;
    task.name = "axpy_into";
    task.launchDomain = launchDomainFor(procs);
    task.args.emplace_back(dst.store(), dst.partition(procs),
                           Privilege::ReadWrite);
    task.args.emplace_back(alpha.store(), PartitionDesc::none(),
                           Privilege::Read);
    task.args.emplace_back(b.store(), b.partition(procs),
                           Privilege::Read);
    task.scalars = {subtract ? -1.0 : 1.0};
    rt_.submit(std::move(task));
}

NDArray
Context::matvec(const NDArray &a, const NDArray &x)
{
    diffuse_assert(a.dim() == 2 && x.dim() == 1, "matvec wants A, x");
    diffuse_assert(a.wholeStore(), "matvec wants a whole-store matrix");
    Point shape = a.shape();
    diffuse_assert(shape[1] == x.size(), "matvec dimension mismatch");
    NDArray y = zeros(shape[0]);
    int procs = this->procs();
    IndexTask task;
    task.type = ops_.gemv;
    task.name = "gemv";
    task.launchDomain = launchDomainFor(procs);
    task.args.emplace_back(a.store(), a.partition(procs),
                           Privilege::Read);
    // x is read replicated: every row block needs the whole vector.
    task.args.emplace_back(x.store(), PartitionDesc::none(),
                           Privilege::Read);
    task.args.emplace_back(y.store(), y.partition(procs),
                           Privilege::Write);
    rt_.submit(std::move(task));
    return y;
}

double
Context::value(const NDArray &scalar_arr)
{
    return rt_.readScalar(scalar_arr.store());
}

std::vector<double>
Context::toHost(const NDArray &a)
{
    const auto full = rt_.readStoreF64(a.store());
    if (a.wholeStore())
        return full;
    // Extract the view window.
    Rect shape = rt_.storeMeta(a.store()).shape;
    std::vector<double> out;
    out.reserve(std::size_t(a.view().volume()));
    for (PointIterator it(a.view()); it.valid(); it.step())
        out.push_back(full[std::size_t(linearize(shape, *it))]);
    return out;
}

} // namespace num
} // namespace diffuse
