/**
 * @file
 * legion-mini tests: coherence-driven communication accounting (halo
 * exchange, allgather, allreduce, same-view locality), runtime
 * overhead scaling, lazy materialization, and memoizer canonical
 * forms (paper Fig 7).
 */

#include <gtest/gtest.h>

#include "core/memo.h"
#include "cunumeric/ndarray.h"
#include "runtime/runtime.h"

namespace diffuse {
namespace {

DiffuseOptions
opts(bool fuse, rt::ExecutionMode mode = rt::ExecutionMode::Real)
{
    DiffuseOptions o;
    o.fusionEnabled = fuse;
    o.mode = mode;
    // This file asserts the ranks=1 analytic communication model and
    // canonical-allocation materialization counts; the sharded path
    // has its own measured-exchange tests (test_shard_exchange.cc),
    // so pin ranks regardless of DIFFUSE_RANKS in the environment.
    o.ranks = 1;
    return o;
}

TEST(Machine, OverheadGrowsWithNodes)
{
    rt::MachineConfig one = rt::MachineConfig::withGpus(8);
    rt::MachineConfig many = rt::MachineConfig::withGpus(128);
    EXPECT_GT(many.runtimeOverhead(), one.runtimeOverhead());
    EXPECT_EQ(one.nodes, 1);
    EXPECT_EQ(many.nodes, 16);
    EXPECT_EQ(many.nodeOf(0), 0);
    EXPECT_EQ(many.nodeOf(15), 1);
}

TEST(Coherence, SameViewReadIsFree)
{
    DiffuseRuntime rt(rt::MachineConfig::withGpus(8), opts(false));
    num::Context ctx(rt);
    const coord_t n = 4096;
    num::NDArray x = ctx.random(n, 1);
    num::NDArray y = ctx.mulScalar(2.0, x); // writes y via tiling
    num::NDArray z = ctx.mulScalar(3.0, y); // reads y via same tiling
    rt.flushWindow();
    (void)z;
    EXPECT_DOUBLE_EQ(rt.runtimeStats().bytesIntraNode, 0.0);
    EXPECT_DOUBLE_EQ(rt.runtimeStats().bytesInterNode, 0.0);
}

TEST(Coherence, ShiftedViewReadChargesHalo)
{
    DiffuseRuntime rt(rt::MachineConfig::withGpus(8), opts(false));
    num::Context ctx(rt);
    const coord_t n = 4096;
    num::NDArray a = ctx.random(n + 2, 1);
    num::NDArray mid = a.slice(1, n + 1);
    num::NDArray left = a.slice(0, n);
    num::NDArray s = ctx.mulScalar(2.0, left);
    ctx.assign(mid, s); // writes the interior view
    rt.flushWindow();
    double before = rt.runtimeStats().bytesIntraNode;
    num::NDArray t = ctx.mulScalar(3.0, left); // shifted read of a
    rt.flushWindow();
    (void)t;
    double halo = rt.runtimeStats().bytesIntraNode - before;
    // Each of 7 interior boundaries moves one 8-byte element.
    EXPECT_GT(halo, 0.0);
    EXPECT_LT(halo, 8.0 * 16);
}

TEST(Coherence, ReplicatedReadAfterTiledWriteChargesAllgather)
{
    DiffuseRuntime rt(rt::MachineConfig::withGpus(8), opts(false));
    num::Context ctx(rt);
    const coord_t n = 8192;
    num::NDArray m = ctx.random2d(64, n / 64, 2);
    num::NDArray x = ctx.random(n / 64, 3);
    num::NDArray x2 = ctx.mulScalar(2.0, x); // tiled write of x2
    num::NDArray y = ctx.matvec(m, x2);      // replicated read of x2
    rt.flushWindow();
    (void)y;
    // Each GPU fetches the 7 remote tiles: 7/8 of the vector each.
    double expected = 8.0 * double(n / 64) * (7.0 / 8.0) * 8.0;
    EXPECT_NEAR(rt.runtimeStats().bytesIntraNode, expected,
                expected * 0.25);
}

TEST(Coherence, ReductionChargesCollectiveAndReplicates)
{
    DiffuseRuntime rt(rt::MachineConfig::withGpus(16), opts(false));
    num::Context ctx(rt);
    const coord_t n = 4096;
    num::NDArray x = ctx.random(n, 4);
    num::NDArray d = ctx.dot(x, x);
    rt.flushWindow();
    EXPECT_EQ(rt.runtimeStats().collectives, 1u);
    EXPECT_GT(rt.runtimeStats().collectiveTime, 0.0);
    // Reading the reduced scalar afterwards is free (replicated).
    double comm_before = rt.runtimeStats().commTime;
    num::NDArray y = ctx.axpyS(x, d, x);
    rt.flushWindow();
    (void)y;
    EXPECT_DOUBLE_EQ(rt.runtimeStats().commTime, comm_before);
}

TEST(Coherence, SingleGpuNeverCommunicates)
{
    DiffuseRuntime rt(rt::MachineConfig::withGpus(1), opts(true));
    num::Context ctx(rt);
    const coord_t n = 512;
    num::NDArray a = ctx.random(n + 2, 5);
    num::NDArray mid = a.slice(1, n + 1);
    num::NDArray left = a.slice(0, n);
    for (int i = 0; i < 3; i++) {
        num::NDArray s = ctx.mulScalar(0.5, left);
        ctx.assign(mid, s);
    }
    num::NDArray d = ctx.dot(mid, mid);
    ctx.value(d);
    EXPECT_DOUBLE_EQ(rt.runtimeStats().bytesIntraNode, 0.0);
    EXPECT_DOUBLE_EQ(rt.runtimeStats().bytesInterNode, 0.0);
    EXPECT_EQ(rt.runtimeStats().collectives, 0u);
}

TEST(Coherence, InterNodeTrafficOnlyWithMultipleNodes)
{
    auto inter_bytes = [](int gpus) {
        DiffuseRuntime rt(rt::MachineConfig::withGpus(gpus),
                          opts(false, rt::ExecutionMode::Simulated));
        num::Context ctx(rt);
        const coord_t n = 1 << 16;
        num::NDArray m = ctx.zeros2d(256, n / 256);
        num::NDArray x = ctx.zeros(n / 256);
        num::NDArray x2 = ctx.mulScalar(2.0, x);
        num::NDArray y = ctx.matvec(m, x2);
        rt.flushWindow();
        (void)y;
        return rt.runtimeStats().bytesInterNode;
    };
    EXPECT_DOUBLE_EQ(inter_bytes(8), 0.0);
    EXPECT_GT(inter_bytes(32), 0.0);
}

TEST(Runtime, LazyMaterializationCountsOnlyUsedStores)
{
    // The materialization count is read right after flushWindow(),
    // before any host read.
    DiffuseRuntime rt(rt::MachineConfig::withGpus(2), opts(false));
    num::Context ctx(rt);
    num::NDArray a = ctx.zeros(128);
    num::NDArray b = ctx.zeros(128);
    (void)b; // never used: never materialized
    EXPECT_EQ(rt.runtimeStats().storesMaterialized, 0u);
    num::NDArray c = ctx.mulScalar(2.0, a);
    rt.flushWindow();
    (void)c;
    EXPECT_EQ(rt.runtimeStats().storesMaterialized, 2u); // a and c
}

TEST(Runtime, StoresFreedWhenDead)
{
    DiffuseRuntime rt(rt::MachineConfig::withGpus(2), opts(true));
    num::Context ctx(rt);
    std::size_t base = rt.low().liveStores();
    {
        num::NDArray a = ctx.zeros(64);
        num::NDArray b = ctx.mulScalar(2.0, a);
        rt.flushWindow();
        EXPECT_GT(rt.low().liveStores(), base);
    }
    // Handles dropped and window drained: all dead stores freed.
    rt.flushWindow();
    EXPECT_EQ(rt.low().liveStores(), base);
}

// ---------------------------------------------------------------------
// Memoizer canonicalization (paper Fig 7)
// ---------------------------------------------------------------------

IndexTask
taskOn(std::vector<std::pair<StoreId, Privilege>> args)
{
    IndexTask t;
    t.launchDomain = Rect(Point(coord_t(0)), Point(coord_t(4)));
    for (auto [sid, priv] : args)
        t.args.emplace_back(sid, PartitionDesc::none(), priv);
    return t;
}

TEST(Memoizer, IsomorphicStreamsShareKeys)
{
    // Paper Fig 7a: left and middle streams are isomorphic; the right
    // stream (S7 read and written by T3) is not.
    StoreTable stores;
    for (StoreId s = 1; s <= 7; s++)
        stores.add(s, Rect::fromShape(Point(coord_t(8))), DType::F64);
    auto live = [](StoreId) { return true; };
    Memoizer memo;

    std::vector<IndexTask> left{
        taskOn({{1, Privilege::Read}, {2, Privilege::Write}}),
        taskOn({{2, Privilege::Read}, {1, Privilege::Write}}),
        taskOn({{1, Privilege::Read}, {3, Privilege::Write}}),
        taskOn({{3, Privilege::Read}, {1, Privilege::Write}})};
    std::vector<IndexTask> middle{
        taskOn({{5, Privilege::Read}, {6, Privilege::Write}}),
        taskOn({{6, Privilege::Read}, {5, Privilege::Write}}),
        taskOn({{5, Privilege::Read}, {7, Privilege::Write}}),
        taskOn({{7, Privilege::Read}, {5, Privilege::Write}})};
    std::vector<IndexTask> right{
        taskOn({{5, Privilege::Read}, {6, Privilege::Write}}),
        taskOn({{6, Privilege::Read}, {5, Privilege::Write}}),
        taskOn({{7, Privilege::Read}, {7, Privilege::Write}}),
        taskOn({{7, Privilege::Read}, {5, Privilege::Write}})};

    std::string kl = memo.encode(left, stores, live, nullptr);
    std::string km = memo.encode(middle, stores, live, nullptr);
    std::string kr = memo.encode(right, stores, live, nullptr);
    EXPECT_EQ(kl, km);
    EXPECT_NE(kl, kr);
}

TEST(Memoizer, KeyIncludesPrivilegesPartitionsAndScalars)
{
    StoreTable stores;
    stores.add(1, Rect::fromShape(Point(coord_t(8))), DType::F64);
    auto live = [](StoreId) { return true; };
    Memoizer memo;

    std::vector<IndexTask> a{taskOn({{1, Privilege::Read}})};
    std::vector<IndexTask> b{taskOn({{1, Privilege::Write}})};
    EXPECT_NE(memo.encode(a, stores, live, nullptr),
              memo.encode(b, stores, live, nullptr));

    std::vector<IndexTask> c{taskOn({{1, Privilege::Read}})};
    c[0].scalars = {1.0};
    std::vector<IndexTask> d{taskOn({{1, Privilege::Read}})};
    d[0].scalars = {2.0};
    // Scalar *values* do not affect the key; their count does.
    EXPECT_EQ(memo.encode(c, stores, live, nullptr),
              memo.encode(d, stores, live, nullptr));
    std::vector<IndexTask> e{taskOn({{1, Privilege::Read}})};
    EXPECT_NE(memo.encode(c, stores, live, nullptr),
              memo.encode(e, stores, live, nullptr));
}

} // namespace
} // namespace diffuse
