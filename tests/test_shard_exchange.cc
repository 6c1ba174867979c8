/**
 * @file
 * Sharded-execution tests: measured exchange volumes of the shard
 * manager (self-owned pieces are free, misaligned reads pull exactly
 * the overlap), Copy-task hazard ordering through the TaskStream, and
 * host readback through gathers.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>

#include "cunumeric/ndarray.h"
#include "runtime/runtime.h"

namespace diffuse {
namespace {

using num::Context;
using num::NDArray;

// ---------------------------------------------------------------------
// Measured exchange volumes (Real mode, ranks == gpus)
// ---------------------------------------------------------------------

DiffuseOptions
realOpts(int ranks, bool fused = false)
{
    DiffuseOptions o;
    o.fusionEnabled = fused;
    o.mode = rt::ExecutionMode::Real;
    o.ranks = ranks;
    return o;
}

TEST(ShardExchange, SelfOwnedPiecesNeedNoCopy)
{
    // An aligned chain: every read's piece is the piece the same rank
    // just wrote (or host-initialized data, free everywhere).
    DiffuseRuntime rt(rt::MachineConfig::withGpus(4), realOpts(4));
    Context ctx(rt);
    NDArray x = ctx.random(64, 1);
    NDArray y = ctx.mulScalar(2.0, x);
    NDArray z = ctx.add(y, y);
    NDArray w = ctx.sub(z, y);
    rt.flushWindow();
    (void)w;
    EXPECT_DOUBLE_EQ(rt.runtimeStats().exchangeBytes, 0.0);
    EXPECT_GT(rt.runtimeStats().hostPulls, 0u);
}

TEST(ShardExchange, MisalignedReadPullsExactOverlap)
{
    // a (size 8, 2 ranks) is task-written through tile 4: rank 0 owns
    // [0,4), rank 1 owns [4,8). t = a[0:6) + a[2:8) is written
    // through tile 3: rank 0 reads a[0,3) and a[2,5), rank 1 reads
    // a[3,6) and a[5,8). Cross-rank overlap: [4,5) and [3,4) — one
    // 8-byte element each.
    DiffuseRuntime rt(rt::MachineConfig::withGpus(2), realOpts(2));
    Context ctx(rt);
    NDArray x = ctx.random(8, 2);
    NDArray a = ctx.mulScalar(1.0, x); // task-written: ranks own tiles
    rt.flushWindow();
    double before = rt.runtimeStats().exchangeBytes;
    EXPECT_DOUBLE_EQ(before, 0.0); // x was host data: free pulls
    NDArray t = ctx.add(a.slice(0, 6), a.slice(2, 8));
    rt.flushWindow();
    EXPECT_DOUBLE_EQ(rt.runtimeStats().exchangeBytes, 16.0);

    // Numerics match the single-allocation path bitwise.
    DiffuseRuntime rt1(rt::MachineConfig::withGpus(2), realOpts(1));
    Context ctx1(rt1);
    NDArray x1 = ctx1.random(8, 2);
    NDArray a1 = ctx1.mulScalar(1.0, x1);
    NDArray t1 = ctx1.add(a1.slice(0, 6), a1.slice(2, 8));
    EXPECT_EQ(ctx.toHost(t), ctx1.toHost(t1));
}

TEST(ShardExchange, RevalidatedGhostIsNotRepulled)
{
    // The same misaligned read twice: the ghost rectangle stays valid
    // at its destination, so the second read moves nothing.
    DiffuseRuntime rt(rt::MachineConfig::withGpus(2), realOpts(2));
    Context ctx(rt);
    NDArray x = ctx.random(8, 3);
    NDArray a = ctx.mulScalar(1.0, x);
    NDArray t = ctx.add(a.slice(0, 6), a.slice(2, 8));
    rt.flushWindow();
    double after_first = rt.runtimeStats().exchangeBytes;
    NDArray u = ctx.add(a.slice(0, 6), a.slice(2, 8));
    rt.flushWindow();
    (void)t;
    (void)u;
    EXPECT_DOUBLE_EQ(rt.runtimeStats().exchangeBytes, after_first);
}

TEST(ShardExchange, OverwriteInvalidatesGhostAndReorders)
{
    // Copy-task hazard ordering, observed through values: a's halo is
    // pulled for a misaligned read, a is then overwritten, and a
    // second misaligned read must re-pull the *new* data. Any hazard
    // mis-ordering (copy before producer, consumer before copy)
    // changes the values.
    auto run = [](int ranks) {
        DiffuseRuntime rt(rt::MachineConfig::withGpus(2),
                          realOpts(ranks));
        Context ctx(rt);
        NDArray x = ctx.random(8, 4);
        NDArray a = ctx.mulScalar(1.0, x);
        NDArray t1 = ctx.add(a.slice(0, 6), a.slice(2, 8));
        NDArray a2 = ctx.mulScalar(3.0, x);
        ctx.assign(a, a2); // overwrite every rank's tiles
        NDArray t2 = ctx.add(a.slice(0, 6), a.slice(2, 8));
        std::vector<double> out = ctx.toHost(t1);
        std::vector<double> out2 = ctx.toHost(t2);
        out.insert(out.end(), out2.begin(), out2.end());
        return out;
    };
    auto sharded = run(2);
    auto baseline = run(1);
    EXPECT_EQ(sharded, baseline);
}

TEST(ShardExchange, ReductionGathersAndReplicates)
{
    // dot() reads tiled pieces (self-owned, free) and reduces into a
    // replicated scalar; a later use of the scalar is free. The
    // gather of task-written data into the canonical copy for the
    // *replicated* matvec read below is charged.
    DiffuseRuntime rt(rt::MachineConfig::withGpus(4), realOpts(4));
    Context ctx(rt);
    const coord_t n = 64;
    NDArray x = ctx.random(n, 5);
    NDArray y = ctx.mulScalar(2.0, x); // ranks own tiles of y
    NDArray d = ctx.dot(y, y);
    double before = rt.runtimeStats().exchangeBytes;
    NDArray m = ctx.random2d(8, n, 6);
    NDArray z = ctx.matvec(m, y); // replicated read of y: gather
    rt.flushWindow();
    (void)d;
    (void)z;
    double gathered = rt.runtimeStats().exchangeBytes - before;
    EXPECT_GT(gathered, 0.0);
    EXPECT_LE(gathered, double(n) * 8.0);
    EXPECT_GT(rt.runtimeStats().gathers, 0u);
}

TEST(ShardExchange, HostReadbackSeesShardWrites)
{
    // readStoreF64 gathers shard-resident rectangles into the
    // canonical allocation under the fence.
    DiffuseRuntime rt(rt::MachineConfig::withGpus(4), realOpts(4));
    Context ctx(rt);
    NDArray x = ctx.random(32, 7);
    NDArray y = ctx.addScalar(x, 1.5);
    std::vector<double> host_x = ctx.toHost(x);
    std::vector<double> host_y = ctx.toHost(y);
    ASSERT_EQ(host_y.size(), host_x.size());
    for (std::size_t i = 0; i < host_y.size(); i++)
        EXPECT_DOUBLE_EQ(host_y[i], host_x[i] + 1.5);
}

TEST(ShardExchange, CopyTasksAreHazardTracked)
{
    // Stream-level: with sharding active, exchanges appear as Copy
    // tasks in the stream and the single-rank path emits none.
    auto copies = [](int ranks) {
        DiffuseRuntime rt(rt::MachineConfig::withGpus(2),
                          realOpts(ranks));
        Context ctx(rt);
        NDArray x = ctx.random(8, 8);
        NDArray a = ctx.mulScalar(1.0, x);
        NDArray t = ctx.add(a.slice(0, 6), a.slice(2, 8));
        rt.flushWindow();
        (void)t;
        return rt.runtimeStats().copyTasks;
    };
    EXPECT_EQ(copies(1), 0u);
    EXPECT_GT(copies(2), 0u);
}

TEST(ShardExchange, InterferingAliasedAssignStaysBitIdentical)
{
    // assign(mid, shifted) makes one point's written piece overlap
    // another point's read piece: the planner must escalate the store
    // to canonical binding, preserving the sequential point order.
    auto run = [](int ranks) {
        DiffuseRuntime rt(rt::MachineConfig::withGpus(4),
                          realOpts(ranks));
        Context ctx(rt);
        const coord_t n = 64;
        NDArray a = ctx.random(n + 2, 9);
        NDArray mid = a.slice(1, n + 1);
        NDArray left = a.slice(0, n);
        for (int i = 0; i < 3; i++) {
            NDArray s = ctx.mulScalar(0.5, left);
            ctx.assign(mid, s);
        }
        // Shifted self-copy: point p writes a[1+16p, 17+16p) while
        // point p+1 reads a[16(p+1)) — the written element 16p+16 is
        // observable, so the store must bind canonically.
        ctx.assign(mid, left);
        return ctx.toHost(a);
    };
    EXPECT_EQ(run(4), run(1));
}

// ---------------------------------------------------------------------
// The shared buffer pool: canonical and shard buffers, one cap
// ---------------------------------------------------------------------

TEST(BufferPool, HoldsAtMostTheCapAndCountsHitsMissesEvictions)
{
    rt::RuntimeStats stats;
    rt::BufferPool pool(stats);
    // Never touched, these buffers cost address space, not memory.
    const std::size_t half = rt::BufferPool::kMaxPooledBytes / 2 + 1;
    rt::RawBuffer a = pool.take(half);
    rt::RawBuffer b = pool.take(half);
    EXPECT_EQ(stats.bufferPoolMisses, 2u);
    pool.give(std::move(a));
    pool.give(std::move(b)); // would overflow the cap: freed instead
    EXPECT_TRUE(b.empty());
    EXPECT_EQ(pool.pooledBytes(), half);
    ASSERT_TRUE(pool.holds(half));
    rt::RawBuffer c = pool.take(half);
    EXPECT_EQ(stats.bufferPoolHits, 1u);
    EXPECT_EQ(pool.pooledBytes(), 0u);
    pool.give(std::move(c));
    pool.evictAll();
    EXPECT_EQ(stats.budgetEvictions, 1u);
    EXPECT_EQ(pool.pooledBytes(), 0u);
}

#ifdef MADV_HUGEPAGE
TEST(BufferPool, LargeBuffersAreHugePageAlignedAndPoolWhole)
{
    rt::RuntimeStats stats;
    rt::BufferPool pool(stats);
    // Not a whole number of huge pages: alloc() rounds the mapping up,
    // but size() and the pool key stay the requested bytes.
    const std::size_t bytes = rt::RawBuffer::kHugePageThreshold + 4104;
    rt::RawBuffer a = pool.take(bytes);
    ASSERT_EQ(a.size(), bytes);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a.data()) %
                  rt::RawBuffer::kHugePageBytes,
              0u);
    std::memset(a.data(), 0x5a, bytes);
    EXPECT_EQ(a.data()[bytes - 1], std::byte{0x5a});
    const std::byte *first = a.data();
    pool.give(std::move(a));
    rt::RawBuffer b = pool.take(bytes);
    EXPECT_EQ(stats.bufferPoolHits, 1u);
    EXPECT_EQ(b.data(), first);
    EXPECT_EQ(b.data()[0], std::byte{0x5a});
    pool.give(std::move(b));
    pool.evictAll();
    EXPECT_EQ(pool.pooledBytes(), 0u);
}
#endif

TEST(BufferPool, ShardedTemporariesReuseBuffersAfterWarmup)
{
    // Unfused, every temporary of this ranks-4 loop lives in per-rank
    // shard buffers. Destroyed temporaries return them to the
    // runtime's one buffer pool, so once the loop is warm it
    // allocates no fresh buffer at all. Flushes drain, so each
    // iteration's temporaries are destroyed within it.
    DiffuseRuntime rt(rt::MachineConfig::withGpus(4), realOpts(4));
    Context ctx(rt);
    NDArray x = ctx.random(4096, 3);
    NDArray y = ctx.random(4096, 4);
    std::uint64_t warm_misses = 0, warm_hits = 0;
    for (int i = 0; i < 40; i++) {
        NDArray t = ctx.add(x, y);
        NDArray u = ctx.mul(t, y);
        ctx.assign(x, ctx.mulScalar(0.5, u));
        rt.flushWindow();
        EXPECT_LE(rt.low().pooledBytes(),
                  rt::BufferPool::kMaxPooledBytes);
        if (i == 9) {
            warm_misses = rt.runtimeStats().bufferPoolMisses;
            warm_hits = rt.runtimeStats().bufferPoolHits;
        }
    }
    EXPECT_EQ(rt.runtimeStats().bufferPoolMisses, warm_misses);
    EXPECT_GT(rt.runtimeStats().bufferPoolHits, warm_hits);
    EXPECT_GT(rt.low().pooledBytes(), 0u);
}

TEST(BufferPool, MemBudgetEvictsPooledShardBuffers)
{
    setenv("DIFFUSE_MEM_BUDGET", "2", 1); // 2 MiB
    {
        DiffuseRuntime rt(rt::MachineConfig::withGpus(4), realOpts(4));
        Context ctx(rt);
        // The only canonical allocations: x and y, host-initialized.
        const coord_t n = 16384;
        NDArray x = ctx.random(n, 5);
        NDArray y = ctx.random(n, 6);
        for (int i = 0; i < 3; i++) {
            NDArray t = ctx.add(x, y); // shard-resident temporaries
            ctx.assign(x, ctx.mulScalar(0.5, t));
            rt.flushWindow();
        }
        const std::size_t pooled = rt.low().pooledBytes();
        ASSERT_GT(pooled, 0u);
        ASSERT_EQ(rt.runtimeStats().budgetEvictions, 0u);
        // A canonical allocation that fits next to x and y, but not
        // next to the pooled shard buffers too: the pool is evicted,
        // shard buffers and all, and the allocation succeeds.
        const std::size_t live = 2 * std::size_t(n) * sizeof(double);
        const std::size_t room =
            (std::size_t(2) << 20) - live - pooled / 2;
        NDArray z = ctx.zeros(coord_t(room / sizeof(double)), 1.0);
        (void)ctx.toHost(z);
        EXPECT_FALSE(rt.failed());
        EXPECT_GT(rt.runtimeStats().budgetEvictions, 0u);
        EXPECT_EQ(rt.low().pooledBytes(), 0u);
    }
    unsetenv("DIFFUSE_MEM_BUDGET");
}

} // namespace
} // namespace diffuse
