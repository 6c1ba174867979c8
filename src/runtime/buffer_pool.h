/**
 * @file
 * The recycling pool behind every Real-mode host allocation of the
 * low-level runtime: canonical store buffers and per-rank shard
 * buffers alike.
 *
 * Iterative apps create and destroy same-shaped stores every step.
 * Reusing their warm, already-faulted buffers keeps the executor off
 * the kernel's page-fault path and the allocator off the submission
 * path (a replayed sharded step otherwise allocates a fresh shard
 * buffer for every rank of every new temporary). One pool serves both
 * kinds of buffer, so one cap (kMaxPooledBytes) bounds what it holds
 * and one eviction (evictAll, under DIFFUSE_MEM_BUDGET pressure)
 * releases it.
 */

#ifndef DIFFUSE_RUNTIME_BUFFER_POOL_H
#define DIFFUSE_RUNTIME_BUFFER_POOL_H

#if __has_include(<sys/mman.h>)
#include <sys/mman.h> // MADV_HUGEPAGE, where the platform has it
#endif

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <unordered_map>
#include <vector>

namespace diffuse {
namespace rt {

struct RuntimeStats;

/** Frees a RawBuffer with the deallocator that matches its alloc(). */
struct RawBufferFree
{
    bool aligned = false; ///< std::aligned_alloc, else new[]
    void
    operator()(std::byte *q) const
    {
        if (aligned)
            std::free(q);
        else
            delete[] q;
    }
};

/**
 * A host allocation. Unlike std::vector, alloc() leaves memory
 * uninitialized, so a store whose first use is a fully-covering write
 * never pays an init pass (the kernel overwrites every element).
 *
 * Large buffers are backed by 2 MiB pages where the kernel offers
 * them (MADV_HUGEPAGE): a fresh 512 MiB temporary then faults in by
 * ~256 huge pages instead of 131,072 small ones. size() stays the
 * requested byte count (the pool's key; DIFFUSE_MEM_BUDGET counts it
 * too), so the rounding up to whole huge pages is not counted.
 */
struct RawBuffer
{
#ifdef MADV_HUGEPAGE
    /**
     * Buffers from this size on get huge pages. glibc serves requests
     * this large by a fresh mapping anyway (its mmap threshold never
     * exceeds 32 MiB on 64-bit), so the 2 MiB alignment fragments no
     * heap, and rounding up to whole huge pages wastes at most 1/16.
     */
    static constexpr std::size_t kHugePageThreshold = 32u << 20;
    static constexpr std::size_t kHugePageBytes = 2u << 20;
#endif

    std::unique_ptr<std::byte[], RawBufferFree> p;
    std::size_t n = 0;

    bool empty() const { return n == 0; }
    std::size_t size() const { return n; }
    std::byte *data() { return p.get(); }
    const std::byte *data() const { return p.get(); }
    void
    alloc(std::size_t bytes)
    {
        n = bytes;
#ifdef MADV_HUGEPAGE
        if (bytes >= kHugePageThreshold) {
            std::size_t rounded = (bytes + kHugePageBytes - 1) /
                                  kHugePageBytes * kHugePageBytes;
            void *q = std::aligned_alloc(kHugePageBytes, rounded);
            if (q == nullptr)
                throw std::bad_alloc();
            // Advice only: where it is refused, small pages serve.
            (void)madvise(q, rounded, MADV_HUGEPAGE);
            p = std::unique_ptr<std::byte[], RawBufferFree>(
                static_cast<std::byte *>(q), RawBufferFree{true});
            return;
        }
#endif
        p = std::unique_ptr<std::byte[], RawBufferFree>(
            new std::byte[bytes]);
    }
};

/**
 * Size-keyed pool of recycled RawBuffers. Single-threaded: a runtime
 * allocates and releases buffers only on its submitting/retiring
 * thread, never from pool workers. Hits, misses and evictions count
 * into RuntimeStats::bufferPoolHits, bufferPoolMisses and
 * budgetEvictions.
 */
class BufferPool
{
  public:
    /** Bytes the pool may hold; beyond that, returned buffers free. */
    static constexpr std::size_t kMaxPooledBytes = 256u << 20;

    explicit BufferPool(RuntimeStats &stats) : stats_(stats) {}

    /** Would take(bytes) be served from the pool? */
    bool
    holds(std::size_t bytes) const
    {
        auto it = free_.find(bytes);
        return it != free_.end() && !it->second.empty();
    }

    /**
     * A buffer of exactly `bytes`: a pooled one when available (a
     * hit), else a fresh allocation (a miss). The contents are
     * unspecified either way; callers initialize what they read.
     */
    RawBuffer take(std::size_t bytes);

    /** Return a buffer (empty ones are ignored). It is pooled while
     * the pool stays within kMaxPooledBytes, else freed at once. */
    void give(RawBuffer &&buf);

    /** Free every pooled buffer, counting each as a budget eviction. */
    void evictAll();

    std::size_t pooledBytes() const { return pooledBytes_; }

  private:
    RuntimeStats &stats_;
    std::unordered_map<std::size_t, std::vector<RawBuffer>> free_;
    std::size_t pooledBytes_ = 0;
};

} // namespace rt
} // namespace diffuse

#endif // DIFFUSE_RUNTIME_BUFFER_POOL_H
