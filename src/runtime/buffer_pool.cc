#include "buffer_pool.h"

#include "runtime/runtime.h"

namespace diffuse {
namespace rt {

RawBuffer
BufferPool::take(std::size_t bytes)
{
    RawBuffer buf;
    auto it = free_.find(bytes);
    if (it != free_.end() && !it->second.empty()) {
        buf = std::move(it->second.back());
        it->second.pop_back();
        pooledBytes_ -= bytes;
        stats_.bufferPoolHits++;
        return buf;
    }
    buf.alloc(bytes);
    stats_.bufferPoolMisses++;
    return buf;
}

void
BufferPool::give(RawBuffer &&buf)
{
    std::size_t bytes = buf.size();
    if (bytes != 0 && pooledBytes_ + bytes <= kMaxPooledBytes) {
        pooledBytes_ += bytes;
        free_[bytes].push_back(std::move(buf));
    }
    // Pooled or freed, the caller keeps no allocation (a moved-from
    // RawBuffer would keep its stale size).
    buf = RawBuffer();
}

void
BufferPool::evictAll()
{
    for (const auto &[bytes, bufs] : free_)
        stats_.budgetEvictions += bufs.size();
    free_.clear();
    pooledBytes_ = 0;
}

} // namespace rt
} // namespace diffuse
