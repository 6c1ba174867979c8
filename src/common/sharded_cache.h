/**
 * @file
 * ShardedCache — the one cache policy every process-wide cache of the
 * runtime follows (the memoizer, the single-task kernel cache and the
 * trace cache): a key hashes to one of `kShards` independently locked
 * maps; a cold key is built under its shard's lock, so callers racing
 * on it build it exactly once (losers block briefly, then hit) while
 * other shards stay available; and entries are never erased, so a
 * returned reference stays valid for the cache's lifetime.
 */

#ifndef DIFFUSE_COMMON_SHARDED_CACHE_H
#define DIFFUSE_COMMON_SHARDED_CACHE_H

#include <array>
#include <cstddef>
#include <functional>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

namespace diffuse {

template <typename V>
class ShardedCache
{
  public:
    /**
     * The value cached under `key`, built by `build()` on a miss. The
     * build runs under the key's shard lock; if it throws, nothing is
     * cached, the lock is released on unwind and the next call builds
     * again.
     */
    template <typename Build>
    V &
    getOrBuild(const std::string &key, Build &&build)
    {
        Shard &shard = shards_[shardOf(key)];
        std::lock_guard<std::mutex> lock(shard.mutex);
        auto it = shard.map.find(key);
        if (it == shard.map.end())
            it = shard.map.emplace(key, build()).first;
        return it->second;
    }

    /**
     * Run `read(value)` under the key's shard lock when `key` is
     * cached; returns whether it was.
     */
    template <typename Read>
    bool
    find(const std::string &key, Read &&read) const
    {
        const Shard &shard = shards_[shardOf(key)];
        std::lock_guard<std::mutex> lock(shard.mutex);
        auto it = shard.map.find(key);
        if (it == shard.map.end())
            return false;
        read(std::as_const(it->second));
        return true;
    }

    /**
     * Locked in-place update for callers with per-key logic of their
     * own: returns `fn(entry, insert)` run under the key's shard lock.
     * `entry` points at the cached value, which `fn` may modify, or is
     * null when `key` is absent; then `insert(value)` caches `value`
     * under `key` and returns a reference to it. A key `fn` does not
     * insert stays absent.
     */
    template <typename Fn>
    decltype(auto)
    update(const std::string &key, Fn &&fn)
    {
        Shard &shard = shards_[shardOf(key)];
        std::lock_guard<std::mutex> lock(shard.mutex);
        auto it = shard.map.find(key);
        auto insert = [&](V value) -> V & {
            return shard.map.emplace(key, std::move(value)).first->second;
        };
        return fn(it == shard.map.end() ? nullptr : &it->second, insert);
    }

  private:
    static constexpr std::size_t kShards = 16;

    struct Shard
    {
        mutable std::mutex mutex;
        std::unordered_map<std::string, V> map;
    };

    static std::size_t
    shardOf(const std::string &key)
    {
        return std::hash<std::string>{}(key) % kShards;
    }

    std::array<Shard, kShards> shards_;
};

} // namespace diffuse

#endif // DIFFUSE_COMMON_SHARDED_CACHE_H
