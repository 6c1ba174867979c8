/**
 * @file
 * ShardedCache (common/sharded_cache.h), the policy behind every
 * process-wide cache: a cold key is built exactly once however many
 * threads race on it, and a throwing build caches nothing.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/sharded_cache.h"

namespace diffuse {
namespace {

TEST(ShardedCache, RacingThreadsBuildOneKeyOnce)
{
    constexpr int kThreads = 8;
    ShardedCache<int> cache;
    std::atomic<int> builds{0};
    std::atomic<int> arriving{kThreads};
    std::vector<const int *> got(kThreads, nullptr);
    std::vector<int> seen(kThreads, 0);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; t++) {
        threads.emplace_back([&, t] {
            // Released together, so every thread meets the cold key.
            arriving.fetch_sub(1);
            while (arriving.load() > 0)
                std::this_thread::yield();
            const int &v = cache.getOrBuild("key", [&] {
                builds.fetch_add(1);
                // A slow build: an unlocked cache would let the other
                // threads miss and build too, or return early.
                std::this_thread::sleep_for(std::chrono::milliseconds(5));
                return 42;
            });
            got[std::size_t(t)] = &v;
            seen[std::size_t(t)] = v;
        });
    }
    for (std::thread &th : threads)
        th.join();
    EXPECT_EQ(builds.load(), 1);
    for (int t = 0; t < kThreads; t++) {
        EXPECT_EQ(got[std::size_t(t)], got.front());
        EXPECT_EQ(seen[std::size_t(t)], 42);
    }
}

TEST(ShardedCache, ThrowingBuildCachesNothing)
{
    ShardedCache<std::string> cache;
    EXPECT_THROW((void)cache.getOrBuild("key",
                                        []() -> std::string {
                                            throw std::runtime_error(
                                                "build failed");
                                        }),
                 std::runtime_error);
    EXPECT_FALSE(cache.find("key", [](const std::string &) {}));

    // The shard lock was released on unwind (this call would deadlock
    // otherwise), and the key builds again.
    int builds = 0;
    const std::string &v = cache.getOrBuild("key", [&] {
        builds++;
        return std::string("rebuilt");
    });
    EXPECT_EQ(v, "rebuilt");
    EXPECT_EQ(builds, 1);
    std::string found;
    EXPECT_TRUE(
        cache.find("key", [&](const std::string &s) { found = s; }));
    EXPECT_EQ(found, "rebuilt");
}

} // namespace
} // namespace diffuse
