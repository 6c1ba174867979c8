#include "context.h"

#include "common/env.h"
#include "common/logging.h"
#include "core/diffuse.h"

namespace diffuse {

namespace {

std::uint64_t
imageHash(const rt::ImageData &img)
{
    std::uint64_t h = img.absolute ? 1 : 0;
    hashCombineRects(h, img.pieces);
    for (coord_t v : img.volumes)
        hashCombine64(h, std::uint64_t(v));
    return h;
}

} // namespace

ImageId
ImageTable::intern(rt::ImageData data)
{
    std::uint64_t h = imageHash(data);
    std::lock_guard<std::mutex> lock(mutex_);
    auto [lo, hi] = byHash_.equal_range(h);
    for (auto it = lo; it != hi; ++it) {
        const rt::ImageData &img = images_[std::size_t(it->second)];
        if (img.absolute == data.absolute && img.pieces == data.pieces &&
            img.volumes == data.volumes) {
            return it->second;
        }
    }
    ImageId id = ImageId(images_.size());
    images_.push_back(std::move(data));
    byHash_.emplace(h, id);
    return id;
}

const rt::ImageData &
ImageTable::get(ImageId id) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    diffuse_assert(id < images_.size(), "unknown image %llu",
                   (unsigned long long)id);
    return images_[std::size_t(id)];
}

std::size_t
ImageTable::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return images_.size();
}

SharedContext::SharedContext(Token, const rt::MachineConfig &machine)
    : machine_(machine),
      // Lazily started: the pool spawns no threads until a session
      // actually runs parallel work, and sessions requesting more
      // workers reserve() it upward instead of spawning a pool each.
      pool_(std::make_shared<kir::WorkerPool>(1))
{
}

std::unique_ptr<DiffuseRuntime>
SharedContext::createSession()
{
    return createSession(DiffuseOptions());
}

std::unique_ptr<DiffuseRuntime>
SharedContext::createSession(const DiffuseOptions &options)
{
    sessions_.fetch_add(1, std::memory_order_relaxed);
    bool shared = options.sharedCache >= 0
                      ? options.sharedCache != 0
                      : envInt("DIFFUSE_SHARED_CACHE", 1, 0, 1) != 0;
    if (!shared) {
        // Opt-out: a fully isolated runtime, today's single-client
        // behavior bit-for-bit (private caches, private pool).
        return std::make_unique<DiffuseRuntime>(machine_, options);
    }
    return std::unique_ptr<DiffuseRuntime>(
        new DiffuseRuntime(shared_from_this(), options));
}

} // namespace diffuse
