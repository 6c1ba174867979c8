#include "runtime/fault.h"

namespace diffuse {
namespace rt {

namespace {

// splitmix64: counter-in, well-mixed 64 bits out. Counter-based so a
// decision depends only on (seed, kind, per-kind opportunity index),
// never on interleaving with other kinds or sessions.
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

} // namespace

const char *
faultKindName(FaultKind kind)
{
    switch (kind) {
        case FaultKind::Alloc: return "alloc";
        case FaultKind::Kernel: return "kernel";
        case FaultKind::Exchange: return "exchange";
        case FaultKind::Trace: return "trace";
        case FaultKind::kCount: break;
    }
    return "?";
}

void
FaultInjector::configure(std::uint64_t seed, int ratePerTenK,
                         unsigned kindMask)
{
    seed_ = seed;
    rate_ = ratePerTenK;
    kindMask_ = kindMask;
    // A full reconfiguration clears any armed shot, so
    // configure(seed, 0, mask) is a clean disarm.
    for (KindState &ks : kinds_) {
        ks.shotAt.store(0, std::memory_order_relaxed);
        ks.shotEnd.store(0, std::memory_order_relaxed);
    }
    armed_.store(rate_ > 0, std::memory_order_relaxed);
}

void
FaultInjector::resetCounters()
{
    // Keep seed/rate/mask: the injector stays armed exactly as
    // configured, but the deterministic opportunity sequence restarts
    // from zero — reset + rerun replays the same firing pattern.
    for (KindState &ks : kinds_) {
        ks.count.store(0, std::memory_order_relaxed);
        ks.shotAt.store(0, std::memory_order_relaxed);
        ks.shotEnd.store(0, std::memory_order_relaxed);
    }
    armed_.store(rate_ > 0, std::memory_order_relaxed);
}

void
FaultInjector::armOneShot(FaultKind kind, std::uint64_t skip,
                          std::uint64_t burst)
{
    KindState &ks = kinds_[std::size_t(kind)];
    std::uint64_t base = ks.count.load(std::memory_order_relaxed);
    ks.shotAt.store(base + skip + 1, std::memory_order_relaxed);
    ks.shotEnd.store(base + skip + 1 + burst, std::memory_order_relaxed);
    armed_.store(true, std::memory_order_relaxed);
}

bool
FaultInjector::shouldFault(FaultKind kind)
{
    if (!enabled())
        return false;
    KindState &ks = kinds_[std::size_t(kind)];
    std::uint64_t n = ks.count.fetch_add(1, std::memory_order_relaxed) + 1;
    std::uint64_t at = ks.shotAt.load(std::memory_order_relaxed);
    if (at != 0) {
        if (n >= at && n < ks.shotEnd.load(std::memory_order_relaxed)) {
            fired_.fetch_add(1, std::memory_order_relaxed);
            return true;
        }
        if (n < at)
            return false; // still skipping toward the armed shot
    }
    if (rate_ <= 0 || !(kindMask_ & (1u << unsigned(kind))))
        return false;
    std::uint64_t h =
        mix64(seed_ ^ (std::uint64_t(kind) << 56) ^ (n * 0x2545f4914f6cdd1dull));
    if ((h >> 33) % 10000 < std::uint64_t(rate_)) {
        fired_.fetch_add(1, std::memory_order_relaxed);
        return true;
    }
    return false;
}

} // namespace rt
} // namespace diffuse
