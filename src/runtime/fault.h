/**
 * @file
 * Deterministic, seeded fault injection at the runtime's real seams.
 *
 * A FaultInjector decides — reproducibly, from a counter-based PRNG —
 * whether a given operation should fail. The seams that consult it
 * are the places real deployments fail: store allocation
 * (LowRuntime::ensureAllocated), kernel execution inside WorkerPool
 * jobs, exchange Copy tasks, and trace-epoch validation. Each seam
 * samples on the submitting/retiring thread (never inside worker
 * threads), so a given (seed, rate, kinds) configuration fires at
 * identical points regardless of DIFFUSE_WORKERS or timing.
 *
 * A default-constructed injector is disarmed and reads no
 * environment. Tests arm it through configure() (a seeded
 * probabilistic rate over a kind mask) or armOneShot() ("fail the Nth
 * opportunity of this kind, for `burst` consecutive opportunities").
 *
 * With rate 0 and no armed shot, shouldFault() is a single relaxed
 * load and the injector has zero observable effect (the fault-free
 * bitwise-identity guarantee).
 */

#ifndef DIFFUSE_RT_FAULT_H
#define DIFFUSE_RT_FAULT_H

#include <array>
#include <atomic>
#include <cstdint>

namespace diffuse {
namespace rt {

enum class FaultKind : std::uint8_t {
    Alloc = 0,    ///< store allocation fails
    Kernel,       ///< kernel body throws inside a WorkerPool job
    Exchange,     ///< exchange Copy task fails
    Trace,        ///< trace-epoch validation rejects the trace
    kCount,
};

const char *faultKindName(FaultKind kind);

class FaultInjector
{
  public:
    /** Programmatic (re)configuration; mask bit i arms FaultKind(i).
     * Clears any armed shot — configure(seed, 0, mask) disarms. */
    void configure(std::uint64_t seed, int ratePerTenK, unsigned kindMask);

    /**
     * Arm a deterministic shot: the next `skip` opportunities of
     * `kind` pass, then `burst` consecutive opportunities fail.
     * Overrides (is checked before) the probabilistic rate.
     */
    void armOneShot(FaultKind kind, std::uint64_t skip,
                    std::uint64_t burst = 1);

    /**
     * Rewind the per-kind opportunity counters to zero and disarm any
     * armed shot, keeping the (seed, rate, kinds) configuration.
     * Called by LowRuntime::resetAfterError(): a recovered session's
     * re-run must sample the same deterministic fault sequence as a
     * fresh session under the same seed — without this, the surviving
     * counters make post-recovery firing history-dependent.
     */
    void resetCounters();

    /** Cheap gate: false iff rate==0 and no shot is armed. */
    bool enabled() const
    {
        return armed_.load(std::memory_order_relaxed);
    }

    /**
     * Count one opportunity of `kind`; return true if it must fail.
     * Deterministic in the sequence of calls per kind.
     */
    bool shouldFault(FaultKind kind);

    /** Faults fired so far (all kinds). */
    std::uint64_t fired() const
    {
        return fired_.load(std::memory_order_relaxed);
    }

  private:
    struct KindState
    {
        std::atomic<std::uint64_t> count{0};   // opportunities seen
        std::atomic<std::uint64_t> shotAt{0};  // first failing count (1-based)
        std::atomic<std::uint64_t> shotEnd{0}; // one past last failing count
    };

    std::uint64_t seed_ = 1;
    int rate_ = 0; // per 10000
    unsigned kindMask_ = 0;
    std::atomic<bool> armed_{false};
    std::atomic<std::uint64_t> fired_{0};
    std::array<KindState, std::size_t(FaultKind::kCount)> kinds_;
};

} // namespace rt
} // namespace diffuse

#endif // DIFFUSE_RT_FAULT_H
