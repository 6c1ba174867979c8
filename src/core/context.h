/**
 * @file
 * SharedContext — the process-wide half of the runtime, split out of
 * DiffuseRuntime so many concurrent client sessions amortize one set
 * of caches (the serving scenario: heavy traffic of sessions running
 * the same solver shapes).
 *
 * A DiffuseRuntime ("session") owns everything whose identity is the
 * program being run: stores, the fusion window, the task stream,
 * shard placement, statistics. Everything whose identity is the
 * *program shape* — compiled kernels and executable plans (the
 * JitCompiler), canonicalized fused-group plans (the Memoizer),
 * captured window epochs (the TraceCache), image-partition pieces
 * (the ImageTable), and the worker-thread pool — lives here, behind
 * sharded locks, so fusion analysis, kernel compilation and trace
 * capture are paid once per unique program point *process-wide*, not
 * once per session.
 *
 * Sessions created through createSession() share this context;
 * constructing a DiffuseRuntime directly gives it a private context
 * of its own (the historical single-client behavior, bit-for-bit).
 * Cached artifacts are keyed canonically (store ids alpha-renamed to
 * slots) plus a planning fingerprint covering every per-session knob
 * that shapes planner or runtime output (planner options, worker and
 * rank counts, execution mode, window bounds), so sessions with
 * different configurations never cross-contaminate. Results,
 * simulated schedules and the fusion-decision counters of
 * FusionStats (tasks/groups/fused/temps/blocks/window sizing) are
 * bitwise-identical whether a program runs serially in one session,
 * serially in N sessions, or concurrently from N threads; the
 * trace-reuse counters legitimately shift from "captured" toward
 * "replayed" in warm sessions (their sum is invariant) — that reuse
 * is the point. `DIFFUSE_SHARED_CACHE=0` (or
 * `DiffuseOptions::sharedCache = 0`) makes createSession() hand out
 * fully isolated sessions as the differential oracle.
 */

#ifndef DIFFUSE_CORE_CONTEXT_H
#define DIFFUSE_CORE_CONTEXT_H

#include <atomic>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "common/sharded_cache.h"
#include "core/memo.h"
#include "core/trace.h"
#include "kernel/compiler.h"
#include "kernel/exec.h"
#include "runtime/machine.h"

namespace diffuse {

struct DiffuseOptions;
class DiffuseRuntime;

/**
 * Image partitions interned by content: one append-only table per
 * context. An id names its pieces, volumes and addressing mode, not
 * the call that registered them, so equal ids mean equal pieces in
 * every session of the context, and a rebuilt operator keys (memo
 * keys, trace codes, layout keys all mix the id) exactly like the
 * one it replaces. Entries are never freed; references stay valid
 * for the table's lifetime. Thread-safe under one mutex.
 */
class ImageTable
{
  public:
    /** Id of the entry equal to `data`, appended on first sight. */
    ImageId intern(rt::ImageData data);

    /** The entry behind an id. */
    const rt::ImageData &get(ImageId id) const;

    /** Distinct images interned so far. */
    std::size_t size() const;

  private:
    mutable std::mutex mutex_;
    /** Indexed by id; a deque keeps references stable as it grows. */
    std::deque<rt::ImageData> images_;
    std::unordered_multimap<std::uint64_t, ImageId> byHash_;
};

/**
 * Process-wide shared state for a set of runtime sessions: one
 * compiler, one memoizer, one trace cache, one single-task kernel
 * cache, one image table, one lazily-started worker pool. Thread-safe
 * throughout; always held by shared_ptr (sessions keep their context
 * alive).
 */
class SharedContext
    : public std::enable_shared_from_this<SharedContext>
{
    /** Passkey: createSession() needs shared_from_this(), so a
     * context must be shared_ptr-owned — the private token makes
     * stack/unique_ptr construction a compile error while keeping
     * the constructor public for make_shared. */
    struct Token
    {
        explicit Token() = default;
    };

  public:
    /**
     * Use create(). All sessions of one context run against one
     * machine model — cached trace timings and cost-model output are
     * functions of it, so it is fixed at context scope rather than
     * per session.
     */
    SharedContext(Token, const rt::MachineConfig &machine);

    static std::shared_ptr<SharedContext>
    create(const rt::MachineConfig &machine)
    {
        return std::make_shared<SharedContext>(Token{}, machine);
    }

    /**
     * Create a session. With shared caching enabled (the default;
     * opt out via DiffuseOptions::sharedCache = 0 or
     * DIFFUSE_SHARED_CACHE=0) the session shares this context's
     * caches and worker pool; opted out it is constructed fully
     * isolated, exactly like a directly-constructed DiffuseRuntime.
     * Thread-safe: concurrent serving threads create their own
     * sessions without external locking.
     */
    std::unique_ptr<DiffuseRuntime> createSession();
    std::unique_ptr<DiffuseRuntime>
    createSession(const DiffuseOptions &options);

    const rt::MachineConfig &machine() const { return machine_; }
    kir::JitCompiler &compiler() { return compiler_; }
    Memoizer &memo() { return memo_; }
    TraceCache &traceCache() { return traceCache_; }
    ImageTable &images() { return images_; }
    /** The one worker pool every sharing session multiplexes onto. */
    const std::shared_ptr<kir::WorkerPool> &pool() const
    {
        return pool_;
    }

    /**
     * Single-task kernel cache (library task variants, keyed on type
     * and signature plus the session's planning fingerprint). On a
     * miss, `build` runs under the key's shard lock — exactly-once
     * compilation, like Memoizer::getOrBuild.
     */
    std::shared_ptr<kir::CompiledKernel> singleKernel(
        const std::string &key,
        const std::function<std::shared_ptr<kir::CompiledKernel>()>
            &build)
    {
        return singleKernels_.getOrBuild(key, build);
    }

    /** Sessions handed out by createSession(), shared or isolated. */
    std::uint64_t sessionsCreated() const
    {
        return sessions_.load(std::memory_order_relaxed);
    }

  private:
    rt::MachineConfig machine_;
    kir::JitCompiler compiler_;
    Memoizer memo_;
    TraceCache traceCache_;
    ImageTable images_;
    std::shared_ptr<kir::WorkerPool> pool_;
    ShardedCache<std::shared_ptr<kir::CompiledKernel>> singleKernels_;
    std::atomic<std::uint64_t> sessions_{0};
};

} // namespace diffuse

#endif // DIFFUSE_CORE_CONTEXT_H
