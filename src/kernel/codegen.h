/**
 * @file
 * Native JIT backend: C code generation for ExecutablePlan tapes.
 *
 * Each expressible Dense nest of a compiled kernel's plan is lowered
 * to a scalar C function, compiled to a shared object with the system
 * toolchain, loaded with dlopen, and dispatched by the executor in
 * place of the tape interpreter (src/kernel/exec.cc). Generated code
 * is *bitwise identical* to the interpreter by construction:
 *
 *  - each tape op's C is its op-table row (kernel/ops.h), the same
 *    expression the interpreter's strip loop evaluates;
 *  - every tape op is elementwise, and the nests the vector engine
 *    accepts (no scalarFallback) resolve all sites of a buffer to the
 *    same view — so per-element evaluation commutes with the
 *    interpreter's instruction-at-a-time strip execution;
 *  - fused triads keep the interpreter's two-rounding-step shape
 *    (`const double T = A * B; d = T OP C;`) and both engines are
 *    compiled with -ffp-contract=off, so no FMA contraction can fuse
 *    them;
 *  - transcendentals that are not correctly rounded (pow, exp, log)
 *    and the repo's own fastErf are reached through a function-pointer
 *    table passed at runtime, so the *same library code* executes and
 *    the C compiler cannot substitute its own folding;
 *  - reductions fold into per-nest accumulators in element order, the
 *    interpreter's (and the scalar oracle's) exact sequence.
 *
 * Nests the backend cannot express (Gemv/Csr fixed-function forms,
 * tapes longer than Config::maxTape) and kernels whose compile fails
 * (toolchain missing, DIFFUSE_JIT_CC=/bin/false, unwritable scratch)
 * fall back per-nest to the tape interpreter — the same degradation
 * ladder as injected compile faults, and `DIFFUSE_JIT=0` stays the
 * bitwise oracle for `DIFFUSE_JIT=1` everywhere.
 *
 * Artifacts persist across processes through the ArtifactCache
 * (src/kernel/artifact_cache.h) keyed by (canonical kernel key,
 * strip width, build fingerprint: compiler version + flags + schema
 * version). Every object embeds its full combined key as a symbol
 * (`diffuse_jit_key`), verified after dlopen — so truncated or
 * corrupted files, hash collisions and stale-fingerprint entries are
 * all rejected and recompiled instead of trusted.
 */

#ifndef DIFFUSE_KERNEL_CODEGEN_H
#define DIFFUSE_KERNEL_CODEGEN_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "kernel/artifact_cache.h"
#include "kernel/plan.h"

namespace diffuse {
namespace kir {

struct CompiledKernel;

/**
 * Function-pointer table threaded through every generated entry
 * point. Routing the non-correctly-rounded transcendentals (and the
 * repo's fastErf) through runtime pointers guarantees the generated
 * code executes the exact library code the interpreter executes, and
 * forbids the C compiler from constant-folding or substituting them.
 * Layout mirrored verbatim in the generated C source.
 */
struct JitFuncTable
{
    double (*erf_)(double);
    double (*pow_)(double, double);
    double (*exp_)(double);
    double (*log_)(double);
};

/** The process-wide table (fastErf + libm pow/exp/log). */
const JitFuncTable &jitFuncTable();

/**
 * A loaded shared object holding the compiled entry points of one
 * kernel's plan. Immutable after construction; shared by every cached
 * handle of the kernel (cross-session sharing and trace replay reuse
 * the CompiledKernel, so they reuse the module). Entries are indexed
 * by nest; inexpressible nests hold null and run on the interpreter.
 */
class JitModule
{
  public:
    /**
     * Signature of a generated per-nest entry point. `acc` points at
     * the nest's ResolvedAccess array (layout static_asserted in
     * codegen.cc), `partials` at one slot per reduction (caller
     * initializes identities and merges after), and the strip range
     * [strip0, strip1) uses the interpreter's strip geometry.
     */
    using NestFn = void (*)(const void *acc, const double *scalars,
                            double *partials, long long strip0,
                            long long strip1, long long strips_per_row,
                            long long inner, const JitFuncTable *funcs);

    JitModule(void *handle, std::vector<NestFn> fns)
        : handle_(handle), fns_(std::move(fns))
    {
    }
    ~JitModule();
    JitModule(const JitModule &) = delete;
    JitModule &operator=(const JitModule &) = delete;

    /** Entry point for nest `i`, or null (interpreter fallback). */
    NestFn nest(int i) const
    {
        return std::size_t(i) < fns_.size() ? fns_[std::size_t(i)]
                                            : nullptr;
    }

  private:
    void *handle_;
    std::vector<NestFn> fns_;
};

/**
 * The JIT backend: owns the artifact cache and the toolchain
 * configuration, compiles plans into JitModules and attaches them to
 * CompiledKernels. One instance per SharedContext (process-wide when
 * sessions share a context); thread-safe. Sessions opt in per
 * DiffuseOptions::jit / DIFFUSE_JIT — the backend itself is always
 * capable, callers gate attach().
 */
class JitBackend
{
  public:
    struct Config
    {
        /** Artifact directory (empty: in-memory only). */
        std::string cacheDir;
        /** LRU size cap in MiB (<= 0: uncapped). */
        long long cacheMaxMB = 0;
        /** Compiler driver. */
        std::string cc = "cc";
        /** Nests with longer tapes fall back to the interpreter. */
        int maxTape = 4096;
        /**
         * Reuse modules across backends of this process through a
         * global registry when no cache directory is configured
         * (tests constructing many private contexts recompile each
         * unique tape once per process instead of once per context).
         * Persistent mode skips the registry: the disk is the cache,
         * and cold-process behavior stays measurable.
         */
        bool shareProcessModules = true;
        /** Extra bytes mixed into the build fingerprint (tests). */
        std::string fingerprintExtra;
    };

    /** Environment-driven configuration (DIFFUSE_CACHE_DIR, ...). */
    JitBackend();
    explicit JitBackend(Config config);

    /** Value snapshot of the backend counters. */
    struct Stats
    {
        /** Toolchain invocations that produced a module. */
        std::uint64_t kernelsCompiled = 0;
        /** Modules loaded from the persistent artifact cache. */
        std::uint64_t artifactHits = 0;
        /** Attaches that found no usable persistent artifact. */
        std::uint64_t artifactMisses = 0;
        /** Modules reused from the in-process registry. */
        std::uint64_t memoryHits = 0;
        /** Nests lowered to native code across compiled modules. */
        std::uint64_t nestsCompiled = 0;
        /** Nests left to the interpreter (inexpressible). */
        std::uint64_t nestsFallback = 0;
        /** Toolchain or dlopen failures (kernel fell back whole). */
        std::uint64_t compileFailures = 0;
        /** Artifacts rejected by embedded-key verification. */
        std::uint64_t artifactsRejected = 0;
        /** Artifacts evicted by the LRU size cap. */
        std::uint64_t evictions = 0;
    };
    Stats stats() const;

    /**
     * Compile `kernel`'s plan and set `kernel.jit`. `key` is the
     * kernel's canonical cache key (memoizer encoding or single-task
     * key, planning salt included). No-op when the plan has no
     * expressible nest; any failure leaves `kernel.jit` null (the
     * interpreter path). Safe to call concurrently for distinct keys;
     * callers serialize per key (the memoizer's shard locks do).
     */
    void attach(std::string_view key, CompiledKernel &kernel);

    /** The artifact cache (tests poke at persistence directly). */
    ArtifactCache &cache() { return cache_; }

  private:
    std::string buildFingerprint();
    std::shared_ptr<const JitModule>
    loadAndVerify(const std::string &path, const std::string &hexkey,
                  std::size_t nests);
    std::shared_ptr<const JitModule>
    compileModule(const ExecutablePlan &plan,
                  const std::vector<bool> &expressible,
                  const std::string &name, const std::string &hexkey);

    Config cfg_;
    ArtifactCache cache_;
    std::once_flag fingerprintOnce_;
    std::string fingerprint_;

    std::atomic<std::uint64_t> kernelsCompiled_{0};
    std::atomic<std::uint64_t> artifactHits_{0};
    std::atomic<std::uint64_t> artifactMisses_{0};
    std::atomic<std::uint64_t> memoryHits_{0};
    std::atomic<std::uint64_t> nestsCompiled_{0};
    std::atomic<std::uint64_t> nestsFallback_{0};
    std::atomic<std::uint64_t> compileFailures_{0};
    std::atomic<std::uint64_t> artifactsRejected_{0};
};

/**
 * Generate the C translation unit for `plan` (one function per
 * expressible nest plus the embedded key symbol). Exposed for tests:
 * the differential battery asserts structural properties (two-step
 * triads, function-table transcendentals) directly on the source.
 */
std::string generateJitSource(const ExecutablePlan &plan,
                              const std::vector<bool> &expressible,
                              const std::string &hexkey);

} // namespace kir
} // namespace diffuse

#endif // DIFFUSE_KERNEL_CODEGEN_H
