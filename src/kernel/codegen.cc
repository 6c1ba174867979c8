#include "codegen.h"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>

#include <dlfcn.h>
#include <unistd.h>

#include "common/env.h"
#include "common/fastmath.h"
#include "common/geometry.h"
#include "common/logging.h"
#include "common/sharded_cache.h"
#include "kernel/compiler.h"
#include "kernel/exec.h"

namespace diffuse {
namespace kir {

// The generated C mirrors ResolvedAccess verbatim and receives
// `rn.accesses.data()` with zero marshaling — pin the layout here so a
// drive-by field reorder breaks the build, not bitwise identity.
static_assert(sizeof(ResolvedAccess) == 32,
              "generated C mirrors this layout");
static_assert(offsetof(ResolvedAccess, base) == 0);
static_assert(offsetof(ResolvedAccess, rowStride) == 8);
static_assert(offsetof(ResolvedAccess, step) == 16);
static_assert(sizeof(coord_t) == sizeof(long long),
              "generated C uses long long for coord_t");

namespace {

double
jitErf(double x)
{
    return fastErf(x);
}
double
jitPow(double a, double b)
{
    return std::pow(a, b);
}
double
jitExp(double x)
{
    return std::exp(x);
}
double
jitLog(double x)
{
    return std::log(x);
}

/**
 * Schema version of the generated-code contract: bump whenever the
 * emitted source, the entry-point ABI or the embedded-key format
 * changes, so stale artifacts from older builds miss instead of load.
 */
constexpr int kJitSchemaVersion = 2;

/** Two independent 64-bit FNV-1a style hashes over `s`. */
void
hashPair(std::string_view s, std::uint64_t out[2])
{
    std::uint64_t h0 = 0xcbf29ce484222325ull;
    std::uint64_t h1 = 0x9e3779b97f4a7c15ull;
    for (unsigned char c : s) {
        h0 = (h0 ^ c) * 0x100000001b3ull;
        hashCombine64(h1, c + 1);
    }
    out[0] = h0;
    out[1] = h1;
}

std::string
hexEncode(std::string_view bytes)
{
    static const char digits[] = "0123456789abcdef";
    std::string out;
    out.reserve(bytes.size() * 2);
    for (unsigned char c : bytes) {
        out.push_back(digits[c >> 4]);
        out.push_back(digits[c & 0xf]);
    }
    return out;
}

/** Append a C double literal that reproduces `v` bit-for-bit. */
void
emitDouble(std::string &out, double v)
{
    if (std::isnan(v)) {
        out += "__builtin_nan(\"\")";
        return;
    }
    if (std::isinf(v)) {
        out += v < 0 ? "-__builtin_inf()" : "__builtin_inf()";
        return;
    }
    char buf[64];
    std::snprintf(buf, sizeof buf, "%a", v);
    out += buf;
}

void
appendf(std::string &out, const char *fmt, ...)
#if defined(__GNUC__)
    __attribute__((format(printf, 2, 3)))
#endif
    ;

void
appendf(std::string &out, const char *fmt, ...)
{
    char buf[256];
    va_list ap;
    va_start(ap, fmt);
    int n = std::vsnprintf(buf, sizeof buf, fmt, ap);
    va_end(ap);
    if (n <= 0)
        return;
    if (std::size_t(n) < sizeof buf) {
        out.append(buf, std::size_t(n));
        return;
    }
    // Rare oversized line (long emitted expression): retry on the
    // heap — silent truncation here would corrupt generated source.
    std::vector<char> big(std::size_t(n) + 1);
    va_start(ap, fmt);
    std::vsnprintf(big.data(), big.size(), fmt, ap);
    va_end(ap);
    out.append(big.data(), std::size_t(n));
}

/** "scalars[i]" or a hex-float literal: the interpreter's K value. */
std::string
kValue(std::int32_t scalar, double imm)
{
    std::string s;
    if (scalar >= 0)
        appendf(s, "scalars[%d]", int(scalar));
    else
        emitDouble(s, imm);
    return s;
}

using ModulePtr = std::shared_ptr<const JitModule>;

/**
 * In-process module registry for memory-only backends: tests create
 * many private contexts running the same kernels, and each unique
 * tape should cost one toolchain invocation per process, not one per
 * context. Persistent backends skip this (the disk is the cache and
 * cold-process behavior must stay measurable). Keyed by the full
 * combined key hex, so collisions are as unlikely as the artifact
 * names'. Allocated once and never freed: modules live as long as
 * the process.
 */
ShardedCache<ModulePtr> &
processModules()
{
    static auto *modules = new ShardedCache<ModulePtr>();
    return *modules;
}

/** First line of `cmd`'s stdout (the toolchain version banner). */
std::string
firstLineOf(const std::string &cmd)
{
    std::string out;
    if (FILE *p = popen((cmd + " 2>/dev/null").c_str(), "r")) {
        char buf[256];
        if (std::fgets(buf, sizeof buf, p) != nullptr) {
            out = buf;
            while (!out.empty() &&
                   (out.back() == '\n' || out.back() == '\r'))
                out.pop_back();
        }
        pclose(p);
    }
    return out;
}

/** Single-quote `s` for /bin/sh. */
std::string
shellQuote(const std::string &s)
{
    std::string out = "'";
    for (char c : s) {
        if (c == '\'')
            out += "'\\''";
        else
            out.push_back(c);
    }
    out += "'";
    return out;
}

constexpr const char *kJitCFlags =
    "-O2 -fPIC -shared -ffp-contract=off -fno-strict-aliasing -w";

/**
 * FNV-1a content digest of `path` (bytes, then length), hex-encoded.
 * Computed with plain fread so verification never maps the file: a
 * truncated shared object can pass dlopen's header checks and then
 * SIGBUS when a page past EOF is touched, so corrupted artifacts must
 * be rejected BEFORE the loader sees them. Empty on any read error.
 */
std::string
fileDigest(const std::string &path)
{
    FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr)
        return std::string();
    std::uint64_t h = 1469598103934665603ull;
    unsigned long long size = 0;
    char buf[4096];
    std::size_t got;
    while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) {
        for (std::size_t i = 0; i < got; i++) {
            h ^= (unsigned char)buf[i];
            h *= 1099511628211ull;
        }
        size += got;
    }
    bool ok = std::ferror(f) == 0;
    std::fclose(f);
    if (!ok)
        return std::string();
    char out[48];
    std::snprintf(out, sizeof out, "%016llx.%llu",
                  (unsigned long long)h, size);
    return out;
}

/** True when `name`'s digest sidecar matches its shared object. */
bool
digestMatches(ArtifactCache &cache, const std::string &name)
{
    std::string want;
    if (FILE *f = std::fopen(cache.digestPath(name).c_str(), "r")) {
        char buf[64];
        std::size_t got = std::fread(buf, 1, sizeof buf, f);
        std::fclose(f);
        want.assign(buf, got);
    }
    if (want.empty())
        return false;
    std::string got = fileDigest(cache.artifactPath(name));
    return !got.empty() && got == want;
}

} // namespace

const JitFuncTable &
jitFuncTable()
{
    static const JitFuncTable table = {jitErf, jitPow, jitExp, jitLog};
    return table;
}

// ---------------------------------------------------------------------
// Source generation
// ---------------------------------------------------------------------

namespace {

/** The operands each op-table shape binds (kernel/ops.h). */
struct OpShape
{
    bool b, c, k, k2;
    const char *product; ///< a triad's T, or null
};
constexpr OpShape kUnary{false, false, false, false, nullptr};
constexpr OpShape kBinary{true, false, false, false, nullptr};
constexpr OpShape kTernary{true, true, false, false, nullptr};
constexpr OpShape kImm{false, false, true, false, nullptr};
constexpr OpShape kTriad{true, true, false, false, "A * B"};
constexpr OpShape kTriadK{true, false, true, false, "A * B"};
constexpr OpShape kScale{false, true, true, false, "A * K"};
constexpr OpShape kScaleK{false, false, true, true, "A * K"};

/**
 * Emit one op-table row as a block that binds the shape's operands by
 * name, computes a triad's product T as its own statement and assigns
 * the row's expression — the VM's strip-loop body for one element.
 */
void
emitOp(std::string &out, const VecInstr &ins, const OpShape &shape,
       const char *expr)
{
    appendf(out, "      { const double A = r%d", int(ins.a));
    if (shape.b)
        appendf(out, ", B = r%d", int(ins.b));
    if (shape.c)
        appendf(out, ", C = r%d", int(ins.c));
    if (shape.k)
        out += ", K = " + kValue(ins.scalar, ins.imm);
    if (shape.k2)
        out += ", K2 = " + kValue(ins.scalar2, ins.imm2);
    out += ";";
    if (shape.product != nullptr)
        appendf(out, " const double T = %s;", shape.product);
    appendf(out, " r%d = %s; }\n", int(ins.dst), expr);
}

/**
 * Emit one nest's entry point. The structure mirrors
 * Executor::execStrip exactly: same strip geometry, the same op-table
 * expressions (two-statement triads), same element-order reduction
 * folds — see the bitwise-identity argument in codegen.h.
 */
void
emitNest(std::string &out, const DensePlan &dp, int width, int index)
{
    appendf(out,
            "void diffuse_nest_%d(const diffuse_jit_acc *acc, "
            "const double *scalars, double *partials, long long strip0, "
            "long long strip1, long long strips_per_row, "
            "long long inner, const diffuse_jit_funcs *F)\n{\n",
            index);
    out += "  (void)acc; (void)scalars; (void)partials; (void)F;\n";

    // Loop-invariant registers (splatted once by the interpreter;
    // permanent slots, never reused as tape destinations).
    std::vector<bool> invariant;
    invariant.resize(std::size_t(std::max(dp.regCount, 1)), false);
    for (const VecInstr &ins : dp.invariants) {
        if (ins.dst >= 0 && ins.dst < dp.regCount)
            invariant[std::size_t(ins.dst)] = true;
        appendf(out, "  const double r%d = %s;\n", int(ins.dst),
                kValue(ins.scalar, ins.imm).c_str());
    }

    // Access-site geometry, hoisted per invocation.
    for (std::size_t a = 0; a < dp.accesses.size(); a++) {
        appendf(out,
                "  double *const b%zu = acc[%zu].base; "
                "const long long rs%zu = acc[%zu].rowStride; "
                "const long long st%zu = acc[%zu].step;\n",
                a, a, a, a, a, a);
    }

    // Reduction accumulators: loaded once, folded per element in
    // element order, stored back at the end — the fold sequence over
    // [strip0, strip1) is the interpreter's exactly.
    for (std::size_t r = 0; r < dp.reductions.size(); r++)
        appendf(out, "  double red%zu = partials[%zu];\n", r, r);

    appendf(out, "  for (long long s = strip0; s < strip1; s++) {\n");
    appendf(out,
            "    const long long row = s / strips_per_row;\n"
            "    const long long col0 = (s %% strips_per_row) * %d;\n"
            "    long long len = inner - col0;\n"
            "    if (len > %d) len = %d;\n",
            width, width, width);
    for (std::size_t a = 0; a < dp.accesses.size(); a++) {
        appendf(out,
                "    double *const p%zu = b%zu + row * rs%zu + "
                "col0 * st%zu;\n",
                a, a, a, a);
    }

    out += "    for (long long k = 0; k < len; k++) {\n";
    for (int rg = 0; rg < dp.regCount; rg++) {
        if (!invariant[std::size_t(rg)])
            appendf(out, "      double r%d = 0.0;\n", rg);
    }

    for (const VecInstr &ins : dp.tape) {
        switch (ins.op) {
          case VecOp::Load:
            appendf(out, "      r%d = p%d[k * st%d];\n", int(ins.dst),
                    int(ins.access), int(ins.access));
            break;
          case VecOp::Store:
            // Broadcast stores reach here only at len == 1 (the
            // executor's scalarFallback excludes inner > 1), where
            // k*st == 0 writes the single element — the
            // interpreter's `*p = s[len-1]` exactly.
            appendf(out, "      p%d[k * st%d] = r%d;\n",
                    int(ins.access), int(ins.access), int(ins.a));
            break;
          case VecOp::Splat:
            break; // hoisted into the invariant prefix at plan time
#define DIFFUSE_C_CASE(Name, Shape, Expr)                               \
          case VecOp::Name:                                             \
            emitOp(out, ins, k##Shape, #Expr);                          \
            break;
#define DIFFUSE_C_MIRROR(Name, Shape, Weight, Expr)                     \
    DIFFUSE_C_CASE(Name, Shape, Expr)
            DIFFUSE_TAPE_OPS(DIFFUSE_C_MIRROR, DIFFUSE_C_CASE)
#undef DIFFUSE_C_CASE
#undef DIFFUSE_C_MIRROR
        }
    }

    // Element-order reduction folds, applyReduction's expressions.
    for (std::size_t r = 0; r < dp.reductions.size(); r++) {
        const Reduction &red = dp.reductions[r];
        int s = red.srcReg;
        switch (red.op) {
          case ReductionOp::Sum:
            appendf(out, "      red%zu = red%zu + r%d;\n", r, r, s);
            break;
          case ReductionOp::Max:
            appendf(out, "      red%zu = red%zu > r%d ? red%zu : r%d;\n",
                    r, r, s, r, s);
            break;
          case ReductionOp::Min:
            appendf(out, "      red%zu = red%zu < r%d ? red%zu : r%d;\n",
                    r, r, s, r, s);
            break;
        }
    }

    out += "    }\n  }\n";
    for (std::size_t r = 0; r < dp.reductions.size(); r++)
        appendf(out, "  partials[%zu] = red%zu;\n", r, r);
    out += "}\n\n";
}

} // namespace

std::string
generateJitSource(const ExecutablePlan &plan,
                  const std::vector<bool> &expressible,
                  const std::string &hexkey)
{
    std::string out;
    out.reserve(4096);
    out += "/* generated by diffuse jit codegen; do not edit */\n";
    out += "typedef struct {\n"
           "  double *base;\n"
           "  long long rowStride;\n"
           "  long long step;\n"
           "  unsigned char kind;\n"
           "  unsigned char pad_[7];\n"
           "} diffuse_jit_acc;\n\n";
    out += "typedef struct {\n"
           "  double (*erf_)(double);\n"
           "  double (*pow_)(double, double);\n"
           "  double (*exp_)(double);\n"
           "  double (*log_)(double);\n"
           "} diffuse_jit_funcs;\n\n";
    // The op table's function names, bound to the host's code.
    out += "#define POW(x, y) F->pow_(x, y)\n"
           "#define EXP(x) F->exp_(x)\n"
           "#define LOG(x) F->log_(x)\n"
           "#define ERF(x) F->erf_(x)\n"
           "#define SQRT(x) __builtin_sqrt(x)\n"
           "#define FABS(x) __builtin_fabs(x)\n\n";
    // Appended directly: the hex key routinely exceeds appendf's
    // stack buffer.
    out += "const char diffuse_jit_key[] = \"";
    out += hexkey;
    out += "\";\n\n";
    for (std::size_t n = 0; n < plan.nests.size(); n++) {
        if (n < expressible.size() && expressible[n])
            emitNest(out, plan.nests[n].dense, plan.stripWidth,
                     int(n));
    }
    return out;
}

// ---------------------------------------------------------------------
// JitModule
// ---------------------------------------------------------------------

JitModule::~JitModule()
{
    if (handle_ != nullptr)
        dlclose(handle_);
}

// ---------------------------------------------------------------------
// JitBackend
// ---------------------------------------------------------------------

JitBackend::JitBackend() : JitBackend([] {
    Config c;
    const char *dir = std::getenv("DIFFUSE_CACHE_DIR");
    c.cacheDir = dir != nullptr ? dir : "";
    c.cacheMaxMB = envInt("DIFFUSE_CACHE_MAX_MB", 512, 1, 1 << 20);
    const char *cc = std::getenv("DIFFUSE_JIT_CC");
    c.cc = cc != nullptr && cc[0] != '\0' ? cc : "cc";
    return c;
}())
{
}

JitBackend::JitBackend(Config config)
    : cfg_(std::move(config)),
      cache_(ArtifactCache::Config{cfg_.cacheDir, cfg_.cacheMaxMB})
{
}

JitBackend::Stats
JitBackend::stats() const
{
    Stats s;
    s.kernelsCompiled = kernelsCompiled_.load(std::memory_order_relaxed);
    s.artifactHits = artifactHits_.load(std::memory_order_relaxed);
    s.artifactMisses = artifactMisses_.load(std::memory_order_relaxed);
    s.memoryHits = memoryHits_.load(std::memory_order_relaxed);
    s.nestsCompiled = nestsCompiled_.load(std::memory_order_relaxed);
    s.nestsFallback = nestsFallback_.load(std::memory_order_relaxed);
    s.compileFailures =
        compileFailures_.load(std::memory_order_relaxed);
    s.artifactsRejected =
        artifactsRejected_.load(std::memory_order_relaxed);
    s.evictions = cache_.evictions();
    return s;
}

std::string
JitBackend::buildFingerprint()
{
    std::call_once(fingerprintOnce_, [&] {
        std::string version =
            firstLineOf(shellQuote(cfg_.cc) + " --version");
        if (version.empty())
            version = "unknown-toolchain";
        fingerprint_ = version;
        fingerprint_ += '\x1f';
        fingerprint_ += kJitCFlags;
        fingerprint_ += '\x1f';
        fingerprint_ += "schema" + std::to_string(kJitSchemaVersion);
        fingerprint_ += '\x1f';
        fingerprint_ += "maxtape" + std::to_string(cfg_.maxTape);
        if (!cfg_.fingerprintExtra.empty()) {
            fingerprint_ += '\x1f';
            fingerprint_ += cfg_.fingerprintExtra;
        }
    });
    return fingerprint_;
}

std::shared_ptr<const JitModule>
JitBackend::loadAndVerify(const std::string &path,
                          const std::string &hexkey, std::size_t nests)
{
    void *handle = dlopen(path.c_str(), RTLD_NOW | RTLD_LOCAL);
    if (handle == nullptr)
        return nullptr;
    // Self-verifying artifact: the embedded key must match the full
    // combined key — truncation survivors, hash collisions and
    // stale-fingerprint copies all fail here and get recompiled.
    const char *embedded = static_cast<const char *>(
        dlsym(handle, "diffuse_jit_key"));
    if (embedded == nullptr || hexkey != embedded) {
        dlclose(handle);
        return nullptr;
    }
    std::vector<JitModule::NestFn> fns(nests, nullptr);
    bool any = false;
    for (std::size_t n = 0; n < nests; n++) {
        char sym[32];
        std::snprintf(sym, sizeof sym, "diffuse_nest_%d", int(n));
        fns[n] = reinterpret_cast<JitModule::NestFn>(
            dlsym(handle, sym));
        any = any || fns[n] != nullptr;
    }
    if (!any) {
        dlclose(handle);
        return nullptr;
    }
    return std::make_shared<JitModule>(handle, std::move(fns));
}

std::shared_ptr<const JitModule>
JitBackend::compileModule(const ExecutablePlan &plan,
                          const std::vector<bool> &expressible,
                          const std::string &name,
                          const std::string &hexkey)
{
    std::string src = generateJitSource(plan, expressible, hexkey);

    const std::string &scratch = cache_.scratchDir();
    std::string cpath = scratch + "/" + name + ".c";
    std::string opath = cache_.persistent()
                            ? cache_.artifactPath(name) + ".tmp." +
                                  std::to_string((unsigned long)getpid())
                            : scratch + "/" + name + ".so";

    FILE *f = std::fopen(cpath.c_str(), "w");
    if (f == nullptr)
        return nullptr;
    std::size_t wrote = std::fwrite(src.data(), 1, src.size(), f);
    std::fclose(f);
    if (wrote != src.size()) {
        unlink(cpath.c_str());
        return nullptr;
    }

    std::string cmd = shellQuote(cfg_.cc) + " " + kJitCFlags + " -o " +
                      shellQuote(opath) + " " + shellQuote(cpath) +
                      " 2>/dev/null";
    int rc = std::system(cmd.c_str());
    unlink(cpath.c_str());
    if (rc != 0) {
        unlink(opath.c_str());
        return nullptr;
    }
    kernelsCompiled_.fetch_add(1, std::memory_order_relaxed);

    std::string load_path = opath;
    if (cache_.persistent()) {
        // Publish the digest sidecar before the object: a reader that
        // sees the new .so always finds a matching sidecar, and a
        // reader racing the rename at worst rejects a stale pairing
        // and recompiles under the lock.
        std::string digest = fileDigest(opath);
        std::string spath = cache_.digestPath(name) + ".tmp." +
                            std::to_string((unsigned long)getpid());
        bool sum_ok = false;
        if (!digest.empty()) {
            if (FILE *sf = std::fopen(spath.c_str(), "w")) {
                sum_ok = std::fwrite(digest.data(), 1, digest.size(),
                                     sf) == digest.size();
                std::fclose(sf);
            }
        }
        if (sum_ok)
            sum_ok = std::rename(
                         spath.c_str(),
                         cache_.digestPath(name).c_str()) == 0;
        if (!sum_ok) {
            unlink(spath.c_str());
            unlink(opath.c_str());
            return nullptr;
        }
        if (cache_.publish(opath, name))
            load_path = cache_.artifactPath(name);
        else
            return nullptr;
    }
    auto mod = loadAndVerify(load_path, hexkey, plan.nests.size());
    if (!cache_.persistent()) {
        // The module holds the dlopen handle; the file is disposable.
        unlink(load_path.c_str());
    }
    return mod;
}

void
JitBackend::attach(std::string_view key, CompiledKernel &kernel)
{
    if (kernel.plan == nullptr || kernel.jit != nullptr)
        return;
    const ExecutablePlan &plan = *kernel.plan;

    // Expressibility gate: Dense nests with bounded tapes. Gemv/Csr
    // run their fixed-function native loops; everything skipped here
    // stays on the tape interpreter per-nest.
    std::vector<bool> expressible(plan.nests.size(), false);
    std::size_t n_expr = 0;
    for (std::size_t n = 0; n < plan.nests.size(); n++) {
        const NestPlan &np = plan.nests[n];
        if (np.kind != NestKind::Dense)
            continue;
        const DensePlan &dp = np.dense;
        if (int(dp.tape.size()) > cfg_.maxTape)
            continue;
        // A tape destination overwriting an invariant slot would
        // invalidate function-scope hoisting; the planner never emits
        // this, but gate defensively rather than miscompile.
        bool clean = true;
        std::vector<bool> inv(std::size_t(std::max(dp.regCount, 1)),
                              false);
        for (const VecInstr &ins : dp.invariants) {
            if (ins.dst < 0 || ins.dst >= dp.regCount)
                clean = false;
            else
                inv[std::size_t(ins.dst)] = true;
        }
        for (const VecInstr &ins : dp.tape) {
            if (ins.op == VecOp::Store || ins.op == VecOp::Splat)
                continue;
            if (ins.dst < 0 || ins.dst >= dp.regCount ||
                inv[std::size_t(ins.dst)])
                clean = false;
        }
        if (!clean)
            continue;
        expressible[n] = true;
        n_expr++;
    }
    nestsFallback_.fetch_add(plan.nests.size() - n_expr,
                             std::memory_order_relaxed);
    if (n_expr == 0)
        return;

    // Combined key: canonical kernel key + strip width + build
    // fingerprint. Hex-encoded and embedded whole in the artifact for
    // post-load verification; hashed for the artifact name.
    std::string combined = buildFingerprint();
    combined += '\x1f';
    combined += "strip" + std::to_string(plan.stripWidth);
    combined += '\x1f';
    combined.append(key.data(), key.size());
    std::string hexkey = hexEncode(combined);

    std::uint64_t h[2];
    hashPair(combined, h);
    char name[40];
    std::snprintf(name, sizeof name, "%016llx%016llx",
                  (unsigned long long)h[0], (unsigned long long)h[1]);

    ModulePtr mod;
    if (cache_.persistent()) {
        if (cache_.lookup(name)) {
            if (digestMatches(cache_, name))
                mod = loadAndVerify(cache_.artifactPath(name), hexkey,
                                    plan.nests.size());
            if (mod == nullptr) {
                // Truncated, corrupted or stale: drop and recompile.
                artifactsRejected_.fetch_add(
                    1, std::memory_order_relaxed);
                cache_.remove(name);
            }
        }
        if (mod != nullptr) {
            artifactHits_.fetch_add(1, std::memory_order_relaxed);
        } else {
            artifactMisses_.fetch_add(1, std::memory_order_relaxed);
            // Serialize the compile across processes; the loser
            // re-checks and loads the winner's artifact.
            ArtifactCache::Lock lock = cache_.lockFor(name);
            if (cache_.lookup(name)) {
                if (digestMatches(cache_, name))
                    mod = loadAndVerify(cache_.artifactPath(name),
                                        hexkey, plan.nests.size());
                if (mod != nullptr)
                    artifactHits_.fetch_add(1,
                                            std::memory_order_relaxed);
                else {
                    artifactsRejected_.fetch_add(
                        1, std::memory_order_relaxed);
                    cache_.remove(name);
                }
            }
            if (mod == nullptr)
                mod = compileModule(plan, expressible, name, hexkey);
        }
    } else if (cfg_.shareProcessModules) {
        mod = processModules().update(
            hexkey, [&](ModulePtr *hit, auto &&insert) {
                if (hit != nullptr) {
                    memoryHits_.fetch_add(1, std::memory_order_relaxed);
                    return *hit;
                }
                artifactMisses_.fetch_add(1, std::memory_order_relaxed);
                ModulePtr built =
                    compileModule(plan, expressible, name, hexkey);
                // A failed compile is not cached: the next attach of
                // this key invokes the toolchain again.
                if (built != nullptr)
                    insert(built);
                return built;
            });
    } else {
        artifactMisses_.fetch_add(1, std::memory_order_relaxed);
        mod = compileModule(plan, expressible, name, hexkey);
    }

    if (mod == nullptr) {
        // Toolchain failure (or unwritable scratch): the kernel runs
        // whole on the tape interpreter — the compile-fault ladder.
        compileFailures_.fetch_add(1, std::memory_order_relaxed);
        diffuse_warn("jit: compiling kernel failed; falling back to "
                     "the tape interpreter");
        return;
    }
    nestsCompiled_.fetch_add(n_expr, std::memory_order_relaxed);
    kernel.jit = std::move(mod);
}

} // namespace kir
} // namespace diffuse
