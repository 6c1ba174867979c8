#include "logging.h"

#include "types.h"

#include <atomic>
#include <limits>
#include <map>
#include <mutex>
#include <vector>

namespace diffuse {

namespace {

std::string
vformat(const char *fmt, va_list ap)
{
    va_list ap2;
    va_copy(ap2, ap);
    int n = std::vsnprintf(nullptr, 0, fmt, ap);
    std::vector<char> buf(n + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, ap2);
    va_end(ap2);
    return std::string(buf.data(), n);
}

} // namespace

void
panicImpl(const char *file, int line, const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vformat(fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "panic: %s (%s:%d)\n", msg.c_str(), file, line);
    std::abort();
}

namespace {

std::mutex warnMutex_;
// Keyed by (format-string pointer, session id): call sites use string
// literals, so the pointer identifies the site, and the session id
// scopes the limiter — a hot loop hammering one site in one session
// gets thinned without silencing other sites *or* other sessions'
// first sighting of the same site. Session 0 is the process-global
// bucket (diffuse_warn).
std::map<std::pair<const void *, std::uint64_t>, std::uint64_t>
    warnCounts_;
std::atomic<std::uint64_t> warnCalls_{0};
std::atomic<std::uint64_t> warnEmits_{0};

constexpr std::uint64_t kWarnFullEmits = 8;

void
warnVImpl(std::uint64_t session, const char *fmt, va_list ap)
{
    std::string msg = vformat(fmt, ap);
    warnCalls_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(warnMutex_);
    std::uint64_t count =
        ++warnCounts_[{static_cast<const void *>(fmt), session}];
    if (count > kWarnFullEmits && (count & (count - 1)) != 0)
        return; // thinned: only power-of-two occurrences past the first 8
    warnEmits_.fetch_add(1, std::memory_order_relaxed);
    if (count > kWarnFullEmits) {
        std::fprintf(stderr, "warn: %s (seen %llu times, most suppressed)\n",
                     msg.c_str(), static_cast<unsigned long long>(count));
    } else {
        std::fprintf(stderr, "warn: %s\n", msg.c_str());
    }
}

} // namespace

void
warnImpl(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    warnVImpl(0, fmt, ap);
    va_end(ap);
}

void
warnSessionImpl(std::uint64_t session, const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    warnVImpl(session, fmt, ap);
    va_end(ap);
}

std::uint64_t
warnCallCount()
{
    return warnCalls_.load(std::memory_order_relaxed);
}

std::uint64_t
warnEmitCount()
{
    return warnEmits_.load(std::memory_order_relaxed);
}

std::string
strprintf(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vformat(fmt, ap);
    va_end(ap);
    return msg;
}

double
reductionIdentity(ReductionOp op)
{
    switch (op) {
      case ReductionOp::Sum:
        return 0.0;
      case ReductionOp::Max:
        return -std::numeric_limits<double>::infinity();
      case ReductionOp::Min:
        return std::numeric_limits<double>::infinity();
    }
    return 0.0;
}

} // namespace diffuse
