/**
 * @file
 * Error-reporting helpers in the style of gem5's logging.hh.
 *
 * `panic` reports an internal invariant violation (a Diffuse bug) and
 * aborts; `warn` reports a recoverable condition to stderr. Both
 * accept printf-style formatting. Recoverable failures that a caller
 * must handle are structured errors instead (common/error.h).
 */

#ifndef DIFFUSE_COMMON_LOGGING_H
#define DIFFUSE_COMMON_LOGGING_H

#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace diffuse {

[[noreturn]] void panicImpl(const char *file, int line, const char *fmt,
                            ...) __attribute__((format(printf, 3, 4)));

/**
 * Thread-safe, rate-limited warning. Concurrent callers never
 * interleave within one line; per limiter key the first 8
 * occurrences are emitted, then only power-of-two counts (with a
 * suppression tally), so a hot loop cannot flood stderr.
 *
 * The limiter key is (call site, session id): call sites use string
 * literals, so the format-string pointer identifies the site, and
 * session-scoped sites pass their session id through
 * `diffuse_warn_session` — one session's warning storm must not
 * suppress another session's *first* sighting of the same warning.
 * `diffuse_warn` (session 0) covers process-global sites.
 */
void warnImpl(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** `warnImpl` with the limiter keyed by (call site, `session`). */
void warnSessionImpl(std::uint64_t session, const char *fmt, ...)
    __attribute__((format(printf, 2, 3)));

/** Total diffuse_warn calls this process (for tests). */
std::uint64_t warnCallCount();
/** Warnings actually written to stderr (post rate limit, for tests). */
std::uint64_t warnEmitCount();

/** Format into a std::string, printf-style. */
std::string strprintf(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

} // namespace diffuse

/** Internal invariant violation — a bug in Diffuse itself. */
#define diffuse_panic(...) \
    ::diffuse::panicImpl(__FILE__, __LINE__, __VA_ARGS__)

/** Non-fatal warning to stderr. */
#define diffuse_warn(...) ::diffuse::warnImpl(__VA_ARGS__)

/** Non-fatal warning attributed to (and rate-limited per) a runtime
 * session. */
#define diffuse_warn_session(session, ...) \
    ::diffuse::warnSessionImpl((session), __VA_ARGS__)

/** Cheap always-on assertion used at module boundaries. */
#define diffuse_assert(cond, ...)                                          \
    do {                                                                   \
        if (!(cond))                                                       \
            ::diffuse::panicImpl(__FILE__, __LINE__, __VA_ARGS__);         \
    } while (0)

#endif // DIFFUSE_COMMON_LOGGING_H
