/**
 * @file
 * Environment-variable parsing shared by every tunable knob
 * (DIFFUSE_WORKERS, DIFFUSE_RANKS, DIFFUSE_MEM_BUDGET, ...).
 *
 * atoi-style parsing silently accepted "8abc" as 8 and turned
 * overflowing values into undefined behaviour; envInt() parses
 * strictly (the whole string must be an integer), clamps to the
 * caller's legal range with a warning, and warns-and-defaults on
 * garbage, so a typo in a job script degrades loudly instead of
 * silently running a nonsense configuration.
 */

#ifndef DIFFUSE_COMMON_ENV_H
#define DIFFUSE_COMMON_ENV_H

#include <cerrno>
#include <cstdlib>

#include "common/logging.h"

namespace diffuse {

/**
 * Read integer environment variable `name`. Unset -> `fallback`.
 * Garbage (empty, trailing junk, overflow) -> `fallback` with a
 * warning. Below `min_value` -> `fallback` with a warning (0 or a
 * negative count is not a meaningful configuration, and clamping
 * DIFFUSE_MEM_BUDGET=0 up to 1 would silently cap every session at
 * 1 MiB — falling back to the default, here "no budget", is the safe
 * behaviour). Above `max_value` -> clamped with a warning (a
 * too-large value still expresses "as much as possible").
 */
inline int
envInt(const char *name, int fallback, int min_value, int max_value)
{
    const char *env = std::getenv(name);
    if (env == nullptr)
        return fallback;
    errno = 0;
    char *end = nullptr;
    long v = std::strtol(env, &end, 10);
    if (end == env || *end != '\0' || errno == ERANGE) {
        diffuse_warn("%s=\"%s\" is not an integer; using %d", name, env,
                     fallback);
        return fallback;
    }
    if (v < min_value) {
        diffuse_warn("%s=%ld below minimum %d; using %d", name, v,
                     min_value, fallback);
        return fallback;
    }
    if (v > max_value) {
        diffuse_warn("%s=%ld above maximum %d; clamping", name, v,
                     max_value);
        return max_value;
    }
    return int(v);
}

} // namespace diffuse

#endif // DIFFUSE_COMMON_ENV_H
