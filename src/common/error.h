/**
 * @file
 * Structured errors for recoverable failures.
 *
 * `diffuse_panic` (common/logging.h) aborts the whole process, which
 * is right only for a bug in Diffuse itself: many client sessions
 * share one process (core/context.h). Recoverable failures instead
 * carry a structured Error: a code, a human-readable message, and the
 * origin (task name, store, stream event) of the root cause, wrapped
 * in the DiffuseError exception. Failures are confined to the session
 * that caused them: a failed task marks its completion event failed in
 * rt::TaskStream, failure propagates along the recorded RAW/WAR/WAW
 * hazard edges (dependents are cancelled, their outputs poisoned),
 * and host-side accessors surface the DiffuseError instead of
 * garbage. See docs/architecture.md ("Failure domains & the
 * degradation ladder").
 */

#ifndef DIFFUSE_COMMON_ERROR_H
#define DIFFUSE_COMMON_ERROR_H

#include <cstdint>
#include <stdexcept>
#include <string>

#include "common/types.h"

namespace diffuse {

/** Classification of a recoverable failure. */
enum class ErrorCode : std::uint8_t {
    None = 0,
    /** User misuse: bad shape, wrong dtype, empty launch domain. */
    InvalidArgument,
    /** Store lifecycle misuse: double destroy, read of a destroyed
     * or never-materialized store. */
    StoreError,
    /** Store allocation failed (injected, or DIFFUSE_MEM_BUDGET). */
    AllocFailed,
    /** DIFFUSE_MEM_BUDGET exhausted even after cache eviction. */
    MemBudgetExceeded,
    /** A kernel faulted while executing a retired task. */
    KernelFault,
    /** An exchange Copy task failed. */
    ExchangeFault,
    /** Task cancelled because an upstream hazard dependency failed. */
    DependencyFailed,
    /** Host read of a store poisoned by an upstream failure. */
    StorePoisoned,
    /** Operation on a session already in the failed state (clear it
     * with DiffuseRuntime::resetAfterError()). */
    SessionFailed,
};

const char *errorCodeName(ErrorCode code);

/**
 * A structured, recoverable error: what went wrong, where it
 * originated, and which stream event carried it. Default-constructed
 * (code == None) means "no error".
 */
struct Error
{
    ErrorCode code = ErrorCode::None;
    std::string message;
    /** Name of the task whose execution produced the root cause
     * (empty for host-side failures). */
    std::string originTask;
    /** Store at the root cause (INVALID_STORE when not store-scoped). */
    StoreId originStore = INVALID_STORE;
    /** Stream event of the root-cause task (0 == rt::NO_EVENT). */
    std::uint64_t originEvent = 0;

    bool ok() const { return code == ErrorCode::None; }

    /** "code: message (task ..., store ..., event ...)". */
    std::string describe() const;
};

/** Exception carrying a structured Error across API boundaries. */
class DiffuseError : public std::runtime_error
{
  public:
    explicit DiffuseError(Error err);
    const Error &error() const { return err_; }
    ErrorCode code() const { return err_.code; }

  private:
    Error err_;
};

/** Convenience constructor for store-scoped errors. */
Error makeError(ErrorCode code, std::string message,
                std::string origin_task = std::string(),
                StoreId origin_store = INVALID_STORE,
                std::uint64_t origin_event = 0);

} // namespace diffuse

#endif // DIFFUSE_COMMON_ERROR_H
