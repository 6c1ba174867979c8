#include "common/error.h"

#include <sstream>

namespace diffuse {

const char *errorCodeName(ErrorCode code)
{
    switch (code) {
        case ErrorCode::None: return "None";
        case ErrorCode::InvalidArgument: return "InvalidArgument";
        case ErrorCode::StoreError: return "StoreError";
        case ErrorCode::AllocFailed: return "AllocFailed";
        case ErrorCode::MemBudgetExceeded: return "MemBudgetExceeded";
        case ErrorCode::KernelFault: return "KernelFault";
        case ErrorCode::ExchangeFault: return "ExchangeFault";
        case ErrorCode::DependencyFailed: return "DependencyFailed";
        case ErrorCode::StorePoisoned: return "StorePoisoned";
        case ErrorCode::SessionFailed: return "SessionFailed";
    }
    return "Unknown";
}

std::string Error::describe() const
{
    std::ostringstream os;
    os << errorCodeName(code) << ": " << message;
    bool open = false;
    auto sep = [&]() -> std::ostringstream & {
        os << (open ? ", " : " (");
        open = true;
        return os;
    };
    if (!originTask.empty())
        sep() << "task " << originTask;
    if (originStore != INVALID_STORE)
        sep() << "store " << originStore;
    if (originEvent != 0)
        sep() << "event " << originEvent;
    if (open)
        os << ")";
    return os.str();
}

DiffuseError::DiffuseError(Error err)
    : std::runtime_error(err.describe()), err_(std::move(err))
{
}

Error makeError(ErrorCode code, std::string message, std::string origin_task,
                StoreId origin_store, std::uint64_t origin_event)
{
    Error e;
    e.code = code;
    e.message = std::move(message);
    e.originTask = std::move(origin_task);
    e.originStore = origin_store;
    e.originEvent = origin_event;
    return e;
}

} // namespace diffuse
