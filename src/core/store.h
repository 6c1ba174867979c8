/**
 * @file
 * Store table: Diffuse-level metadata for stores, including the split
 * reference count (paper §5.1): references held by the application
 * (NDArray handles and the like) are tracked separately from uses by
 * pending tasks in the window, so temporary-store elimination can
 * decide whether the application can still observe a store's contents.
 */

#ifndef DIFFUSE_CORE_STORE_H
#define DIFFUSE_CORE_STORE_H

#include <string>
#include <unordered_map>

#include "common/error.h"
#include "common/geometry.h"
#include "common/logging.h"
#include "common/types.h"

namespace diffuse {

/** Per-store metadata kept by the Diffuse layer. */
struct StoreMeta
{
    Rect shape;
    DType dtype = DType::F64;
    /** References held by the application (split refcount, app side). */
    int appRefs = 0;
    /** References held by tasks pending in the window (runtime side). */
    int windowRefs = 0;
};

/** Registry of live stores at the Diffuse layer. */
class StoreTable
{
  public:
    void
    add(StoreId id, const Rect &shape, DType dtype)
    {
        StoreMeta m;
        m.shape = shape;
        m.dtype = dtype;
        m.appRefs = 1;
        table_.emplace(id, std::move(m));
    }

    StoreMeta &
    get(StoreId id)
    {
        auto it = table_.find(id);
        diffuse_assert(it != table_.end(), "unknown store %llu",
                       (unsigned long long)id);
        return it->second;
    }

    const StoreMeta &
    get(StoreId id) const
    {
        auto it = table_.find(id);
        diffuse_assert(it != table_.end(), "unknown store %llu",
                       (unsigned long long)id);
        return it->second;
    }

    bool contains(StoreId id) const { return table_.count(id) != 0; }

    void retainApp(StoreId id) { get(id).appRefs++; }

    /**
     * @return true when no references of any kind remain.
     * @throws DiffuseError (StoreError) on over-release — an
     *   application-side bug (double destroy), recoverable by the
     *   caller rather than fatal to the process.
     */
    bool
    releaseApp(StoreId id)
    {
        StoreMeta &m = get(id);
        if (m.appRefs <= 0)
            throw DiffuseError(makeError(
                ErrorCode::StoreError,
                strprintf("over-release of store %llu (double "
                          "destroy?)",
                          (unsigned long long)id),
                std::string(), id));
        m.appRefs--;
        return m.appRefs == 0 && m.windowRefs == 0;
    }

    void retainWindow(StoreId id) { get(id).windowRefs++; }

    /** @return true when no references of any kind remain. */
    bool
    releaseWindow(StoreId id)
    {
        StoreMeta &m = get(id);
        diffuse_assert(m.windowRefs > 0,
                       "over-release (window) of store %llu",
                       (unsigned long long)id);
        m.windowRefs--;
        return m.appRefs == 0 && m.windowRefs == 0;
    }

    void remove(StoreId id) { table_.erase(id); }

    std::size_t size() const { return table_.size(); }

  private:
    std::unordered_map<StoreId, StoreMeta> table_;
};

} // namespace diffuse

#endif // DIFFUSE_CORE_STORE_H
