/**
 * @file
 * Lowering from Diffuse's scale-free IR to legion-mini's scale-aware
 * launched tasks (paper §3.2: "stores are mapped to the distributed
 * data structures of the underlying runtime system, and Diffuse's
 * first-class, structured partitions are mapped onto lower-level,
 * unstructured partitions").
 */

#ifndef DIFFUSE_CORE_SCHEDULER_H
#define DIFFUSE_CORE_SCHEDULER_H

#include "core/fusion.h"
#include "core/store.h"
#include "runtime/runtime.h"

namespace diffuse {

class ImageTable;

/**
 * Lower an execution group to a launched task: expand each structured
 * partition into one explicit piece per launch-domain point; image
 * partitions take their pieces from the context's table.
 */
rt::LaunchedTask lowerGroup(const ExecutionGroup &group,
                            const StoreTable &stores,
                            const ImageTable &images);

} // namespace diffuse

#endif // DIFFUSE_CORE_SCHEDULER_H
