#include "scheduler.h"

#include "common/logging.h"
#include "core/context.h"

namespace diffuse {

rt::LaunchedTask
lowerGroup(const ExecutionGroup &group, const StoreTable &stores,
           const ImageTable &images)
{
    const IndexTask &task = group.task;
    rt::LaunchedTask low;
    low.kernel = group.kernel;
    low.numPoints = int(task.launchDomain.volume());
    low.scalars = task.scalars;
    low.name = task.name;

    // The structured partition stays in Diffuse's IR: the runtime
    // gets its pieces and, as the layout key, only its identity.
    for (const StoreArg &arg : task.args) {
        rt::LowArg out;
        out.store = arg.store;
        out.priv = arg.priv;
        out.redop = arg.redop;
        out.layoutKey = layoutKeyFor(arg.part, task.launchDomain);
        switch (arg.part.kind) {
          case PartitionDesc::Kind::None:
            out.replicated = true;
            break;
          case PartitionDesc::Kind::Tiling: {
            const Rect &shape = stores.get(arg.store).shape;
            out.pieces.reserve(std::size_t(low.numPoints));
            for (PointIterator it(task.launchDomain); it.valid();
                 it.step()) {
                out.pieces.push_back(arg.part.boundsFor(*it, shape));
            }
            break;
          }
          case PartitionDesc::Kind::Image: {
            const rt::ImageData &img = images.get(arg.part.image);
            diffuse_assert(int(img.pieces.size()) == low.numPoints,
                           "image %llu has %zu pieces for %d points",
                           (unsigned long long)arg.part.image,
                           img.pieces.size(), low.numPoints);
            out.pieces = img.pieces;
            out.irregular = img.volumes;
            out.absolute = img.absolute;
            break;
          }
        }
        low.args.push_back(std::move(out));
    }
    return low;
}

} // namespace diffuse
