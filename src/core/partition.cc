#include "partition.h"

#include "common/logging.h"

namespace diffuse {

Point
applyProjection(ProjectionId id, const Point &p)
{
    switch (id) {
      case PROJ_IDENTITY:
        return p;
      case PROJ_ROWS_2D:
        return Point(p[0], 0);
      case PROJ_COLS_2D:
        return Point(coord_t(0), p[0]);
      case PROJ_DROP_COL:
        return Point(p[0]);
    }
    diffuse_panic("unknown projection id %u", id);
}

Rect
PartitionDesc::boundsFor(const Point &p, const Rect &store_shape) const
{
    switch (kind) {
      case Kind::None:
        return store_shape;
      case Kind::Tiling: {
        Point g = applyProjection(proj, p);
        diffuse_assert(g.dim == tile.dim,
                       "projection output rank %d != tile rank %d",
                       g.dim, tile.dim);
        Rect r;
        r.lo = g * tile + offset;
        r.hi = (g + Point::one(g.dim)) * tile + offset;
        // Clamp to the viewed region [offset, offset + extent).
        Rect view(offset, offset + extent);
        r = r.intersect(view);
        return r.intersect(store_shape);
      }
      case Kind::Image:
        diffuse_panic("Image partition bounds live in the runtime");
    }
    diffuse_panic("unreachable");
}

bool
PartitionDesc::pointwiseDisjoint(const Rect &domain) const
{
    if (domain.volume() <= 1)
        return true;
    switch (kind) {
      case Kind::None:
        return false; // replication: every point sees everything
      case Kind::Image:
        return false; // pieces may overlap; be conservative
      case Kind::Tiling:
        // Disjoint iff the projection is injective on the domain:
        // distinct grid cells never overlap.
        switch (proj) {
          case PROJ_IDENTITY:
            return true;
          case PROJ_ROWS_2D:
          case PROJ_COLS_2D:
            return domain.dim() == 1;
          case PROJ_DROP_COL:
            return domain.dim() == 2 &&
                   domain.hi[1] - domain.lo[1] <= 1;
        }
        return false;
    }
    return false;
}

std::uint64_t
PartitionDesc::shapeClassKey(const Rect &store_shape) const
{
    std::size_t h = 0xcbf29ce484222325ULL;
    auto mix = [&h](std::uint64_t v) {
        h ^= v;
        h *= 0x100000001b3ULL;
    };
    switch (kind) {
      case Kind::None:
        mix(1);
        mix(std::uint64_t(store_shape.dim()));
        for (int i = 0; i < store_shape.dim(); i++)
            mix(std::uint64_t(store_shape.hi[i] - store_shape.lo[i]));
        break;
      case Kind::Tiling:
        mix(2);
        mix(std::uint64_t(tile.dim));
        for (int i = 0; i < tile.dim; i++)
            mix(std::uint64_t(tile[i]));
        for (int i = 0; i < extent.dim; i++)
            mix(std::uint64_t(extent[i]));
        mix(proj);
        break;
      case Kind::Image:
        mix(3);
        mix(image);
        break;
    }
    return h;
}

std::uint64_t
PartitionDesc::structuralHash() const
{
    std::size_t h = 0xcbf29ce484222325ULL;
    auto mix = [&h](std::uint64_t v) {
        h ^= v;
        h *= 0x100000001b3ULL;
    };
    mix(std::uint64_t(kind) + 17);
    switch (kind) {
      case Kind::None:
        break;
      case Kind::Tiling:
        mix(std::uint64_t(tile.dim));
        for (int i = 0; i < tile.dim; i++)
            mix(std::uint64_t(tile[i]));
        for (int i = 0; i < offset.dim; i++)
            mix(std::uint64_t(offset[i]) + 0x9e37);
        for (int i = 0; i < extent.dim; i++)
            mix(std::uint64_t(extent[i]) + 0x79b9);
        mix(proj);
        break;
      case Kind::Image:
        mix(image);
        break;
    }
    return h;
}

std::string
PartitionDesc::toString() const
{
    switch (kind) {
      case Kind::None:
        return "None";
      case Kind::Tiling:
        return strprintf("Tiling{tile=%s off=%s ext=%s proj=%u}",
                         tile.toString().c_str(),
                         offset.toString().c_str(),
                         extent.toString().c_str(), proj);
      case Kind::Image:
        return strprintf("Image{%llu}", (unsigned long long)image);
    }
    return "?";
}

std::uint64_t
layoutKeyFor(const PartitionDesc &part, const Rect &launch_domain)
{
    std::uint64_t h = part.structuralHash();
    auto mix = [&h](std::uint64_t v) {
        h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    };
    mix(std::uint64_t(launch_domain.dim()));
    for (int i = 0; i < launch_domain.dim(); i++) {
        mix(std::uint64_t(launch_domain.lo[i]));
        mix(std::uint64_t(launch_domain.hi[i]));
    }
    // Keys 0 and 1 are reserved by the runtime (initial/replicated).
    if (h < 2)
        h += 2;
    return h;
}

} // namespace diffuse
