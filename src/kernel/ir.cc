#include "ir.h"

#include <algorithm>

namespace diffuse {
namespace kir {

namespace {

#define DIFFUSE_OP_WEIGHT(Name, Shape, Weight, Expr) Weight,
// Indexed by Op: the addressing ops, then the op table's mirrors.
constexpr double kOpWeights[] = {
    0.0, 0.0, 0.0, 0.0,
    DIFFUSE_TAPE_OPS(DIFFUSE_OP_WEIGHT, DIFFUSE_OP_SKIP)};
#undef DIFFUSE_OP_WEIGHT

} // namespace

double
opFlopWeight(Op op)
{
    return kOpWeights[std::size_t(op)];
}

int
registerCount(const std::vector<Instr> &body)
{
    int n = 0;
    for (const auto &i : body) {
        n = std::max(n, i.dst + 1);
        n = std::max(n, i.a + 1);
        n = std::max(n, i.b + 1);
        n = std::max(n, i.c + 1);
    }
    return n;
}

} // namespace kir
} // namespace diffuse
