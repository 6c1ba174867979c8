#include "ir.h"

#include <algorithm>
#include <sstream>

namespace diffuse {
namespace kir {

namespace {

#define DIFFUSE_OP_NAME(Name, ...) #Name,
#define DIFFUSE_OP_WEIGHT(Name, Shape, Weight, Expr) Weight,
// Indexed by Op: the addressing ops, then the op table's mirrors.
constexpr const char *kOpNames[] = {
    "LoadBuf", "StoreBuf", "LoadScalar", "Const",
    DIFFUSE_TAPE_OPS(DIFFUSE_OP_NAME, DIFFUSE_OP_SKIP)};
constexpr double kOpWeights[] = {
    0.0, 0.0, 0.0, 0.0,
    DIFFUSE_TAPE_OPS(DIFFUSE_OP_WEIGHT, DIFFUSE_OP_SKIP)};
#undef DIFFUSE_OP_NAME
#undef DIFFUSE_OP_WEIGHT

} // namespace

double
opFlopWeight(Op op)
{
    return kOpWeights[std::size_t(op)];
}

const char *
opName(Op op)
{
    return kOpNames[std::size_t(op)];
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

std::string
KernelFunction::dump() const
{
    std::ostringstream ss;
    ss << "func @" << name << "(args=" << numArgs
       << ", scalars=" << numScalars << ")\n";
    for (std::size_t b = 0; b < buffers.size(); b++) {
        const auto &info = buffers[b];
        ss << "  buf %" << b << " dims=" << info.dims
           << (info.isLocal ? " local" : " arg")
           << (info.eliminated ? " eliminated" : "")
           << " alias=" << info.aliasClass
           << " shape=" << info.shapeClass << "\n";
    }
    for (std::size_t n = 0; n < nests.size(); n++) {
        const auto &nest = nests[n];
        const char *kind =
            nest.kind == NestKind::Dense
                ? "dense"
                : (nest.kind == NestKind::Gemv ? "gemv" : "csr");
        ss << "  nest " << n << " [" << kind << "] over %"
           << nest.domainBuf << "\n";
        for (const auto &i : nest.body) {
            ss << "    ";
            if (i.dst >= 0)
                ss << "r" << i.dst << " = ";
            ss << opName(i.op);
            if (i.buf >= 0)
                ss << " %" << i.buf;
            if (i.scalar >= 0)
                ss << " s" << i.scalar;
            if (i.op == Op::Const)
                ss << " " << i.imm;
            if (i.a >= 0)
                ss << " r" << i.a;
            if (i.b >= 0)
                ss << " r" << i.b;
            if (i.c >= 0)
                ss << " r" << i.c;
            ss << "\n";
        }
        for (const auto &r : nest.reductions) {
            ss << "    reduce %" << r.accBuf << " "
               << reductionOpName(r.op) << " r" << r.srcReg << "\n";
        }
    }
    return ss.str();
}

} // namespace kir
} // namespace diffuse
