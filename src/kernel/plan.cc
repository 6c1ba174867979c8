#include "plan.h"

#include <algorithm>
#include <cstdlib>
#include <unordered_map>

#include "common/logging.h"

namespace diffuse {
namespace kir {

namespace {

/** May two distinct buffers overlap in memory? (Mirrors passes.cc.) */
bool
mayAlias(const KernelFunction &fn, int a, int b)
{
    if (a == b)
        return true;
    const BufferInfo &ba = fn.buffers[std::size_t(a)];
    const BufferInfo &bb = fn.buffers[std::size_t(b)];
    if (ba.isLocal || bb.isLocal)
        return false; // locals are distinct allocations
    return ba.aliasClass >= 0 && ba.aliasClass == bb.aliasClass;
}

void
pushDistinct(std::vector<int> &v, int b)
{
    if (std::find(v.begin(), v.end(), b) == v.end())
        v.push_back(b);
}

/**
 * Remap SSA registers onto a small pool of reusable slots (linear
 * scan over the tape). The register-vector file is slots x stripWidth
 * doubles, so slot reuse is what keeps it L1-resident for large fused
 * bodies — a pure renaming, bit-identical by construction. Invariant
 * destinations and reduction sources stay on dedicated slots: they
 * must survive across strips (invariants are splatted once per
 * invocation; reduction lanes are folded after each strip).
 */
void
allocateSlots(DensePlan &plan, int ssa_regs)
{
    std::vector<int> last_use(std::size_t(ssa_regs), -1);
    std::vector<char> permanent(std::size_t(ssa_regs), 0);
    for (const VecInstr &inv : plan.invariants)
        permanent[std::size_t(inv.dst)] = 1;
    for (const Reduction &r : plan.reductions)
        permanent[std::size_t(r.srcReg)] = 1;
    for (std::size_t i = 0; i < plan.tape.size(); i++) {
        const VecInstr &ins = plan.tape[i];
        for (int r : {ins.a, ins.b, ins.c}) {
            if (r >= 0)
                last_use[std::size_t(r)] = int(i);
        }
    }

    std::vector<int> slot_of(std::size_t(ssa_regs), -1);
    std::vector<char> freed(std::size_t(ssa_regs), 0);
    std::vector<int> free_slots;
    int slots = 0;
    auto alloc = [&](int r) {
        diffuse_assert(slot_of[std::size_t(r)] < 0,
                       "non-SSA register %d in tape", r);
        if (free_slots.empty()) {
            slot_of[std::size_t(r)] = slots++;
        } else {
            slot_of[std::size_t(r)] = free_slots.back();
            free_slots.pop_back();
        }
    };

    for (VecInstr &inv : plan.invariants)
        alloc(inv.dst);
    for (std::size_t i = 0; i < plan.tape.size(); i++) {
        VecInstr &ins = plan.tape[i];
        // Allocate the destination BEFORE freeing this instruction's
        // operands: the executor's inner loops are __restrict, so a
        // destination slot must never alias an operand slot of the
        // same instruction.
        if (ins.dst >= 0)
            alloc(ins.dst);
        for (int *op : {&ins.a, &ins.b, &ins.c}) {
            int r = *op;
            if (r < 0)
                continue;
            *op = slot_of[std::size_t(r)];
            if (last_use[std::size_t(r)] == int(i) &&
                !permanent[std::size_t(r)] && !freed[std::size_t(r)]) {
                free_slots.push_back(slot_of[std::size_t(r)]);
                freed[std::size_t(r)] = 1;
            }
        }
        if (ins.dst >= 0)
            ins.dst = slot_of[std::size_t(ins.dst)];
    }
    for (VecInstr &inv : plan.invariants)
        inv.dst = slot_of[std::size_t(inv.dst)];
    for (Reduction &r : plan.reductions)
        r.srcReg = slot_of[std::size_t(r.srcReg)];
    plan.regCount = slots;
}

/** Map a scalar opcode onto its one-to-one tape mirror. */
VecOp
mirrorOp(Op op)
{
#define DIFFUSE_OP_MIRROR(Name, ...) VecOp::Name,
    // Indexed by Op: the addressing ops, then the op table's mirrors.
    static constexpr VecOp kMirror[] = {
        VecOp::Load, VecOp::Store, VecOp::Splat, VecOp::Splat,
        DIFFUSE_TAPE_OPS(DIFFUSE_OP_MIRROR, DIFFUSE_OP_SKIP)};
#undef DIFFUSE_OP_MIRROR
    return kMirror[std::size_t(op)];
}

/**
 * Strength-reduce binops with a loop-invariant operand into immediate
 * forms: one register read instead of two, no splat needed. The
 * emitted operation is the identical IEEE expression with the
 * invariant value in the `k` position, so results are unchanged
 * bitwise. Returns the uses consumed per invariant register so dead
 * splats can be pruned.
 */
void
foldImmediates(DensePlan &plan, const std::vector<VecInstr> &splats)
{
    // Invariant register -> its splat instruction.
    std::vector<std::int32_t> inv_of;
    auto invariant = [&](std::int32_t r) -> const VecInstr * {
        if (r < 0 || std::size_t(r) >= inv_of.size() ||
            inv_of[std::size_t(r)] < 0)
            return nullptr;
        return &splats[std::size_t(inv_of[std::size_t(r)])];
    };
    for (std::size_t i = 0; i < splats.size(); i++) {
        std::size_t dst = std::size_t(splats[i].dst);
        if (inv_of.size() <= dst)
            inv_of.resize(dst + 1, -1);
        inv_of[dst] = std::int32_t(i);
    }

    for (VecInstr &ins : plan.tape) {
        const VecInstr *ka = invariant(ins.a);
        const VecInstr *kb = nullptr;
        VecOp folded = VecOp::Copy;
        bool use_a = false; // fold the `a` operand (k on the left)
        switch (ins.op) {
          case VecOp::Add:
          case VecOp::Mul:
            kb = invariant(ins.b);
            if (kb != nullptr) {
                folded = ins.op == VecOp::Add ? VecOp::AddK
                                              : VecOp::MulK;
            } else if (ka != nullptr) {
                // IEEE + and * are commutative (payload choice for
                // two-NaN inputs is unspecified either way), so one
                // form serves both operand orders.
                folded = ins.op == VecOp::Add ? VecOp::AddK
                                              : VecOp::MulK;
                use_a = true;
            }
            break;
          case VecOp::Max:
          case VecOp::Min:
            // Fold only `x op k`: the a>b?a:b tie-break is
            // order-sensitive for +/-0, so `k op x` keeps the splat.
            kb = invariant(ins.b);
            if (kb != nullptr)
                folded = ins.op == VecOp::Max ? VecOp::MaxK
                                              : VecOp::MinK;
            break;
          case VecOp::Sub:
            kb = invariant(ins.b);
            if (kb != nullptr) {
                folded = VecOp::SubK;
            } else if (ka != nullptr) {
                folded = VecOp::RsubK;
                use_a = true;
            }
            break;
          case VecOp::Div:
            kb = invariant(ins.b);
            if (kb != nullptr) {
                folded = VecOp::DivK;
            } else if (ka != nullptr) {
                folded = VecOp::RdivK;
                use_a = true;
            }
            break;
          case VecOp::Pow:
            kb = invariant(ins.b);
            if (kb != nullptr)
                folded = VecOp::PowK;
            break;
          case VecOp::CmpLt:
            kb = invariant(ins.b);
            if (kb != nullptr) {
                folded = VecOp::CmpLtK; // x < k
            } else if (ka != nullptr) {
                folded = VecOp::CmpGtK; // k < x  <=>  x > k
                use_a = true;
            }
            break;
          case VecOp::CmpGt:
            kb = invariant(ins.b);
            if (kb != nullptr) {
                folded = VecOp::CmpGtK; // x > k
            } else if (ka != nullptr) {
                folded = VecOp::CmpLtK; // k > x  <=>  x < k
                use_a = true;
            }
            break;
          default:
            break;
        }
        if (folded == VecOp::Copy)
            continue;
        const VecInstr *k = use_a ? ka : kb;
        ins.op = folded;
        ins.imm = k->imm;
        ins.scalar = k->scalar;
        if (use_a)
            ins.a = ins.b;
        ins.b = -1;
    }
}

/**
 * Eliminate redundant loads: a second load of the same buffer reuses
 * the first load's register until a store to the same (or a possibly
 * aliasing) buffer intervenes. Store-to-load forwarding already ran
 * at the IR level; this catches the load-load case it leaves behind.
 */
void
cseLoads(DensePlan &plan, const KernelFunction &fn)
{
    std::unordered_map<int, std::int32_t> cached; // buf -> register
    std::unordered_map<std::int32_t, std::int32_t> alias;
    auto resolve = [&](std::int32_t r) -> std::int32_t {
        auto it = alias.find(r);
        return it == alias.end() ? r : it->second;
    };
    std::vector<VecInstr> out;
    out.reserve(plan.tape.size());
    for (VecInstr ins : plan.tape) {
        if (ins.a >= 0)
            ins.a = resolve(ins.a);
        if (ins.b >= 0)
            ins.b = resolve(ins.b);
        if (ins.c >= 0)
            ins.c = resolve(ins.c);
        if (ins.op == VecOp::Load) {
            int buf = plan.accesses[std::size_t(ins.access)].buf;
            auto it = cached.find(buf);
            if (it != cached.end()) {
                alias[ins.dst] = it->second;
                continue; // load removed
            }
            cached.emplace(buf, ins.dst);
        } else if (ins.op == VecOp::Store) {
            int sbuf = plan.accesses[std::size_t(ins.access)].buf;
            for (auto it = cached.begin(); it != cached.end();) {
                it = mayAlias(fn, it->first, sbuf) ? cached.erase(it)
                                                   : ++it;
            }
        }
        out.push_back(ins);
    }
    for (Reduction &r : plan.reductions)
        r.srcReg = resolve(r.srcReg);
    plan.tape = std::move(out);
}

/**
 * Fuse single-use producers into their consumers so intermediates
 * stay in machine registers inside one loop instead of round-tripping
 * through a register vector:
 *  - Mul / MulK feeding an add/sub (either side, register or
 *    immediate) becomes a multiply-accumulate triad. BOTH rounding
 *    steps are preserved — the executor computes the product as a
 *    separate statement under -ffp-contract=off, so no FP contraction
 *    can occur and results match the unfused pair bitwise.
 *  - Neg feeding an add/sub is folded algebraically where IEEE
 *    defines the identity exactly: y + (-x) = y - x, y - (-x) =
 *    y + x, (-x) + k = k - x, k - (-x) = k + x.
 */
void
fuseChains(DensePlan &plan)
{
    // Use counts over tape operands and reduction sources.
    std::size_t nregs = 0;
    for (const VecInstr &ins : plan.tape)
        nregs = std::max(nregs, std::size_t(ins.dst + 1));
    for (const VecInstr &ins : plan.invariants)
        nregs = std::max(nregs, std::size_t(ins.dst + 1));
    std::vector<int> uses(nregs, 0);
    for (const VecInstr &ins : plan.tape) {
        for (int r : {ins.a, ins.b, ins.c}) {
            if (r >= 0)
                uses[std::size_t(r)]++;
        }
    }
    for (const Reduction &r : plan.reductions)
        uses[std::size_t(r.srcReg)] += 2; // never a fusion candidate

    // Producer index of each register within the tape.
    std::vector<std::int32_t> def(nregs, -1);
    for (std::size_t i = 0; i < plan.tape.size(); i++) {
        if (plan.tape[i].dst >= 0)
            def[std::size_t(plan.tape[i].dst)] = std::int32_t(i);
    }

    std::vector<bool> dead(plan.tape.size(), false);
    auto fusable = [&](std::int32_t r, VecOp kind) -> std::int32_t {
        if (r < 0 || uses[std::size_t(r)] != 1)
            return -1;
        std::int32_t d = def[std::size_t(r)];
        if (d < 0 || dead[std::size_t(d)] ||
            plan.tape[std::size_t(d)].op != kind)
            return -1;
        return d;
    };
    auto kill = [&](std::int32_t d) { dead[std::size_t(d)] = true; };

    for (std::size_t i = 0; i < plan.tape.size(); i++) {
        bool changed = true;
        while (changed) {
            changed = false;
            VecInstr &ins = plan.tape[i];
            std::int32_t p;
            switch (ins.op) {
              case VecOp::Add:
                if ((p = fusable(ins.a, VecOp::Mul)) >= 0) {
                    const VecInstr &m = plan.tape[std::size_t(p)];
                    ins.op = VecOp::MulAdd; // (a*b) + c
                    ins.c = ins.b;
                    ins.a = m.a;
                    ins.b = m.b;
                    kill(p);
                } else if ((p = fusable(ins.b, VecOp::Mul)) >= 0) {
                    const VecInstr &m = plan.tape[std::size_t(p)];
                    ins.op = VecOp::AddMul; // c + (a*b)
                    ins.c = ins.a;
                    ins.a = m.a;
                    ins.b = m.b;
                    kill(p);
                } else if ((p = fusable(ins.a, VecOp::MulK)) >= 0) {
                    const VecInstr &m = plan.tape[std::size_t(p)];
                    ins.op = VecOp::MulKAdd; // (a*k) + c
                    ins.c = ins.b;
                    ins.a = m.a;
                    ins.b = -1;
                    ins.imm = m.imm;
                    ins.scalar = m.scalar;
                    kill(p);
                } else if ((p = fusable(ins.b, VecOp::MulK)) >= 0) {
                    const VecInstr &m = plan.tape[std::size_t(p)];
                    ins.op = VecOp::AddMulK; // c + (a*k)
                    ins.c = ins.a;
                    ins.a = m.a;
                    ins.b = -1;
                    ins.imm = m.imm;
                    ins.scalar = m.scalar;
                    kill(p);
                } else if ((p = fusable(ins.a, VecOp::Neg)) >= 0) {
                    const VecInstr &m = plan.tape[std::size_t(p)];
                    ins.op = VecOp::Sub; // (-x) + y = y - x
                    ins.a = ins.b;
                    ins.b = m.a;
                    kill(p);
                    changed = true;
                } else if ((p = fusable(ins.b, VecOp::Neg)) >= 0) {
                    const VecInstr &m = plan.tape[std::size_t(p)];
                    ins.op = VecOp::Sub; // y + (-x) = y - x
                    ins.b = m.a;
                    kill(p);
                    changed = true;
                }
                break;
              case VecOp::Sub:
                if ((p = fusable(ins.a, VecOp::Mul)) >= 0) {
                    const VecInstr &m = plan.tape[std::size_t(p)];
                    ins.op = VecOp::MulSub; // (a*b) - c
                    ins.c = ins.b;
                    ins.a = m.a;
                    ins.b = m.b;
                    kill(p);
                } else if ((p = fusable(ins.b, VecOp::Mul)) >= 0) {
                    const VecInstr &m = plan.tape[std::size_t(p)];
                    ins.op = VecOp::SubMul; // c - (a*b)
                    ins.c = ins.a;
                    ins.a = m.a;
                    ins.b = m.b;
                    kill(p);
                } else if ((p = fusable(ins.a, VecOp::MulK)) >= 0) {
                    const VecInstr &m = plan.tape[std::size_t(p)];
                    ins.op = VecOp::MulKSub; // (a*k) - c
                    ins.c = ins.b;
                    ins.a = m.a;
                    ins.b = -1;
                    ins.imm = m.imm;
                    ins.scalar = m.scalar;
                    kill(p);
                } else if ((p = fusable(ins.b, VecOp::MulK)) >= 0) {
                    const VecInstr &m = plan.tape[std::size_t(p)];
                    ins.op = VecOp::SubMulK; // c - (a*k)
                    ins.c = ins.a;
                    ins.a = m.a;
                    ins.b = -1;
                    ins.imm = m.imm;
                    ins.scalar = m.scalar;
                    kill(p);
                } else if ((p = fusable(ins.b, VecOp::Neg)) >= 0) {
                    const VecInstr &m = plan.tape[std::size_t(p)];
                    ins.op = VecOp::Add; // y - (-x) = y + x
                    ins.b = m.a;
                    kill(p);
                    changed = true;
                }
                break;
              case VecOp::AddK:
                if ((p = fusable(ins.a, VecOp::Mul)) >= 0) {
                    const VecInstr &m = plan.tape[std::size_t(p)];
                    ins.op = VecOp::MulAddK; // (a*b) + k
                    ins.a = m.a;
                    ins.b = m.b;
                    kill(p);
                } else if ((p = fusable(ins.a, VecOp::MulK)) >= 0) {
                    const VecInstr &m = plan.tape[std::size_t(p)];
                    ins.op = VecOp::MulKAddK; // (a*k) + k2
                    ins.a = m.a;
                    ins.imm2 = ins.imm;
                    ins.scalar2 = ins.scalar;
                    ins.imm = m.imm;
                    ins.scalar = m.scalar;
                    kill(p);
                } else if ((p = fusable(ins.a, VecOp::Neg)) >= 0) {
                    const VecInstr &m = plan.tape[std::size_t(p)];
                    ins.op = VecOp::RsubK; // (-x) + k = k - x
                    ins.a = m.a;
                    kill(p);
                    changed = true;
                }
                break;
              case VecOp::SubK:
                if ((p = fusable(ins.a, VecOp::Mul)) >= 0) {
                    const VecInstr &m = plan.tape[std::size_t(p)];
                    ins.op = VecOp::MulSubK; // (a*b) - k
                    ins.a = m.a;
                    ins.b = m.b;
                    kill(p);
                } else if ((p = fusable(ins.a, VecOp::MulK)) >= 0) {
                    const VecInstr &m = plan.tape[std::size_t(p)];
                    ins.op = VecOp::MulKSubK; // (a*k) - k2
                    ins.a = m.a;
                    ins.imm2 = ins.imm;
                    ins.scalar2 = ins.scalar;
                    ins.imm = m.imm;
                    ins.scalar = m.scalar;
                    kill(p);
                }
                break;
              case VecOp::RsubK:
                if ((p = fusable(ins.a, VecOp::Mul)) >= 0) {
                    const VecInstr &m = plan.tape[std::size_t(p)];
                    ins.op = VecOp::MulRsubK; // k - (a*b)
                    ins.a = m.a;
                    ins.b = m.b;
                    kill(p);
                } else if ((p = fusable(ins.a, VecOp::MulK)) >= 0) {
                    const VecInstr &m = plan.tape[std::size_t(p)];
                    ins.op = VecOp::MulKRsubK; // k2 - (a*k)
                    ins.a = m.a;
                    ins.imm2 = ins.imm;
                    ins.scalar2 = ins.scalar;
                    ins.imm = m.imm;
                    ins.scalar = m.scalar;
                    kill(p);
                } else if ((p = fusable(ins.a, VecOp::Neg)) >= 0) {
                    const VecInstr &m = plan.tape[std::size_t(p)];
                    ins.op = VecOp::AddK; // k - (-x) = k + x
                    ins.a = m.a;
                    kill(p);
                    changed = true;
                }
                break;
              default:
                break;
            }
        }
    }

    std::vector<VecInstr> out;
    out.reserve(plan.tape.size());
    for (std::size_t i = 0; i < plan.tape.size(); i++) {
        if (!dead[i])
            out.push_back(plan.tape[i]);
    }
    plan.tape = std::move(out);
}

/** Re-index access slots after CSE removed load instructions. */
void
rebuildAccesses(DensePlan &plan)
{
    std::vector<AccessSite> live;
    live.reserve(plan.accesses.size());
    for (VecInstr &ins : plan.tape) {
        if (ins.op == VecOp::Load || ins.op == VecOp::Store) {
            live.push_back(plan.accesses[std::size_t(ins.access)]);
            ins.access = std::int32_t(live.size()) - 1;
        }
    }
    plan.accesses = std::move(live);
}

/**
 * Mark the Loads whose strip the ops may read straight from the bound
 * buffer (VecInstr::inPlace). A Load qualifies when no Store to a
 * buffer that may alias it comes between the Load and the last read
 * of its register; a reduction folds its register after the whole
 * tape, so it counts as a read at the end of the strip. A Store that
 * is itself the last read copies element k before writing element k,
 * and the bind-time hazard check leaves such a pair identical or
 * disjoint, so it does not block. Runs on SSA registers.
 */
void
markInPlaceLoads(DensePlan &plan, const KernelFunction &fn)
{
    const std::size_t end = plan.tape.size();
    std::unordered_map<std::int32_t, std::size_t> last_read;
    for (std::size_t i = 0; i < end; i++) {
        const VecInstr &ins = plan.tape[i];
        for (int r : {ins.a, ins.b, ins.c}) {
            if (r >= 0)
                last_read[r] = i;
        }
    }
    for (const Reduction &r : plan.reductions)
        last_read[r.srcReg] = end;

    for (std::size_t i = 0; i < end; i++) {
        VecInstr &ins = plan.tape[i];
        if (ins.op != VecOp::Load)
            continue;
        auto it = last_read.find(ins.dst);
        std::size_t last = it == last_read.end() ? i : it->second;
        int buf = plan.accesses[std::size_t(ins.access)].buf;
        ins.inPlace = true;
        for (std::size_t j = i + 1; j < last && ins.inPlace; j++) {
            const VecInstr &st = plan.tape[j];
            if (st.op == VecOp::Store &&
                mayAlias(fn, buf,
                         plan.accesses[std::size_t(st.access)].buf))
                ins.inPlace = false;
        }
    }
}

/** Drop splats whose destination no tape op or reduction reads. */
void
pruneSplats(DensePlan &plan)
{
    std::vector<VecInstr> live;
    for (const VecInstr &inv : plan.invariants) {
        bool used = false;
        for (const VecInstr &ins : plan.tape) {
            if (ins.a == inv.dst || ins.b == inv.dst ||
                ins.c == inv.dst) {
                used = true;
                break;
            }
        }
        for (const Reduction &r : plan.reductions) {
            if (r.srcReg == inv.dst)
                used = true;
        }
        if (used)
            live.push_back(inv);
    }
    plan.invariants = std::move(live);
}

DensePlan
lowerDense(const KernelFunction &fn, const LoopNest &nest)
{
    DensePlan plan;
    plan.regCount = registerCount(nest.body);
    plan.reductions = nest.reductions;
    plan.flopsPerElem = double(nest.reductions.size());

    for (const Instr &ins : nest.body) {
        plan.flopsPerElem += opFlopWeight(ins.op);
        VecInstr v;
        v.op = mirrorOp(ins.op);
        v.dst = ins.dst;
        v.a = ins.a;
        v.b = ins.b;
        v.c = ins.c;
        v.scalar = ins.scalar;
        v.imm = ins.imm;
        switch (ins.op) {
          case Op::Const:
          case Op::LoadScalar:
            // Loop-invariant: splatted once per invocation. SSA
            // guarantees the destination is defined exactly once, so
            // hoisting above the tape is always sound.
            plan.invariants.push_back(v);
            continue;
          case Op::LoadBuf:
            v.access = std::int32_t(plan.accesses.size());
            plan.accesses.push_back({ins.buf, false});
            pushDistinct(plan.loadBufs, ins.buf);
            break;
          case Op::StoreBuf:
            v.access = std::int32_t(plan.accesses.size());
            plan.accesses.push_back({ins.buf, true});
            pushDistinct(plan.storeBufs, ins.buf);
            break;
          default:
            break;
        }
        plan.tape.push_back(v);
    }

    cseLoads(plan, fn);
    foldImmediates(plan, plan.invariants);
    fuseChains(plan);
    pruneSplats(plan);
    rebuildAccesses(plan);
    markInPlaceLoads(plan, fn);

    // Alias hazards: a store site and any site on a DIFFERENT buffer
    // that may overlap it. Whether the hazard is real (shifted views)
    // or benign (identical views, i.e. same-index accesses) is decided
    // against the concrete bindings, once per invocation.
    for (std::size_t s = 0; s < plan.accesses.size(); s++) {
        if (!plan.accesses[s].isStore)
            continue;
        for (std::size_t t = 0; t < plan.accesses.size(); t++) {
            if (t == s)
                continue;
            int sb = plan.accesses[s].buf;
            int tb = plan.accesses[t].buf;
            if (sb != tb && mayAlias(fn, sb, tb)) {
                plan.aliasHazards.emplace_back(std::int32_t(s),
                                               std::int32_t(t));
            }
        }
    }

    allocateSlots(plan, registerCount(nest.body));
    return plan;
}

} // namespace

ExecutablePlan
lowerPlan(const KernelFunction &fn, int strip_width)
{
    ExecutablePlan plan;
    plan.stripWidth = strip_width > 0 ? strip_width : kStripWidth;
    plan.nests.reserve(fn.nests.size());
    for (const LoopNest &nest : fn.nests) {
        NestPlan np;
        np.kind = nest.kind;
        np.domainBuf = nest.domainBuf;
        switch (nest.kind) {
          case NestKind::Dense:
            np.dense = lowerDense(fn, nest);
            plan.maxRegCount =
                std::max(plan.maxRegCount, np.dense.regCount);
            break;
          case NestKind::Gemv:
            np.rowParallel = !mayAlias(fn, nest.gemvY, nest.gemvA) &&
                             !mayAlias(fn, nest.gemvY, nest.gemvX);
            break;
          case NestKind::Csr:
            np.rowParallel =
                !mayAlias(fn, nest.csrY, nest.csrRowptr) &&
                !mayAlias(fn, nest.csrY, nest.csrColind) &&
                !mayAlias(fn, nest.csrY, nest.csrVals) &&
                !mayAlias(fn, nest.csrY, nest.csrX);
            break;
        }
        plan.nests.push_back(std::move(np));
    }
    return plan;
}

} // namespace kir
} // namespace diffuse
