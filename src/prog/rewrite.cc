#include "prog/rewrite.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace asf
{

namespace
{

/** Sort by position and collapse duplicates (Noncritical wins: it
 *  resolves to the stronger fence under the asymmetric designs). */
std::vector<FenceInsertion>
normalize(std::vector<FenceInsertion> ins)
{
    std::sort(ins.begin(), ins.end(),
              [](const FenceInsertion &a, const FenceInsertion &b) {
                  return a.beforePc < b.beforePc;
              });
    std::vector<FenceInsertion> out;
    for (const FenceInsertion &f : ins) {
        if (!out.empty() && out.back().beforePc == f.beforePc) {
            if (f.role == FenceRole::Noncritical)
                out.back().role = FenceRole::Noncritical;
            continue;
        }
        out.push_back(f);
    }
    return out;
}

} // namespace

Program
insertFences(const Program &p, std::vector<FenceInsertion> insertions)
{
    std::vector<FenceInsertion> ins = normalize(std::move(insertions));
    for (const FenceInsertion &f : ins)
        if (f.beforePc >= p.size())
            fatal("insertFences('%s'): position %llu past the end "
                  "(%zu instrs)",
                  p.name.c_str(), (unsigned long long)f.beforePc,
                  p.size());

    // A jump target t must land on the fence guarding t, i.e. skip
    // only the fences inserted strictly before t.
    auto new_target = [&ins](uint64_t t) {
        uint64_t shift = 0;
        for (const FenceInsertion &f : ins) {
            if (f.beforePc >= t)
                break;
            shift++;
        }
        return t + shift;
    };

    Program out;
    out.name = p.name + "+synth";
    out.instrs.reserve(p.size() + ins.size());
    size_t next = 0;
    for (uint64_t pc = 0; pc < p.size(); pc++) {
        while (next < ins.size() && ins[next].beforePc == pc) {
            out.instrs.push_back(
                {.op = Op::Fence, .role = ins[next].role});
            next++;
        }
        Instr i = p.instrs[pc];
        if (i.isControl())
            i.imm = int64_t(new_target(uint64_t(i.imm)));
        out.instrs.push_back(i);
    }
    return out;
}

} // namespace asf
