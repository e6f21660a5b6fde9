/**
 * @file
 * Guest-program rewriting: fence insertion with control-flow repair.
 * The fence synthesizer (src/analysis) works on *positions between
 * instructions*; this module materializes a placement by splicing
 * Fence instructions into the flat instruction vector and retargeting
 * every branch/jump so control flow is preserved.
 *
 * A fence inserted "before pc q" guards the instruction at q: every
 * path that executes q executes the fence first, because jumps whose
 * target was q are redirected to the fence.
 */

#ifndef ASF_PROG_REWRITE_HH
#define ASF_PROG_REWRITE_HH

#include <vector>

#include "prog/instr.hh"

namespace asf
{

/** One fence to splice in, at the position just before `beforePc`. */
struct FenceInsertion
{
    uint64_t beforePc = 0;
    FenceRole role = FenceRole::Critical;

    bool operator==(const FenceInsertion &) const = default;
};

/** A multi-threaded program's fences: one insertion list per thread. */
using Placement = std::vector<std::vector<FenceInsertion>>;

/**
 * Return a copy of `p` with a Fence spliced in before each requested
 * pc (duplicates at the same position collapse to one fence, keeping
 * the strongest role demand: any Noncritical wins over Critical).
 * Branch and jump targets are remapped; a target that named an
 * insertion point now lands on the fence. `beforePc` may equal
 * p.size() only if the program ends without Halt (it cannot: fatal).
 */
Program insertFences(const Program &p,
                     std::vector<FenceInsertion> insertions);

} // namespace asf

#endif // ASF_PROG_REWRITE_HH
