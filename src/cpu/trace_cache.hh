/**
 * @file
 * Pre-decoded instruction classification for the direct-execution fast
 * path (see DESIGN.md "Run-loop arbitration"). For each PC of a bound
 * program the cache records which burst-interpreter rule applies, and
 * for "pure" register ops the length of the maximal straight-line pure
 * run starting there, so Core::directBurst can retire a whole superblock
 * against its issue budget without re-classifying per instruction.
 *
 * Programs are immutable once built (rewrite.cc's fence splicing yields
 * a *new* Program), so the cache needs no line-level invalidation: the
 * core rebuilds it wholesale in setProgram, which is what "invalidates"
 * every block that a spliced-in fence now splits.
 */

#ifndef ASF_CPU_TRACE_CACHE_HH
#define ASF_CPU_TRACE_CACHE_HH

#include <cstdint>
#include <vector>

#include "prog/instr.hh"

namespace asf
{

class TraceCache
{
  public:
    /**
     * The burst-interpreter rule for one instruction. Pure ops mutate
     * only thread-private register/PRNG state; Control ops additionally
     * redirect the PC (still thread-private — the interpreter resolves
     * the target immediately). Load/Store/Compute have dedicated burst
     * rules with preconditions; Breaker ops (fences, RMWs, Mark, Halt)
     * always end a burst and drop back to cycle-exact ticking.
     */
    enum class Kind : uint8_t
    {
        Pure,    ///< register/PRNG op: Nop, Li, Mov, ALU, shifts, Rand
        Control, ///< branch or jump with interpreter-resolved target
        Load,    ///< Ld: burstable only on a forward or an L1 hit
        Store,   ///< St: burstable into the write buffer
        Compute, ///< Compute: turns into a busy count-down
        Breaker, ///< Fence/Cas/Xchg/Mark/Halt: always ends the burst
    };

    TraceCache() = default;

    /** Pre-decode `prog`; replaces any previous contents. */
    void build(const Program &prog);

    /** Forget the decoded program (core unbound). */
    void clear();

    bool valid() const { return !ops_.empty(); }
    size_t size() const { return ops_.size(); }

    /**
     * Fused per-PC record, one load for the burst interpreter's
     * per-instruction dispatch: the Kind in the low byte, the pure-run
     * length in the high 32 bits. Out-of-range PCs report Breaker with
     * run 0: the burst aborts and the cycle-exact path raises the same
     * fatal a plain tick would.
     */
    uint64_t op(uint64_t pc) const
    {
        return pc < ops_.size() ? ops_[pc] : uint64_t(Kind::Breaker);
    }
    static Kind opKind(uint64_t op) { return Kind(op & 0xff); }
    static uint32_t opRun(uint64_t op) { return uint32_t(op >> 32); }

    /** Classification of the instruction at `pc`. */
    Kind kind(uint64_t pc) const { return opKind(op(pc)); }

    /** Length of the maximal run of consecutive Pure instructions
     *  starting at `pc` (0 when the instruction there is not Pure). */
    uint32_t pureRun(uint64_t pc) const { return opRun(op(pc)); }

    /** Classification rule, exposed for tests. */
    static Kind classify(const Instr &ins);

  private:
    std::vector<uint64_t> ops_;
};

} // namespace asf

#endif // ASF_CPU_TRACE_CACHE_HH
