/**
 * @file
 * The guest mini-ISA. Workloads (work-stealing runtime, TLRW STM, Bakery,
 * litmus tests) are written in this ISA and executed by the simulated
 * cores. Thread state is tiny and trivially copyable, which is what makes
 * the W+ design's register-checkpoint rollback implementable exactly as
 * the paper describes.
 */

#ifndef ASF_PROG_INSTR_HH
#define ASF_PROG_INSTR_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace asf
{

/** Guest register index (x0..x31). x0 is an ordinary register, not zero. */
using Reg = uint8_t;

constexpr unsigned numRegs = 32;

/**
 * The role a fence plays in its fence group. The workload marks each fence
 * with the role the paper assigns it (e.g. the work-queue owner's fence is
 * Critical, the thief's is Noncritical); the active fence design maps the
 * role to a Strong or Weak fence at execution time. This is how one
 * workload binary runs under S+, WS+, SW+, W+, and Wee unchanged.
 */
enum class FenceRole : uint8_t
{
    Critical,    ///< Performance-critical thread's fence.
    Noncritical, ///< The other thread(s)' fence.
};

enum class Op : uint8_t
{
    Nop,
    Li,      ///< rd = imm
    Mov,     ///< rd = ra
    Add,     ///< rd = ra + rb
    Sub,     ///< rd = ra - rb
    Mul,     ///< rd = ra * rb
    And,     ///< rd = ra & rb
    Or,      ///< rd = ra | rb
    Xor,     ///< rd = ra ^ rb
    Addi,    ///< rd = ra + imm
    Andi,    ///< rd = ra & imm
    Muli,    ///< rd = ra * imm
    Shli,    ///< rd = ra << imm
    Shri,    ///< rd = ra >> imm (logical)
    Ld,      ///< rd = mem64[ra + imm]
    St,      ///< mem64[ra + imm] = rb
    Cas,     ///< rd = mem64[ra+imm]; if rd == rb: mem64[ra+imm] = rc
             ///< (atomic; full-fence semantics, like x86 LOCK CMPXCHG)
    Xchg,    ///< rd = mem64[ra+imm]; mem64[ra+imm] = rb (atomic full fence)
    Fence,   ///< memory fence with a FenceRole
    Beq,     ///< if ra == rb goto imm
    Bne,     ///< if ra != rb goto imm
    Blt,     ///< if (int64)ra < (int64)rb goto imm
    Bge,     ///< if (int64)ra >= (int64)rb goto imm
    Jmp,     ///< goto imm
    Compute, ///< occupy the core for imm cycles of non-memory work
    Rand,    ///< rd = next per-thread xorshift value
    Mark,    ///< bump guest event counter #imm (tx commit, task done, ...)
    Halt,    ///< thread finished
};

/** One decoded instruction. */
struct Instr
{
    Op op = Op::Nop;
    Reg rd = 0;
    Reg ra = 0;
    Reg rb = 0;
    Reg rc = 0;
    int64_t imm = 0;
    FenceRole role = FenceRole::Critical;

    /** True for Ld/St/Cas/Xchg. */
    bool isMem() const;
    /** True for Cas/Xchg. */
    bool isAtomic() const;
    /** True for Ld/Cas/Xchg (reads memory). */
    bool readsMem() const;
    /** True for St/Cas/Xchg (may write memory). */
    bool writesMem() const;
    /** True for Beq/Bne/Blt/Bge (conditional, two successors). */
    bool isCondBranch() const;
    /** True for conditional branches and Jmp: imm is a PC target. */
    bool isControl() const;
    /** Human-readable disassembly. */
    std::string toString() const;
};

/** Mnemonic of an opcode. */
const char *opName(Op op);

/** "critical" / "noncritical", as placement reports spell roles. */
const char *fenceRoleName(FenceRole role);

/**
 * A fence site a builder deliberately left out (Assembler fence
 * suppression): the hand-placed ground truth an unfenced synthesis
 * input carries along. `beforePc` is the index of the instruction the
 * fence would have immediately preceded.
 */
struct OmittedFence
{
    uint64_t beforePc = 0;
    FenceRole role = FenceRole::Critical;

    bool operator==(const OmittedFence &) const = default;
};

/**
 * A complete guest program: a flat instruction vector. PC values are
 * indices into instrs. Programs are immutable once built and shared by
 * all threads that run them.
 */
struct Program
{
    std::string name;
    std::vector<Instr> instrs;
    /** Hand-placed fence sites suppressed at build time (see
     *  Assembler::suppressFences); empty for normally built programs.
     *  Metadata only - execution ignores it. */
    std::vector<OmittedFence> omittedFences;

    size_t size() const { return instrs.size(); }

    /** Instruction at pc; panics when pc is out of range. Inline: the
     *  core fetches through it on every executed instruction. */
    const Instr &
    at(uint64_t pc) const
    {
        if (pc >= instrs.size()) [[unlikely]]
            pcPanic(pc);
        return instrs[pc];
    }

  private:
    [[noreturn]] void pcPanic(uint64_t pc) const;
};

} // namespace asf

#endif // ASF_PROG_INSTR_HH
