/**
 * @file
 * Architectural state of one guest thread. Deliberately a POD-ish value
 * type: W+ recovery takes a register checkpoint at every weak fence and
 * restores it on a deadlock timeout, and that checkpoint is simply a copy
 * of this struct.
 */

#ifndef ASF_PROG_THREAD_STATE_HH
#define ASF_PROG_THREAD_STATE_HH

#include <array>
#include <cstdint>

#include "prog/instr.hh"

namespace asf
{

class ThreadState
{
  public:
    ThreadState();

    /** Reset to entry point with all registers zero. */
    void reset(uint64_t entry_pc = 0, uint64_t prng_seed = 1);

    uint64_t reg(Reg r) const;
    void setReg(Reg r, uint64_t v);

    uint64_t pc() const { return pc_; }
    void setPc(uint64_t pc) { pc_ = pc; }

    bool halted() const { return halted_; }
    void halt() { halted_ = true; }

    /** Advance the per-thread xorshift state and return the new draw. */
    uint64_t nextRand();

    /**
     * Execute one non-memory, non-fence instruction against this state
     * (register ops, branches, rand, halt). Memory ops, fences, Compute,
     * and Mark are the core's business and must not be passed here.
     * Advances the PC.
     */
    void executeNonMem(const Instr &ins);

  private:
    std::array<uint64_t, numRegs> regs_;
    uint64_t pc_;
    uint64_t prng_;
    bool halted_;
};

/** A W+ checkpoint is just a saved copy of the thread state. */
using ThreadCheckpoint = ThreadState;

} // namespace asf

#endif // ASF_PROG_THREAD_STATE_HH
