#include "prog/thread_state.hh"

#include "sim/logging.hh"
#include "sim/rng.hh"

namespace asf
{

ThreadState::ThreadState()
{
    reset();
}

void
ThreadState::reset(uint64_t entry_pc, uint64_t prng_seed)
{
    regs_.fill(0);
    pc_ = entry_pc;
    prng_ = prng_seed ? prng_seed : 1;
    halted_ = false;
}

uint64_t
ThreadState::reg(Reg r) const
{
    if (r >= numRegs)
        panic("register x%u out of range", r);
    return regs_[r];
}

void
ThreadState::setReg(Reg r, uint64_t v)
{
    if (r >= numRegs)
        panic("register x%u out of range", r);
    regs_[r] = v;
}

uint64_t
ThreadState::nextRand()
{
    prng_ = xorshiftStep(prng_);
    return prng_;
}

void
ThreadState::executeNonMem(const Instr &ins)
{
    uint64_t next_pc = pc_ + 1;
    switch (ins.op) {
      case Op::Nop:
        break;
      case Op::Li:
        setReg(ins.rd, static_cast<uint64_t>(ins.imm));
        break;
      case Op::Mov:
        setReg(ins.rd, reg(ins.ra));
        break;
      case Op::Add:
        setReg(ins.rd, reg(ins.ra) + reg(ins.rb));
        break;
      case Op::Sub:
        setReg(ins.rd, reg(ins.ra) - reg(ins.rb));
        break;
      case Op::Mul:
        setReg(ins.rd, reg(ins.ra) * reg(ins.rb));
        break;
      case Op::And:
        setReg(ins.rd, reg(ins.ra) & reg(ins.rb));
        break;
      case Op::Or:
        setReg(ins.rd, reg(ins.ra) | reg(ins.rb));
        break;
      case Op::Xor:
        setReg(ins.rd, reg(ins.ra) ^ reg(ins.rb));
        break;
      case Op::Addi:
        setReg(ins.rd, reg(ins.ra) + static_cast<uint64_t>(ins.imm));
        break;
      case Op::Andi:
        setReg(ins.rd, reg(ins.ra) & static_cast<uint64_t>(ins.imm));
        break;
      case Op::Muli:
        setReg(ins.rd, reg(ins.ra) * static_cast<uint64_t>(ins.imm));
        break;
      case Op::Shli:
        setReg(ins.rd, reg(ins.ra) << (ins.imm & 63));
        break;
      case Op::Shri:
        setReg(ins.rd, reg(ins.ra) >> (ins.imm & 63));
        break;
      case Op::Beq:
        if (reg(ins.ra) == reg(ins.rb))
            next_pc = static_cast<uint64_t>(ins.imm);
        break;
      case Op::Bne:
        if (reg(ins.ra) != reg(ins.rb))
            next_pc = static_cast<uint64_t>(ins.imm);
        break;
      case Op::Blt:
        if (static_cast<int64_t>(reg(ins.ra)) <
            static_cast<int64_t>(reg(ins.rb)))
            next_pc = static_cast<uint64_t>(ins.imm);
        break;
      case Op::Bge:
        if (static_cast<int64_t>(reg(ins.ra)) >=
            static_cast<int64_t>(reg(ins.rb)))
            next_pc = static_cast<uint64_t>(ins.imm);
        break;
      case Op::Jmp:
        next_pc = static_cast<uint64_t>(ins.imm);
        break;
      case Op::Rand:
        setReg(ins.rd, nextRand());
        break;
      case Op::Halt:
        halted_ = true;
        break;
      default:
        panic("executeNonMem called on '%s'", opName(ins.op));
    }
    pc_ = next_pc;
}

} // namespace asf
