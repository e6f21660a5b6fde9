#include "prog/instr.hh"

#include "sim/logging.hh"

namespace asf
{

bool
Instr::isMem() const
{
    return op == Op::Ld || op == Op::St || op == Op::Cas || op == Op::Xchg;
}

bool
Instr::isAtomic() const
{
    return op == Op::Cas || op == Op::Xchg;
}

bool
Instr::readsMem() const
{
    return op == Op::Ld || isAtomic();
}

bool
Instr::writesMem() const
{
    return op == Op::St || isAtomic();
}

bool
Instr::isCondBranch() const
{
    return op == Op::Beq || op == Op::Bne || op == Op::Blt ||
           op == Op::Bge;
}

bool
Instr::isControl() const
{
    return isCondBranch() || op == Op::Jmp;
}

const char *
fenceRoleName(FenceRole role)
{
    return role == FenceRole::Critical ? "critical" : "noncritical";
}

const char *
opName(Op op)
{
    switch (op) {
      case Op::Nop: return "nop";
      case Op::Li: return "li";
      case Op::Mov: return "mov";
      case Op::Add: return "add";
      case Op::Sub: return "sub";
      case Op::Mul: return "mul";
      case Op::And: return "and";
      case Op::Or: return "or";
      case Op::Xor: return "xor";
      case Op::Addi: return "addi";
      case Op::Andi: return "andi";
      case Op::Muli: return "muli";
      case Op::Shli: return "shli";
      case Op::Shri: return "shri";
      case Op::Ld: return "ld";
      case Op::St: return "st";
      case Op::Cas: return "cas";
      case Op::Xchg: return "xchg";
      case Op::Fence: return "fence";
      case Op::Beq: return "beq";
      case Op::Bne: return "bne";
      case Op::Blt: return "blt";
      case Op::Bge: return "bge";
      case Op::Jmp: return "jmp";
      case Op::Compute: return "compute";
      case Op::Rand: return "rand";
      case Op::Mark: return "mark";
      case Op::Halt: return "halt";
    }
    return "<bad-op>";
}

std::string
Instr::toString() const
{
    switch (op) {
      case Op::Nop:
      case Op::Halt:
        return opName(op);
      case Op::Li:
        return format("li x%u, %lld", rd, (long long)imm);
      case Op::Mov:
        return format("mov x%u, x%u", rd, ra);
      case Op::Add:
      case Op::Sub:
      case Op::Mul:
      case Op::And:
      case Op::Or:
      case Op::Xor:
        return format("%s x%u, x%u, x%u", opName(op), rd, ra, rb);
      case Op::Addi:
      case Op::Andi:
      case Op::Muli:
      case Op::Shli:
      case Op::Shri:
        return format("%s x%u, x%u, %lld", opName(op), rd, ra,
                      (long long)imm);
      case Op::Ld:
        return format("ld x%u, [x%u%+lld]", rd, ra, (long long)imm);
      case Op::St:
        return format("st [x%u%+lld], x%u", ra, (long long)imm, rb);
      case Op::Cas:
        return format("cas x%u, [x%u%+lld], x%u, x%u", rd, ra,
                      (long long)imm, rb, rc);
      case Op::Xchg:
        return format("xchg x%u, [x%u%+lld], x%u", rd, ra,
                      (long long)imm, rb);
      case Op::Fence:
        return format("fence.%s",
                      role == FenceRole::Critical ? "crit" : "nc");
      case Op::Beq:
      case Op::Bne:
      case Op::Blt:
      case Op::Bge:
        return format("%s x%u, x%u, @%lld", opName(op), ra, rb,
                      (long long)imm);
      case Op::Jmp:
        return format("jmp @%lld", (long long)imm);
      case Op::Compute:
        return format("compute %lld", (long long)imm);
      case Op::Rand:
        return format("rand x%u", rd);
      case Op::Mark:
        return format("mark %lld", (long long)imm);
    }
    return "<bad-instr>";
}

void
Program::pcPanic(uint64_t pc) const
{
    panic("program '%s': pc %llu out of range (%zu instrs)", name.c_str(),
          (unsigned long long)pc, instrs.size());
}

} // namespace asf
