#include "cpu/trace_cache.hh"

namespace asf
{

TraceCache::Kind
TraceCache::classify(const Instr &ins)
{
    switch (ins.op) {
      case Op::Nop:
      case Op::Li:
      case Op::Mov:
      case Op::Add:
      case Op::Sub:
      case Op::Mul:
      case Op::And:
      case Op::Or:
      case Op::Xor:
      case Op::Addi:
      case Op::Andi:
      case Op::Muli:
      case Op::Shli:
      case Op::Shri:
      case Op::Rand:
        return Kind::Pure;
      case Op::Beq:
      case Op::Bne:
      case Op::Blt:
      case Op::Bge:
      case Op::Jmp:
        return Kind::Control;
      case Op::Ld:
        return Kind::Load;
      case Op::St:
        return Kind::Store;
      case Op::Compute:
        return Kind::Compute;
      case Op::Fence:
      case Op::Cas:
      case Op::Xchg:
      case Op::Mark:
      case Op::Halt:
        return Kind::Breaker;
    }
    return Kind::Breaker;
}

void
TraceCache::build(const Program &prog)
{
    size_t n = prog.instrs.size();
    ops_.resize(n);
    for (size_t i = 0; i < n; i++) {
        const Instr &ins = prog.instrs[i];
        Kind k = classify(ins);
        // Validate every register operand once, here, so the burst
        // interpreter can use the unchecked ThreadState accessors. An
        // out-of-range operand demotes the instruction to Breaker: the
        // burst ends in front of it and the cycle-exact path raises
        // the same register-range panic a plain tick would.
        if (k != Kind::Breaker &&
            (ins.rd >= numRegs || ins.ra >= numRegs || ins.rb >= numRegs))
            k = Kind::Breaker;
        ops_[i] = uint64_t(k);
    }
    // Backward pass: the run length counts the consecutive Pure
    // instructions from i up to (excluding) the first non-Pure one.
    uint64_t run = 0;
    for (size_t i = n; i-- > 0;) {
        run = opKind(ops_[i]) == Kind::Pure ? run + 1 : 0;
        ops_[i] |= run << 32;
    }
}

void
TraceCache::clear()
{
    ops_.clear();
}

} // namespace asf
