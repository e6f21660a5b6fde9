/**
 * The fast-forward invariant: per-core sleep and the all-asleep jump
 * are host-side optimizations only, and must leave every simulated
 * observable — final cycle count, retired instructions, and the
 * complete stats JSON dump — bit-identical to the reference mode,
 * which ticks every core every cycle. Checked on a hand-built two-core
 * fence/miss workload (where fast-forward demonstrably engages), a
 * busy spin, randomized fence-disciplined programs, and the runtime's
 * synchronization kernels (Dekker, bakery, TLRW, THE deque), across
 * all five fence designs.
 */

#include <gtest/gtest.h>

#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "../helpers.hh"
#include "prog/fuzz.hh"
#include "runtime/bakery.hh"
#include "runtime/dekker.hh"
#include "runtime/layout.hh"
#include "runtime/regs.hh"
#include "runtime/the_deque.hh"
#include "runtime/tlrw.hh"

using namespace asf;
using namespace asf::test;
using namespace asf::runtime;

namespace
{

struct RunOutcome
{
    Tick cycles = 0;
    uint64_t instrRetired = 0;
    uint64_t fastForwardedCycles = 0;
    std::string statsJson;
};

/** Run `sys` to completion and harvest everything the invariant covers. */
RunOutcome
harvest(System &sys)
{
    runToCompletion(sys);
    RunOutcome out;
    out.cycles = sys.now();
    out.instrRetired = sys.totalInstrRetired();
    out.fastForwardedCycles = sys.fastForwardedCycles();
    std::ostringstream os;
    sys.dumpStatsJson(os);
    out.statsJson = os.str();
    return out;
}

/** The microbench-style idle-heavy kernel: a cold-miss store drained
 *  through a strong fence, then a cold-miss load, per iteration. Every
 *  iteration is dominated by off-chip stall cycles, so fast-forward
 *  has long gaps to jump. */
Program
fenceMissProgram(int64_t iters)
{
    Assembler a("fence_miss");
    a.li(4, 0);
    a.li(5, iters);
    a.bind("loop");
    a.addi(3, 3, 1);
    a.st(1, 0, 3);
    a.fence(FenceRole::Critical);
    a.ld(6, 2, 0);
    a.addi(1, 1, 4096);
    a.addi(2, 2, 4096);
    a.addi(4, 4, 1);
    a.blt(4, 5, "loop");
    a.halt();
    return a.finish();
}

void
loadFenceMiss(System &sys, unsigned cores, int64_t iters)
{
    auto prog = share(fenceMissProgram(iters));
    for (unsigned i = 0; i < cores; i++) {
        sys.loadProgram(NodeId(i), prog);
        // Disjoint streams, one per core, each homed locally.
        sys.core(NodeId(i)).setReg(1, 0x1000000 + Addr(i) * 512);
        sys.core(NodeId(i)).setReg(2, 0x4000000 + Addr(i) * 512);
    }
}

/** A synchronization kernel on `cores` cores: `load` installs it, and
 *  after a run `result` must read `expect` (mutual exclusion held, no
 *  task lost or duplicated). */
struct SyncKernel
{
    const char *name;
    unsigned cores;
    uint64_t expect;
    std::function<void(System &)> load;
    std::function<uint64_t(const System &)> result;
};

SyncKernel
dekkerKernel()
{
    GuestLayout mem;
    const DekkerLayout dk = allocDekker(mem);
    const unsigned iters = 40;
    return {"dekker", 2, 2 * iters,
            [=](System &sys) {
                for (unsigned i = 0; i < 2; i++)
                    sys.loadProgram(
                        NodeId(i),
                        share(buildDekkerProgram(dk, i, iters, 0)));
            },
            [=](const System &sys) {
                return sys.debugReadWord(dk.counterAddr);
            }};
}

SyncKernel
bakeryKernel()
{
    GuestLayout mem;
    const unsigned threads = 3, iters = 12;
    const BakeryLayout bk = allocBakery(mem, threads);
    return {"bakery", threads, uint64_t(threads) * iters,
            [=](System &sys) {
                for (unsigned i = 0; i < threads; i++) {
                    sys.loadProgram(
                        NodeId(i),
                        share(buildBakeryProgram(bk, i, iters, 20, 0)));
                    sys.core(NodeId(i)).setReg(regs::tid, i);
                    sys.core(NodeId(i)).setReg(regs::nthreads, threads);
                }
            },
            [=](const System &sys) {
                return sys.debugReadWord(bk.counterAddr);
            }};
}

SyncKernel
tlrwKernel()
{
    GuestLayout mem;
    const TlrwTable table = allocTlrwTable(mem, 4, 2);
    const int iters = 10;
    return {"tlrw", 2, uint64_t(2 * iters),
            [=](System &sys) {
                auto prog = share(tlrwWriterProgram(table, iters));
                sys.loadProgram(0, prog);
                sys.loadProgram(1, prog);
            },
            [=](const System &sys) {
                return sys.debugReadWord(table.dataAddr(0));
            }};
}

SyncKernel
dequeKernel()
{
    GuestLayout mem;
    const TheDeque q = allocTheDeque(mem, 64);
    std::vector<uint64_t> tasks;
    uint64_t task_sum = 0;
    for (uint64_t i = 1; i <= 24; i++) {
        tasks.push_back(i);
        task_sum += i;
    }
    return {"deque", 2, task_sum,
            [=](System &sys) {
                seedDeque(sys.memory(), q, tasks);
                sys.loadProgram(0, share(dequeOwnerProgram(q, 0x8000)));
                sys.loadProgram(1,
                                share(dequeThiefProgram(q, 0x8040, 120)));
            },
            [](const System &sys) {
                return sys.debugReadWord(0x8000) + sys.debugReadWord(0x8040);
            }};
}

/** Contended kernels put sleep and wake replay around real coherence
 *  traffic: `k` must keep its functional result and match the
 *  reference mode exactly under every design. */
void
expectKernelBitIdenticalAcrossDesigns(const SyncKernel &k)
{
    for (FenceDesign design : allFenceDesigns) {
        const std::string what =
            std::string(k.name) + " " + fenceDesignName(design);
        RunOutcome outcomes[2];
        for (bool ff : {false, true}) {
            SystemConfig cfg = smallConfig(design, k.cores);
            cfg.fastForward = ff;
            System sys(cfg);
            k.load(sys);
            outcomes[ff] = harvest(sys);
            EXPECT_EQ(k.result(sys), k.expect) << what << " ff " << ff;
        }
        EXPECT_EQ(outcomes[1].cycles, outcomes[0].cycles) << what;
        EXPECT_EQ(outcomes[1].instrRetired, outcomes[0].instrRetired)
            << what;
        EXPECT_EQ(outcomes[1].statsJson, outcomes[0].statsJson) << what;
    }
}

} // namespace

TEST(FastForward, TwoCoreFenceWorkloadBitIdentical)
{
    RunOutcome outcomes[2];
    for (bool ff : {false, true}) {
        SystemConfig cfg = smallConfig(FenceDesign::SPlus, 2);
        cfg.fastForward = ff;
        System sys(cfg);
        loadFenceMiss(sys, 2, 50);
        outcomes[ff] = harvest(sys);
    }
    const RunOutcome &off = outcomes[0], &on = outcomes[1];

    EXPECT_EQ(off.fastForwardedCycles, 0u);
    // The workload is stall-dominated: if fast-forward never engaged,
    // the test is vacuous and the optimization silently regressed.
    EXPECT_GT(on.fastForwardedCycles, 0u)
        << "fast-forward never engaged on an idle-heavy workload";

    EXPECT_EQ(on.cycles, off.cycles);
    EXPECT_EQ(on.instrRetired, off.instrRetired);
    EXPECT_EQ(on.statsJson, off.statsJson)
        << "fast-forward changed a simulated statistic";
}

TEST(FastForward, BusyWorkloadUnaffected)
{
    // A never-idle spin loop: fast-forward must stay out of the way and
    // change nothing.
    RunOutcome outcomes[2];
    for (bool ff : {false, true}) {
        SystemConfig cfg = smallConfig(FenceDesign::SPlus, 1);
        cfg.fastForward = ff;
        System sys(cfg);
        Assembler a("spin");
        a.li(4, 0);
        a.li(5, 2000);
        a.bind("loop");
        a.ld(2, 1, 0);
        a.addi(2, 2, 1);
        a.st(1, 0, 2);
        a.addi(4, 4, 1);
        a.blt(4, 5, "loop");
        a.halt();
        sys.loadProgram(0, share(a.finish()));
        sys.core(0).setReg(1, 0x1000);
        outcomes[ff] = harvest(sys);
    }
    EXPECT_EQ(outcomes[1].cycles, outcomes[0].cycles);
    EXPECT_EQ(outcomes[1].instrRetired, outcomes[0].instrRetired);
    EXPECT_EQ(outcomes[1].statsJson, outcomes[0].statsJson);
}

TEST(FastForward, FuzzProgramsBitIdenticalAcrossDesigns)
{
    // Randomized fence-disciplined programs: every design, two seeds,
    // padded and packed layouts. Stats must match exactly with
    // fast-forward on vs off in every combination.
    for (FenceDesign design : allFenceDesigns) {
        for (uint64_t seed : {5ull, 17ull}) {
            for (bool packed : {false, true}) {
                FuzzConfig fc;
                fc.numThreads = 4;
                fc.numLocations = 8;
                fc.rounds = 8;
                fc.packLocations = packed;
                fc.seed = seed;
                FuzzSetup setup = buildFuzz(fc);

                RunOutcome outcomes[2];
                for (bool ff : {false, true}) {
                    SystemConfig cfg = smallConfig(design, 4);
                    cfg.fastForward = ff;
                    System sys(cfg);
                    for (unsigned t = 0; t < fc.numThreads; t++)
                        sys.loadProgram(
                            NodeId(t),
                            share(Program(setup.programs[t])));
                    outcomes[ff] = harvest(sys);
                }
                EXPECT_EQ(outcomes[1].cycles, outcomes[0].cycles)
                    << fenceDesignName(design) << " seed " << seed
                    << (packed ? " packed" : " padded");
                EXPECT_EQ(outcomes[1].statsJson, outcomes[0].statsJson)
                    << fenceDesignName(design) << " seed " << seed
                    << (packed ? " packed" : " padded");
            }
        }
    }
}

TEST(FastForward, DekkerKernelBitIdenticalAcrossDesigns)
{
    expectKernelBitIdenticalAcrossDesigns(dekkerKernel());
}

TEST(FastForward, BakeryKernelBitIdenticalAcrossDesigns)
{
    expectKernelBitIdenticalAcrossDesigns(bakeryKernel());
}

TEST(FastForward, TlrwKernelBitIdenticalAcrossDesigns)
{
    expectKernelBitIdenticalAcrossDesigns(tlrwKernel());
}

TEST(FastForward, TheDequeKernelBitIdenticalAcrossDesigns)
{
    expectKernelBitIdenticalAcrossDesigns(dequeKernel());
}
