/**
 * @file
 * Ablation: Bypass Set capacity. The paper fixes 32 entries; this sweep
 * shows where smaller BSes start degrading W+ (full-BS holds force
 * strong-fence behavior for the overflowing loads).
 */

#include "bench_common.hh"

using namespace asf;
using namespace asf::bench;
using namespace asf::harness;
using namespace asf::workloads;

int
main(int argc, char **argv)
{
    BenchOptions opt = parseArgs(argc, argv);
    Tick run_cycles = opt.quick ? 80'000 : 250'000;

    Table table({"bsEntries", "bench", "txnPerKcycle", "bsFullHolds",
                 "fenceStallPct"});

    std::vector<SweepJob> sweep;
    for (unsigned bs : {1u, 2u, 4u, 8u, 16u, 32u}) {
        for (const char *name : {"ReadNWrite1", "Hash"}) {
            SystemConfig machine;
            machine.design = FenceDesign::WPlus;
            machine.bsEntries = bs;
            const TlrwBench &bench = ustmBenchByName(name);
            sweep.push_back([&bench, machine, run_cycles] {
                return runUstmExperiment(bench, machine, run_cycles);
            });
        }
    }
    std::vector<ExperimentResult> results = runSweep(sweep, opt.jobs);

    size_t ri = 0;
    for (unsigned bs : {1u, 2u, 4u, 8u, 16u, 32u}) {
        for (const char *name : {"ReadNWrite1", "Hash"}) {
            const ExperimentResult &r = results[ri++];
            requireValid(r);
            table.addRow({std::to_string(bs), name,
                          fmtDouble(r.throughputTxnPerKcycle()),
                          std::to_string(r.bsFullHolds),
                          fmtDouble(100.0 * r.breakdown.fenceFrac(), 1)});
        }
    }

    emit(table, opt, "Ablation: Bypass Set capacity under W+");
    return 0;
}
