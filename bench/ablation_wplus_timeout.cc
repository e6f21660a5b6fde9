/**
 * @file
 * Ablation: W+ deadlock-suspicion timeout. Too short triggers spurious
 * rollbacks (busy-time inflation), too long leaves genuine deadlocks
 * stalled. The paper leaves this constant unspecified; 300 cycles is our
 * default.
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

    Table table({"timeout", "bench", "txnPerKcycle", "recoveries",
                 "recovPerWf"});

    std::vector<SweepJob> sweep;
    for (Tick timeout : {50u, 100u, 300u, 1000u, 3000u}) {
        for (const char *name : {"Counter", "TreeOverwrite"}) {
            SystemConfig machine;
            machine.design = FenceDesign::WPlus;
            machine.wPlusTimeout = timeout;
            const TlrwBench &bench = ustmBenchByName(name);
            sweep.push_back([&bench, machine, run_cycles] {
                return runUstmExperiment(bench, machine, run_cycles);
            });
        }
    }
    std::vector<ExperimentResult> results = runSweep(sweep, opt.jobs);

    size_t ri = 0;
    for (Tick timeout : {50u, 100u, 300u, 1000u, 3000u}) {
        for (const char *name : {"Counter", "TreeOverwrite"}) {
            const ExperimentResult &r = results[ri++];
            requireValid(r);
            double per_wf = r.fencesWeak
                                ? double(r.wPlusRecoveries) /
                                      double(r.fencesWeak)
                                : 0.0;
            table.addRow({std::to_string(timeout), name,
                          fmtDouble(r.throughputTxnPerKcycle()),
                          std::to_string(r.wPlusRecoveries),
                          fmtDouble(per_wf, 4)});
        }
    }

    emit(table, opt, "Ablation: W+ recovery timeout");
    return 0;
}
