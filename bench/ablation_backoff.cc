/**
 * @file
 * Ablation: bounced-write retry backoff. Aggressive retries add network
 * traffic (Table 4's overhead column); lazy retries stretch fence
 * groups. Sweeps the linear-backoff base.
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

    Table table({"backoffBase", "bench", "txnPerKcycle", "retries/wr",
                 "trafficIncr%"});

    std::vector<SweepJob> sweep;
    for (Tick base : {4u, 8u, 16u, 32u, 64u}) {
        for (const char *name : {"Counter", "Hash"}) {
            SystemConfig machine;
            machine.design = FenceDesign::WSPlus;
            machine.retryBackoffBase = base;
            const TlrwBench &bench = ustmBenchByName(name);
            sweep.push_back([&bench, machine, run_cycles] {
                return runUstmExperiment(bench, machine, run_cycles);
            });
        }
    }
    std::vector<ExperimentResult> results = runSweep(sweep, opt.jobs);

    size_t ri = 0;
    for (Tick base : {4u, 8u, 16u, 32u, 64u}) {
        for (const char *name : {"Counter", "Hash"}) {
            const ExperimentResult &r = results[ri++];
            requireValid(r);
            table.addRow({std::to_string(base), name,
                          fmtDouble(r.throughputTxnPerKcycle()),
                          fmtDouble(r.retriesPerBouncedWrite, 2),
                          fmtDouble(r.trafficOverheadPct(), 3)});
        }
    }

    emit(table, opt, "Ablation: bounce retry backoff under WS+");
    return 0;
}
