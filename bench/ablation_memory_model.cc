/**
 * @file
 * Ablation: TSO vs RC (paper Section 2.1). RC merges multiple writes
 * concurrently, so a conventional fence waits far less - which is
 * exactly the headroom the paper says TSO's one-at-a-time drain leaves
 * for weak fences to reclaim. Weak fences under RC fall back to strong
 * (Section 5.2 future work), so the comparison is S+ against S+.
 */

#include "bench_common.hh"

using namespace asf;
using namespace asf::bench;
using namespace asf::harness;
using namespace asf::workloads;

namespace
{

/** The S+ machine under `model` with `store_units` parallel drains. */
SystemConfig
modelMachine(MemoryModel model, unsigned store_units)
{
    SystemConfig m;
    m.design = FenceDesign::SPlus;
    m.memoryModel = model;
    m.storeUnits = store_units;
    return m;
}

} // namespace

int
main(int argc, char **argv)
{
    BenchOptions opt = parseArgs(argc, argv);
    Tick run_cycles = opt.quick ? 80'000 : 250'000;

    Table table({"bench", "model", "storeUnits", "txnPerKcycle",
                 "fenceStallPct", "vsTso"});

    std::vector<SweepJob> sweep;
    for (const char *name : {"Hash", "List", "ReadWriteN"}) {
        const TlrwBench &bench = ustmBenchByName(name);
        sweep.push_back([&bench, run_cycles] {
            return runUstmExperiment(
                bench, modelMachine(MemoryModel::TSO, 1), run_cycles);
        });
        for (unsigned units : {2u, 3u})
            sweep.push_back([&bench, units, run_cycles] {
                return runUstmExperiment(
                    bench, modelMachine(MemoryModel::RC, units), run_cycles);
            });
    }
    // Work-stealing tasks write multi-store result bursts: the place
    // where RC's parallel drain genuinely shortens the take() fence.
    for (const char *name : {"bucket", "heat", "plu"}) {
        CilkApp app = cilkAppByName(name);
        if (opt.quick) {
            app.spawnDepth = std::min(app.spawnDepth, 3u);
            app.initialTasks = std::min(app.initialTasks, 2u);
        }
        sweep.push_back([app] {
            return runCilkExperiment(app, modelMachine(MemoryModel::TSO, 1));
        });
        for (unsigned units : {2u, 3u})
            sweep.push_back([app, units] {
                return runCilkExperiment(
                    app, modelMachine(MemoryModel::RC, units));
            });
    }
    std::vector<ExperimentResult> results = runSweep(sweep, opt.jobs);

    size_t ri = 0;
    for (const char *name : {"Hash", "List", "ReadWriteN"}) {
        double tso_tp = 0;
        {
            const ExperimentResult &r = results[ri++];
            requireValid(r);
            tso_tp = r.throughputTxnPerKcycle();
            table.addRow({name, "TSO", "1", fmtDouble(tso_tp),
                          fmtDouble(100.0 * r.breakdown.fenceFrac(), 1),
                          "1.00"});
        }
        for (unsigned units : {2u, 3u}) {
            const ExperimentResult &r = results[ri++];
            requireValid(r);
            double tp = r.throughputTxnPerKcycle();
            table.addRow({name, "RC", std::to_string(units),
                          fmtDouble(tp),
                          fmtDouble(100.0 * r.breakdown.fenceFrac(), 1),
                          fmtDouble(tso_tp > 0 ? tp / tso_tp : 0.0)});
        }
    }

    for (const char *name : {"bucket", "heat", "plu"}) {
        double tso_time = 0;
        {
            const ExperimentResult &r = results[ri++];
            requireValid(r);
            tso_time = double(r.cycles);
            table.addRow({name, "TSO", "1", "-",
                          fmtDouble(100.0 * r.breakdown.fenceFrac(), 1),
                          "1.00"});
        }
        for (unsigned units : {2u, 3u}) {
            const ExperimentResult &r = results[ri++];
            requireValid(r);
            table.addRow({name, "RC", std::to_string(units), "-",
                          fmtDouble(100.0 * r.breakdown.fenceFrac(), 1),
                          fmtDouble(tso_time / double(r.cycles))});
        }
    }

    emit(table, opt,
         "Ablation: memory model - RC's parallel write drain vs TSO "
         "(conventional fences; vsTso is speedup)");
    return 0;
}
