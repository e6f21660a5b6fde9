/**
 * @file
 * asf_sim - command-line front end for the simulator.
 *
 * Runs any built-in workload under any fence design and prints the
 * cycle breakdown, guest progress counters, and fence characterization.
 *
 *   asf_sim --workload ustm:Hash --design W+ --cores 8 --cycles 300000
 *   asf_sim --workload cilk:heat --design WS+ --stats
 *   asf_sim --workload stamp:intruder --design Wee --csv
 *   asf_sim --list
 */

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "analysis/corpus.hh"
#include "harness/cli.hh"
#include "harness/experiment.hh"
#include "harness/sweep.hh"
#include "service/spec.hh"
#include "sim/logging.hh"

using namespace asf;
using namespace asf::harness;
using namespace asf::workloads;

namespace
{

struct Options
{
    std::string workload = "ustm:Hash";
    FenceDesign design = FenceDesign::SPlus;
    unsigned cores = 8;
    Tick cycles = 300'000; ///< budget (throughput) or cap (completion)
    bool allDesigns = false;
    bool csv = false;
    bool dumpStats = false;
    std::string synthKit;  ///< --synth kit name ("" = off)
    bool noMinimize = false; ///< --no-minimize: run the raw placement
    RunFlags run;
};

void
listWorkloads()
{
    std::printf("cilk: ");
    for (const auto &a : cilkApps())
        std::printf("%s ", a.name.c_str());
    std::printf("\nustm: ");
    for (const auto &b : ustmBenches())
        std::printf("%s ", b.name.c_str());
    std::printf("\nstamp: ");
    for (const auto &a : stampApps())
        std::printf("%s ", a.bench.name.c_str());
    std::printf("\nsynth: ");
    for (const auto &n : analysis::corpusNames())
        std::printf("%s ", n.c_str());
    std::printf("\n");
}

Options
parse(int argc, char **argv)
{
    Options opt;
    Cli cli("usage: asf_sim [options]");
    cli.text("--workload", "GROUP:NAME",
             "cilk:APP | ustm:BENCH | stamp:APP (default ustm:Hash)",
             opt.workload)
        .option("--design", "D", "S+ | WS+ | SW+ | W+ | Wee (default S+)",
                "one of S+ WS+ SW+ W+ Wee",
                [&opt](const std::string &v) {
                    auto d = tryParseFenceDesign(v);
                    if (d)
                        opt.design = *d;
                    return d.has_value();
                })
        .flag("--all-designs", "run every design and compare",
              opt.allDesigns)
        .count("--cores", "N", "number of cores (default 8)", opt.cores, 1,
               64)
        .count("--cycles", "N",
               "cycle budget (default 300000; a completion cap of 100x\n"
               "that for cilk and stamp)",
               opt.cycles)
        .flag("--stats", "dump per-core statistic counters to stderr",
              opt.dumpStats)
        .text("--synth", "KIT",
              "synthesize fences for a corpus kit and run + check it\n"
              "(overrides --workload; asf_fence_synth --list names kits)",
              opt.synthKit)
        .flag("--no-minimize",
              "with --synth, skip checker-guided minimization",
              opt.noMinimize)
        .flag("--csv", "machine-readable output", opt.csv)
        .flag("--list", "list available workloads", [] {
            listWorkloads();
            std::exit(0);
        });
    addRunFlags(cli, opt.run);
    cli.parse(argc, argv);
    return opt;
}

ExperimentResult
runOne(const Options &opt, FenceDesign design)
{
    service::ExperimentSpec spec;
    spec.workload = opt.synthKit.empty() ? opt.workload
                                         : "synth:" + opt.synthKit;
    spec.design = design;
    spec.cores = opt.cores;
    spec.cycles = opt.cycles;
    spec.minimize = !opt.noMinimize;
    return service::runSpec(spec,
                            opt.dumpStats ? &std::cerr : nullptr);
}

void
printResult(const Options &opt, const ExperimentResult &r)
{
    if (opt.csv) {
        std::printf("%s,%s,%u,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%s\n",
                    r.workload.c_str(), fenceDesignName(r.design),
                    r.cores, (unsigned long long)r.cycles,
                    (unsigned long long)r.breakdown.busy,
                    (unsigned long long)r.breakdown.otherStall,
                    (unsigned long long)r.breakdown.fenceStall,
                    (unsigned long long)r.commits,
                    (unsigned long long)r.tasks,
                    (unsigned long long)r.wPlusRecoveries,
                    r.valid ? "ok" : r.validationError.c_str());
        return;
    }
    std::printf("workload %s under %s on %u cores: %llu cycles (%s)\n",
                r.workload.c_str(), fenceDesignName(r.design), r.cores,
                (unsigned long long)r.cycles,
                r.valid ? "validated" : r.validationError.c_str());
    std::printf("  busy %5.1f%%   other stall %5.1f%%   fence stall "
                "%5.1f%%\n",
                100.0 * r.breakdown.busyFrac(),
                100.0 * r.breakdown.otherFrac(),
                100.0 * r.breakdown.fenceFrac());
    if (r.commits)
        std::printf("  %llu txns committed (%.2f per kcycle), %llu "
                    "aborts\n",
                    (unsigned long long)r.commits,
                    r.throughputTxnPerKcycle(),
                    (unsigned long long)r.aborts);
    if (r.tasks)
        std::printf("  %llu tasks executed, %llu stolen\n",
                    (unsigned long long)r.tasks,
                    (unsigned long long)r.steals);
    std::printf("  fences: %llu strong, %llu weak (%.2f lines/BS, %.4f "
                "bounced writes/wf, %llu W+ recoveries)\n",
                (unsigned long long)r.fencesStrong,
                (unsigned long long)r.fencesWeak, r.bsLinesPerWf,
                r.fencesWeak ? double(r.bouncedWrites) /
                                   double(r.fencesWeak)
                             : 0.0,
                (unsigned long long)r.wPlusRecoveries);
    std::printf("  network: %llu base bytes, +%.3f%% retry/GRT "
                "overhead\n",
                (unsigned long long)r.bytesBase, r.trafficOverheadPct());
    if (!r.checkVerdict.empty())
        std::printf("  execution check: %s\n", r.checkVerdict.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    setVerbose(false);
    Options opt = parse(argc, argv);
    applyRunFlags(opt.run);

    if (opt.csv)
        std::printf("workload,design,cores,cycles,busy,otherStall,"
                    "fenceStall,commits,tasks,recoveries,status\n");

    if (opt.allDesigns) {
        if (opt.dumpStats && opt.run.jobs > 1) {
            warn("--stats writes to stderr as it runs; using 1 job");
            opt.run.jobs = 1;
        }
        std::vector<SweepJob> sweep;
        for (FenceDesign d : allFenceDesigns)
            sweep.push_back([&opt, d] { return runOne(opt, d); });
        for (const ExperimentResult &r : runSweep(sweep, opt.run.jobs))
            printResult(opt, r);
    } else {
        printResult(opt, runOne(opt, opt.design));
    }
    return 0;
}
