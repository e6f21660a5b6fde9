/**
 * @file
 * Shared plumbing for the figure, table and ablation bench binaries:
 * the design list the paper plots, table output, and CLI handling
 * (--csv for machine-readable output, --quick for a reduced sweep, and
 * the run flags asf_sim shares, --jobs N among them).
 */

#ifndef ASF_BENCH_COMMON_HH
#define ASF_BENCH_COMMON_HH

#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "harness/cli.hh"
#include "harness/experiment.hh"
#include "harness/report.hh"
#include "harness/sweep.hh"
#include "sim/logging.hh"

namespace asf::bench
{

/** The designs the paper's figures plot, in bar order. */
inline const std::vector<FenceDesign> &
figureDesigns()
{
    static const std::vector<FenceDesign> designs = {
        FenceDesign::SPlus, FenceDesign::WSPlus, FenceDesign::WPlus,
        FenceDesign::Wee};
    return designs;
}

struct BenchOptions
{
    bool csv = false;
    bool quick = false;
    unsigned jobs = 1; ///< host worker threads for the config sweep
};

/**
 * Parse --csv, --quick and the shared run flags (harness/cli.hh), and
 * apply the run flags. A --quick sweep shrinks workloads whose shape
 * the cache key does not cover, so its results are filed under
 * `<cache-dir>/quick`, apart from the full sweep's.
 */
inline BenchOptions
parseArgs(int argc, char **argv)
{
    BenchOptions opt;
    harness::RunFlags run;
    harness::Cli cli(format("usage: %s [options]", argv[0]));
    cli.flag("--csv", "machine-readable table", opt.csv)
        .flag("--quick", "reduced sweep", opt.quick);
    harness::addRunFlags(cli, run);
    cli.parse(argc, argv);
    if (opt.quick && !run.cacheDir.empty())
        run.cacheDir =
            (std::filesystem::path(run.cacheDir) / "quick").string();
    harness::applyRunFlags(run);
    opt.jobs = run.jobs;
    setVerbose(false);
    return opt;
}

inline void
emit(const harness::Table &table, const BenchOptions &opt,
     const std::string &title)
{
    if (opt.csv) {
        table.printCsv(std::cout);
    } else {
        std::cout << "== " << title << " ==\n";
        table.print(std::cout);
        std::cout << "\n";
    }
}

inline void
requireValid(const harness::ExperimentResult &r)
{
    if (!r.valid)
        fatal("%s under %s failed validation: %s", r.workload.c_str(),
              fenceDesignName(r.design), r.validationError.c_str());
}

} // namespace asf::bench

#endif // ASF_BENCH_COMMON_HH
