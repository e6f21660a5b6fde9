/**
 * @file
 * Seeded job lists for the four benchmark workloads. The seed draws
 * every job: its named paper configuration, its fence design and a
 * change to its shape parameters that stays inside the range the named
 * configurations span. The simulator only ever receives the generated
 * configurations.
 */

#ifndef PERFBENCH_PLAN_HH
#define PERFBENCH_PLAN_HH

#include <cstdint>
#include <string>
#include <vector>

#include "service/spec.hh"
#include "workloads/cilk_apps.hh"
#include "workloads/stamp.hh"
#include "workloads/ustm.hh"

namespace perfbench
{

enum class Family
{
    Ustm,  ///< throughput mode: fixed cycle budget
    Cilk,  ///< run to completion
    Stamp, ///< run to completion (fixed transactions per thread)
};

/** One simulation job, run through harness::run{Ustm,Cilk,Stamp}Experiment. */
struct SimJob
{
    Family family = Family::Ustm;
    asf::workloads::TlrwBench tlrw{}; ///< Ustm and Stamp
    uint64_t txnsPerThread = 0;       ///< Stamp
    asf::workloads::CilkApp cilk{};   ///< Cilk
    asf::FenceDesign design = asf::FenceDesign::SPlus;
    unsigned cores = 8;
    /** Ustm: measured cycle budget; Cilk/Stamp: completion cap. */
    asf::Tick budget = 0;

    /** Workload name as the runner labels it ("Hash", "heat", ...). */
    const std::string &name() const;
};

struct Plan
{
    std::string workload;
    std::vector<SimJob> sim;                         ///< simulation workloads
    std::vector<asf::service::ExperimentSpec> synth; ///< synth-campaign
    size_t jobs() const { return sim.size() + synth.size(); }
};

/** The workload names, in presentation order. */
const std::vector<std::string> &workloadNames();

/**
 * Draw the job list of `workload` from `seed`. `smallest` keeps a few
 * jobs at toy sizes (the self-test); otherwise the full list is built.
 * Returns false for an unknown workload name.
 */
bool makePlan(const std::string &workload, uint64_t seed, bool smallest,
              Plan &out);

} // namespace perfbench

#endif // PERFBENCH_PLAN_HH
