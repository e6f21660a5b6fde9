/**
 * @file
 * Checker-guided fence minimization. Static synthesis (synth.hh) is
 * sound but over-approximates: unresolved addresses and infeasible
 * paths generate delay pairs — and therefore fences — that no real
 * execution needs. The minimizer prunes them with dynamic evidence:
 *
 *   greedily, most-expensive fence first, drop one fence and re-run
 *   the program under every (fence design x seed) in the matrix; the
 *   fence stays out only if no run convicts — no axiom violation from
 *   the PR-4 checker, no broken functional invariant, no livelock.
 *   Otherwise it is reinstated, with the convicting run recorded as
 *   its keep-evidence.
 *
 * Two property modes define "conviction":
 *  - ScEquivalence: the run must satisfy full SC (requireSc). Sound
 *    as an oracle precisely because the *starting* placement is
 *    delay-set covered (Shasha–Snir: TSO + delay-set fences == SC);
 *    an under-fenced run that exhibits TSO reordering convicts.
 *  - TsoPlusInvariant: TSO axioms plus a caller invariant (e.g. "the
 *    counter equals the iteration total"). For programs whose spec is
 *    weaker than SC equivalence.
 *
 * An optional second pass tries *weakening* instead of dropping:
 * flipping a kept Noncritical fence to Critical (the cheap flavor
 * under WS+/SW+), reverting on conviction — e.g. WS+'s one-weak-
 * fence-per-group restriction genuinely breaks in this simulator
 * when violated, and the checker catches it.
 *
 * The result is only as strong as the run matrix: a fence the matrix
 * never exercises can be dropped wrongly. That is the contract of
 * checker-guided minimization — widen designs/seeds for confidence.
 */

#ifndef ASF_ANALYSIS_MINIMIZE_HH
#define ASF_ANALYSIS_MINIMIZE_HH

#include "analysis/synth.hh"
#include "check/batch.hh"

namespace asf::harness
{
class JsonWriter;
}

namespace asf::service
{
class JsonValue;
}

namespace asf::analysis
{

enum class MinimizeProperty
{
    ScEquivalence,
    TsoPlusInvariant,
};

/** A new plain field must also go into minimizeInputText, or stored
 *  placements minimized under different values would alias. */
struct MinimizeOptions
{
    MinimizeProperty property = MinimizeProperty::ScEquivalence;
    /** Empty = all five designs. */
    std::vector<FenceDesign> designs;
    std::vector<uint64_t> seeds = {1, 2};
    unsigned cores = 0;
    Tick maxCycles = 2'000'000;
    Tick watchdogCycles = 250'000;
    std::function<void(System &)> setup;
    /** Required for TsoPlusInvariant; also honored under
     *  ScEquivalence when set. */
    std::function<bool(System &)> invariant;
    /** Run the Noncritical -> Critical weakening pass. */
    bool tryWeaken = false;
};

struct MinimizeDecision
{
    unsigned thread = 0;
    uint64_t beforePc = 0;
    enum class Action
    {
        Dropped,  ///< removed: no run convicted without it
        Kept,     ///< reinstated: see the evidence fields
        Weakened, ///< role flipped to Critical, no conviction
    };
    Action action = Action::Kept;
    /** Convicting run, when action == Kept (or a weakening attempt
     *  was reverted: `weakenReverted` with its own evidence). */
    FenceDesign evidenceDesign = FenceDesign::SPlus;
    uint64_t evidenceSeed = 0;
    std::string evidence; ///< axiom / "invariant" / "watchdog" / ...
    bool weakenTried = false;
    bool weakenReverted = false;
    std::string weakenEvidence;
};

struct MinimizeResult
{
    /** Final per-thread placements (subset of the synth input). */
    Placement insertions;
    /** Input programs with the final placements spliced in. */
    std::vector<std::shared_ptr<const Program>> fenced;
    std::vector<MinimizeDecision> decisions;
    unsigned kept = 0;
    unsigned dropped = 0;
    unsigned weakened = 0;
    unsigned runs = 0; ///< total simulated executions spent

    /** The full run matrix passed with the final placement. */
    bool finalPlacementPassed = false;
};

/** Minimize a synthesized placement against dynamic evidence. */
MinimizeResult minimize(const SynthResult &synth,
                        const MinimizeOptions &opt = {});

/** Append the minimization story to a placement report stream. */
void writeMinimizeJson(const MinimizeResult &res, std::ostream &os);

/** `input` with `placement` spliced in; a thread without fences keeps
 *  its input program (how MinimizeResult::fenced is built). */
std::vector<std::shared_ptr<const Program>>
applyPlacement(const std::vector<std::shared_ptr<const Program>> &input,
               const Placement &placement);

/**
 * Everything but the programs and hooks that decides minimize()'s
 * placement: the synthesized insertions and every plain
 * MinimizeOptions field, one `name value` line each. A stored
 * placement is keyed by it (service/result_cache.hh). The matrix's
 * designs are listed even when `opt.designs` is empty, so "all five"
 * has one spelling.
 */
std::string minimizeInputText(const Placement &synthesized,
                              const MinimizeOptions &opt);

/** Write a placement as a JSON array of {thread, beforePc, role}. */
void writePlacement(harness::JsonWriter &w, const Placement &p);

/**
 * Read what writePlacement wrote as a minimized placement of `synth`.
 * False, with `error`, unless every entry is well formed, its thread
 * and beforePc are in range for synth.input, each thread's fences are
 * in increasing pc order, and each sits on a synthesized site (the
 * minimizer only drops or weakens those).
 */
bool readPlacement(const service::JsonValue &v, const SynthResult &synth,
                   Placement &out, std::string &error);

} // namespace asf::analysis

#endif // ASF_ANALYSIS_MINIMIZE_HH
