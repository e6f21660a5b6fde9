#include "analysis/minimize.hh"

#include <algorithm>
#include <sstream>

#include "harness/report.hh"
#include "service/json.hh"
#include "sim/logging.hh"

namespace asf::analysis
{

namespace
{

/** A removable/weakenable fence: position within the working
 *  placement, identified by (thread, beforePc). */
struct Site
{
    unsigned thread;
    uint64_t beforePc;
    double weight;
};

/** The run matrix's designs: all five when none are named. */
std::vector<FenceDesign>
matrixDesigns(const MinimizeOptions &opt)
{
    if (!opt.designs.empty())
        return opt.designs;
    return {std::begin(allFenceDesigns), std::end(allFenceDesigns)};
}

} // namespace

std::vector<std::shared_ptr<const Program>>
applyPlacement(const std::vector<std::shared_ptr<const Program>> &input,
               const Placement &placement)
{
    std::vector<std::shared_ptr<const Program>> out(input.size());
    for (size_t t = 0; t < input.size(); t++) {
        out[t] = placement[t].empty()
                     ? input[t]
                     : std::make_shared<const Program>(
                           insertFences(*input[t], placement[t]));
    }
    return out;
}

MinimizeResult
minimize(const SynthResult &synth, const MinimizeOptions &opt)
{
    if (opt.property == MinimizeProperty::TsoPlusInvariant &&
        !opt.invariant)
        fatal("minimize: TsoPlusInvariant needs an invariant");

    std::vector<FenceDesign> designs = matrixDesigns(opt);

    MinimizeResult res;
    res.insertions = synth.insertions;

    // One checked run of the current working placement; fills
    // evidence fields on conviction.
    auto convicts = [&](const Placement &placement,
                        FenceDesign &ev_design, uint64_t &ev_seed,
                        std::string &ev_what) {
        auto progs = applyPlacement(synth.input, placement);
        for (FenceDesign d : designs) {
            for (uint64_t seed : opt.seeds) {
                check::BatchRunSpec spec;
                spec.programs = progs;
                spec.design = d;
                spec.cores = opt.cores;
                spec.systemSeed = seed;
                spec.maxCycles = opt.maxCycles;
                spec.watchdogCycles = opt.watchdogCycles;
                spec.requireSc =
                    opt.property == MinimizeProperty::ScEquivalence;
                spec.setup = opt.setup;
                spec.invariant = opt.invariant;
                check::BatchVerdict v =
                    check::runCheckedExecution(spec);
                res.runs++;
                if (v.convicted()) {
                    ev_design = d;
                    ev_seed = seed;
                    ev_what = v.evidence();
                    return true;
                }
            }
        }
        return false;
    };

    // Drop pass, most expensive fence first: the savings are largest
    // and a hot fence's absence is also the easiest to convict.
    std::vector<Site> sites;
    for (const PlacedFence &f : synth.fences)
        sites.push_back({f.thread, f.beforePc, f.weight});
    std::sort(sites.begin(), sites.end(),
              [](const Site &a, const Site &b) {
                  if (a.weight != b.weight)
                      return a.weight > b.weight;
                  if (a.thread != b.thread)
                      return a.thread < b.thread;
                  return a.beforePc < b.beforePc;
              });

    for (const Site &s : sites) {
        auto &th = res.insertions[s.thread];
        auto it = std::find_if(th.begin(), th.end(),
                               [&](const FenceInsertion &f) {
                                   return f.beforePc == s.beforePc;
                               });
        if (it == th.end())
            continue; // collapsed with another site already
        auto candidate = res.insertions;
        auto &cth = candidate[s.thread];
        cth.erase(cth.begin() + (it - th.begin()));

        MinimizeDecision d;
        d.thread = s.thread;
        d.beforePc = s.beforePc;
        if (convicts(candidate, d.evidenceDesign, d.evidenceSeed,
                     d.evidence)) {
            d.action = MinimizeDecision::Action::Kept;
            res.kept++;
        } else {
            d.action = MinimizeDecision::Action::Dropped;
            res.insertions = std::move(candidate);
            res.dropped++;
        }
        res.decisions.push_back(std::move(d));
    }

    // Weakening pass: try the cheap flavor for surviving Noncritical
    // fences, one at a time, reverting on conviction.
    if (opt.tryWeaken) {
        for (MinimizeDecision &d : res.decisions) {
            if (d.action != MinimizeDecision::Action::Kept)
                continue;
            auto &th = res.insertions[d.thread];
            auto it = std::find_if(th.begin(), th.end(),
                                   [&](const FenceInsertion &f) {
                                       return f.beforePc == d.beforePc;
                                   });
            if (it == th.end() || it->role == FenceRole::Critical)
                continue;
            d.weakenTried = true;
            it->role = FenceRole::Critical;
            FenceDesign wd;
            uint64_t ws;
            if (convicts(res.insertions, wd, ws, d.weakenEvidence)) {
                it->role = FenceRole::Noncritical;
                d.weakenReverted = true;
            } else {
                d.action = MinimizeDecision::Action::Weakened;
                res.weakened++;
            }
        }
    }

    res.fenced = applyPlacement(synth.input, res.insertions);
    {
        FenceDesign fd;
        uint64_t fs;
        std::string fe;
        res.finalPlacementPassed = !convicts(res.insertions, fd, fs, fe);
    }
    return res;
}

void
writeMinimizeJson(const MinimizeResult &res, std::ostream &os)
{
    harness::JsonWriter w(os);
    w.beginObject();
    w.field("kept", res.kept);
    w.field("dropped", res.dropped);
    w.field("weakened", res.weakened);
    w.field("runs", res.runs);
    w.field("finalPlacementPassed", res.finalPlacementPassed);
    w.key("decisions").beginArray();
    for (const MinimizeDecision &d : res.decisions) {
        w.beginObject();
        w.field("thread", d.thread);
        w.field("beforePc", d.beforePc);
        const char *act =
            d.action == MinimizeDecision::Action::Dropped ? "dropped"
            : d.action == MinimizeDecision::Action::Kept ? "kept"
                                                         : "weakened";
        w.field("action", act);
        if (d.action == MinimizeDecision::Action::Kept) {
            w.field("evidence", d.evidence);
            w.field("evidenceDesign",
                    fenceDesignName(d.evidenceDesign));
            w.field("evidenceSeed", d.evidenceSeed);
        }
        if (d.weakenTried) {
            w.field("weakenReverted", d.weakenReverted);
            if (d.weakenReverted)
                w.field("weakenEvidence", d.weakenEvidence);
        }
        w.endObject();
    }
    w.endArray();
    w.endObject();
    os << '\n';
}

std::string
minimizeInputText(const Placement &synthesized, const MinimizeOptions &opt)
{
    std::ostringstream os;
    os << "threads " << synthesized.size() << '\n';
    for (size_t t = 0; t < synthesized.size(); t++)
        for (const FenceInsertion &f : synthesized[t])
            os << "fence " << t << ' ' << f.beforePc << ' '
               << fenceRoleName(f.role) << '\n';
    os << "property "
       << (opt.property == MinimizeProperty::ScEquivalence
               ? "ScEquivalence"
               : "TsoPlusInvariant")
       << "\ndesigns";
    for (FenceDesign d : matrixDesigns(opt))
        os << ' ' << fenceDesignName(d);
    os << "\nseeds";
    for (uint64_t seed : opt.seeds)
        os << ' ' << seed;
    os << "\ncores " << opt.cores << "\nmaxCycles " << opt.maxCycles
       << "\nwatchdogCycles " << opt.watchdogCycles << "\ntryWeaken "
       << opt.tryWeaken << '\n';
    return os.str();
}

void
writePlacement(harness::JsonWriter &w, const Placement &p)
{
    w.beginArray();
    for (size_t t = 0; t < p.size(); t++) {
        for (const FenceInsertion &f : p[t]) {
            w.beginObject();
            w.field("thread", uint64_t(t));
            w.field("beforePc", f.beforePc);
            w.field("role", fenceRoleName(f.role));
            w.endObject();
        }
    }
    w.endArray();
}

bool
readPlacement(const service::JsonValue &v, const SynthResult &synth,
              Placement &out, std::string &error)
{
    if (!v.isArray()) {
        error = "placement is not an array";
        return false;
    }
    // Non-integers and negatives read as out of range.
    auto index = [](const service::JsonValue &x) {
        return x.kind() == service::JsonValue::Kind::Int
                   ? x.asU64(UINT64_MAX)
                   : UINT64_MAX;
    };
    out.assign(synth.input.size(), {});
    for (const service::JsonValue &e : v.items()) {
        uint64_t t = index(e["thread"]);
        uint64_t pc = index(e["beforePc"]);
        const std::string &role = e["role"].asString();
        bool critical = role == fenceRoleName(FenceRole::Critical);
        if (t >= synth.input.size()) {
            error = format("thread %llu beyond the %zu threads",
                           (unsigned long long)t, synth.input.size());
            return false;
        }
        if (pc >= synth.input[t]->size()) {
            error = format("beforePc %llu past the end of thread %llu "
                           "(%zu instrs)",
                           (unsigned long long)pc, (unsigned long long)t,
                           synth.input[t]->size());
            return false;
        }
        if (!critical && role != fenceRoleName(FenceRole::Noncritical)) {
            error = format("unknown fence role '%s'", role.c_str());
            return false;
        }
        const auto &sites = synth.insertions[t];
        if (std::none_of(sites.begin(), sites.end(),
                         [&](const FenceInsertion &f) {
                             return f.beforePc == pc;
                         })) {
            error = format("thread %llu pc %llu is not a synthesized "
                           "fence site",
                           (unsigned long long)t, (unsigned long long)pc);
            return false;
        }
        if (!out[t].empty() && out[t].back().beforePc >= pc) {
            error = format("thread %llu fences out of pc order",
                           (unsigned long long)t);
            return false;
        }
        out[t].push_back(
            {pc, critical ? FenceRole::Critical : FenceRole::Noncritical});
    }
    return true;
}

} // namespace asf::analysis
