/**
 * @file
 * asf_fence_synth - automatic asymmetric-fence synthesis front end.
 *
 * Takes an unfenced corpus kit, derives the TSO delay set by static
 * critical-cycle analysis, places fences by weighted greedy cover,
 * assigns asymmetric roles, then (by default) minimizes the placement
 * with the axiomatic checker in the loop and verifies the survivors
 * across every fence design.
 *
 *   asf_fence_synth --kit sb
 *   asf_fence_synth --kit dekker --json dekker.json --disasm
 *   asf_fence_synth --kit deque --profile fences.jsonl
 *   asf_fence_synth --list
 *
 * Exit status: 0 when the final placement passes the verification
 * matrix, 1 when it does not, 2 on usage errors.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "analysis/corpus.hh"
#include "harness/report.hh"
#include "sim/logging.hh"

using namespace asf;
using namespace asf::analysis;

namespace
{

struct Options
{
    std::string kit;
    std::string json;    ///< placement + minimization report path
    std::string profile; ///< fence-profile JSONL for thread weights
    bool minimize = true;
    bool weaken = false; ///< also try Noncritical -> Critical flips
    bool disasm = false;
};

[[noreturn]] void
usage(int code)
{
    std::fprintf(
        stderr,
        "usage: asf_fence_synth --kit NAME [options]\n"
        "  --kit NAME        corpus kit to synthesize for (--list)\n"
        "  --list            list available kits\n"
        "  --json PATH       write the machine-readable placement +\n"
        "                    minimization report\n"
        "  --profile PATH    fence-profile JSONL (asf_sim "
        "--fence-profile);\n"
        "                    dynamic fence counts pick the critical "
        "thread\n"
        "  --no-minimize     keep the raw static placement\n"
        "  --weaken          also try flipping kept noncritical fences "
        "to the\n"
        "                    cheap critical flavor\n"
        "  --disasm          print the fenced programs\n");
    std::exit(code);
}

Options
parse(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; i++) {
        auto need = [&](const char *flag) -> const char * {
            if (i + 1 >= argc)
                fatal("%s needs a value", flag);
            return argv[++i];
        };
        auto eq_form = [&](const char *flag) -> const char * {
            size_t n = std::strlen(flag);
            if (!std::strncmp(argv[i], flag, n) && argv[i][n] == '=')
                return argv[i] + n + 1;
            return nullptr;
        };
        if (!std::strcmp(argv[i], "--kit"))
            opt.kit = need("--kit");
        else if (const char *v = eq_form("--kit"))
            opt.kit = v;
        else if (!std::strcmp(argv[i], "--json"))
            opt.json = need("--json");
        else if (const char *v = eq_form("--json"))
            opt.json = v;
        else if (!std::strcmp(argv[i], "--profile"))
            opt.profile = need("--profile");
        else if (const char *v = eq_form("--profile"))
            opt.profile = v;
        else if (!std::strcmp(argv[i], "--no-minimize"))
            opt.minimize = false;
        else if (!std::strcmp(argv[i], "--weaken"))
            opt.weaken = true;
        else if (!std::strcmp(argv[i], "--disasm"))
            opt.disasm = true;
        else if (!std::strcmp(argv[i], "--list")) {
            for (const std::string &n : corpusNames()) {
                CorpusEntry e = buildCorpusEntry(n);
                std::printf("%-10s %zu threads, %u hand fences - %s\n",
                            n.c_str(), e.threads.size(),
                            e.handFenceCount(),
                            e.description.c_str());
            }
            std::exit(0);
        } else if (!std::strcmp(argv[i], "--help") ||
                   !std::strcmp(argv[i], "-h")) {
            usage(0);
        } else {
            std::fprintf(stderr, "unknown option '%s'\n", argv[i]);
            usage(2);
        }
    }
    if (opt.kit.empty()) {
        std::fprintf(stderr, "--kit is required\n");
        usage(2);
    }
    return opt;
}

/** Run the full (design x seed) matrix over a placement; true when no
 *  run convicts. Used for --no-minimize, where the minimizer's own
 *  final verification does not happen. */
bool
verifyPlacement(const CorpusEntry &entry,
                const std::vector<std::shared_ptr<const Program>> &progs,
                std::string &evidence)
{
    MinimizeOptions mo = entry.minimizeOptions();
    for (FenceDesign d : allFenceDesigns) {
        for (uint64_t seed : mo.seeds) {
            check::BatchRunSpec spec;
            spec.programs = progs;
            spec.design = d;
            spec.systemSeed = seed;
            spec.maxCycles = mo.maxCycles;
            spec.watchdogCycles = mo.watchdogCycles;
            spec.requireSc =
                entry.property == MinimizeProperty::ScEquivalence;
            spec.setup = entry.setup;
            spec.invariant = entry.invariant;
            check::BatchVerdict v = check::runCheckedExecution(spec);
            if (v.convicted()) {
                evidence = std::string(v.evidence()) + " under " +
                           fenceDesignName(d) + " seed " +
                           std::to_string(seed);
                return false;
            }
        }
    }
    return true;
}

void
printDisasm(const std::vector<std::shared_ptr<const Program>> &progs,
            const std::vector<std::vector<FenceInsertion>> &insertions)
{
    for (size_t t = 0; t < progs.size(); t++) {
        const Program &p = *progs[t];
        std::printf("thread %zu: %s\n", t, p.name.c_str());
        // Sorted insertion k lands at output pc beforePc + k.
        const auto &ins = insertions[t];
        size_t next = 0;
        for (uint64_t pc = 0; pc < p.size(); pc++) {
            bool synthesized =
                next < ins.size() && pc == ins[next].beforePc + next;
            if (synthesized)
                next++;
            std::printf("  %3llu  %-28s%s\n", (unsigned long long)pc,
                        p.at(pc).toString().c_str(),
                        synthesized ? "  ; synthesized" : "");
        }
    }
}

} // namespace

int
main(int argc, char **argv)
{
    setVerbose(false);
    Options opt = parse(argc, argv);

    CorpusEntry entry = buildCorpusEntry(opt.kit);
    std::printf("kit %s: %zu threads, %u hand-placed fences\n",
                opt.kit.c_str(), entry.threads.size(),
                entry.handFenceCount());

    SynthOptions sopt;
    if (!opt.profile.empty())
        sopt.threadWeight = profileThreadWeights(
            opt.profile, unsigned(entry.threads.size()));

    SynthResult synth = synthesize(entry.threads, sopt);
    size_t covered = synth.pairs.size() - synth.precovered.size();
    std::printf("delay set: %zu pairs (%zu precovered by existing "
                "ordering points)\n",
                synth.pairs.size(), synth.precovered.size());
    std::printf("placement: %zu fences for %zu pairs, critical thread "
                "%u\n",
                synth.fences.size(), covered, synth.criticalThread);
    for (const PlacedFence &f : synth.fences)
        std::printf("  t%u before pc %llu  %-11s weight %g  (%s)\n",
                    f.thread, (unsigned long long)f.beforePc,
                    fenceRoleName(f.role), f.weight,
                    synth.input[f.thread]->at(f.beforePc)
                        .toString()
                        .c_str());

    bool verified;
    std::string evidence;
    MinimizeResult min;
    if (opt.minimize) {
        MinimizeOptions mo = entry.minimizeOptions();
        mo.tryWeaken = opt.weaken;
        min = minimize(synth, mo);
        unsigned final_count = 0;
        for (const auto &th : min.insertions)
            final_count += unsigned(th.size());
        std::printf("minimize: kept %u, dropped %u, weakened %u "
                    "(%u checked runs); final placement: %u fences\n",
                    min.kept, min.dropped, min.weakened, min.runs,
                    final_count);
        verified = min.finalPlacementPassed;
        if (!verified)
            evidence = "minimizer's final verification matrix convicted";
    } else {
        verified = verifyPlacement(entry, synth.fenced, evidence);
    }
    std::printf("verification (5 designs x 2 seeds): %s%s%s\n",
                verified ? "pass" : "FAIL",
                evidence.empty() ? "" : " - ",
                evidence.c_str());

    if (opt.disasm)
        printDisasm(opt.minimize ? min.fenced : synth.fenced,
                    opt.minimize ? min.insertions : synth.insertions);

    if (!opt.json.empty()) {
        std::ostringstream placement, minimized;
        writePlacementJson(synth, placement);
        if (opt.minimize)
            writeMinimizeJson(min, minimized);
        std::ofstream f(opt.json);
        if (!f)
            fatal("cannot write '%s'", opt.json.c_str());
        harness::JsonWriter w(f);
        w.beginObject();
        w.field("schemaVersion", 1);
        w.field("kit", opt.kit);
        w.field("description", entry.description);
        w.field("handFences", entry.handFenceCount());
        w.field("verified", verified);
        w.key("placement").raw(placement.str());
        if (opt.minimize)
            w.key("minimize").raw(minimized.str());
        w.endObject();
        f << '\n';
    }
    return verified ? 0 : 1;
}
