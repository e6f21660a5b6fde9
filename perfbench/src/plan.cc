#include "plan.hh"

#include <algorithm>
#include <cmath>
#include <random>

#include "analysis/corpus.hh"

namespace perfbench
{

using namespace asf;

namespace
{

/** Measured cycle budget of one ustm-8c job (fig09 --quick uses 100k). */
constexpr Tick kUstmBudget = 50'000;
/** Completion cap of the run-to-completion jobs (the runners' default). */
constexpr Tick kCompletionCap = 30'000'000;
/** scale-32c sizes: Fig. 12's representatives, shrunk so one pass of
 *  twelve 32-core runs takes about as long as a pass of the 8-core
 *  workloads. */
constexpr Tick kScaleUstmBudget = 20'000;
constexpr unsigned kScaleCilkDepth = 2;
constexpr unsigned kScaleCilkInitialTasks = 4;
constexpr uint64_t kScaleStampTxns = 40;

const std::vector<FenceDesign> kFigureDesigns = {
    FenceDesign::SPlus, FenceDesign::WSPlus, FenceDesign::WPlus,
    FenceDesign::Wee};

/** Draws on the standard 64-bit engine, whose output the standard fixes
 *  (the library's distributions are implementation-defined). */
class Draw
{
  public:
    explicit Draw(uint64_t seed) : eng_(seed) {}

    uint64_t below(uint64_t n) { return eng_() % n; }
    /** Uniform in [-1, 1). */
    double symmetric() { return double(eng_() >> 11) * 0x1.0p-52 - 1.0; }

    template <class T>
    void shuffle(std::vector<T> &v)
    {
        for (size_t i = v.size(); i > 1; i--)
            std::swap(v[i - 1], v[below(i)]);
    }

  private:
    std::mt19937_64 eng_;
};

/**
 * A change to a configuration's shape parameters. Within one pass the
 * jobs that share a named configuration get changes that mirror each
 * other (a larger and a smaller orec table, a longer and a shorter task
 * grain), so a pass's total work stays close to that of the named
 * configurations whatever the seed; the seed draws which job gets which
 * change, and how large a grain or transaction-count change is.
 */
struct Shape
{
    int orecShift = 0;  ///< numOrecs * 2^orecShift
    int hotShift = 0;   ///< hotOrecs * 2^hotShift
    double scale = 0.0; ///< task grain / transactions * (1 + scale)
};

/** The four table-size changes a ustm bench gets, one per design. */
const std::vector<Shape> kTableShapes = {
    {1, 0, 0.0}, {-1, 0, 0.0}, {0, 1, 0.0}, {0, -1, 0.0}};

/** Inclusive range a parameter spans over a family's named configs. */
struct Range
{
    uint64_t lo = UINT64_MAX;
    uint64_t hi = 0;

    void add(uint64_t v)
    {
        lo = std::min(lo, v);
        hi = std::max(hi, v);
    }
    uint64_t clamp(uint64_t v) const { return std::clamp(v, lo, hi); }
};

/** A grain or transaction-count change of 5-25% and its mirror image,
 *  capped so that neither leaves `r` (which would break the mirror). */
std::vector<Shape>
scalePair(Draw &d, uint64_t v, const Range &r)
{
    double u = 0.05 + 0.1 * (d.symmetric() + 1.0);
    u = std::min({u, double(r.hi) / double(v) - 1.0,
                  1.0 - double(r.lo) / double(v)});
    std::vector<Shape> pair = {{0, 0, u}, {0, 0, -u}};
    d.shuffle(pair);
    return pair;
}

struct TlrwRanges
{
    Range orecs, hot, txns;
};

TlrwRanges
ustmRanges()
{
    TlrwRanges r;
    for (const auto &b : workloads::ustmBenches()) {
        r.orecs.add(b.numOrecs);
        if (b.hotOrecs)
            r.hot.add(b.hotOrecs);
    }
    return r;
}

TlrwRanges
stampRanges()
{
    TlrwRanges r;
    for (const auto &a : workloads::stampApps()) {
        r.orecs.add(a.bench.numOrecs);
        if (a.bench.hotOrecs)
            r.hot.add(a.bench.hotOrecs);
        r.txns.add(a.txnsPerThread);
    }
    return r;
}

uint64_t
shifted(uint64_t v, int shift)
{
    return shift >= 0 ? v << shift : v >> -shift;
}

uint64_t
scaled(uint64_t v, double scale)
{
    return uint64_t(std::llround(double(v) * (1.0 + scale)));
}

/** Orec and hot-orec counts stay powers of two (setupTlrwWorkload's
 *  constraint): the range ends are powers of two, and so is half of
 *  any orec count, which caps the hot subset below the table size. */
workloads::TlrwBench
reshapeTlrw(workloads::TlrwBench b, const Shape &s, const TlrwRanges &r)
{
    b.numOrecs = unsigned(r.orecs.clamp(shifted(b.numOrecs, s.orecShift)));
    if (b.hotOrecs) {
        Range hot = r.hot;
        hot.hi = std::min<uint64_t>(hot.hi, b.numOrecs / 2);
        hot.lo = std::min(hot.lo, hot.hi);
        b.hotOrecs = unsigned(hot.clamp(shifted(b.hotOrecs, s.hotShift)));
    }
    return b;
}

Range
grainRange()
{
    Range grain;
    for (const auto &a : workloads::cilkApps())
        grain.add(a.taskGrain);
    return grain;
}

workloads::CilkApp
reshapeCilk(workloads::CilkApp app, const Shape &s)
{
    app.taskGrain =
        unsigned(grainRange().clamp(scaled(app.taskGrain, s.scale)));
    return app;
}

SimJob
ustmJob(const workloads::TlrwBench &b, const Shape &s, FenceDesign d,
        unsigned cores, Tick budget)
{
    SimJob j;
    j.family = Family::Ustm;
    j.tlrw = reshapeTlrw(b, s, ustmRanges());
    j.design = d;
    j.cores = cores;
    j.budget = budget;
    return j;
}

SimJob
stampJob(const workloads::StampApp &a, const Shape &s, FenceDesign d,
         unsigned cores, uint64_t txns)
{
    TlrwRanges r = stampRanges();
    SimJob j;
    j.family = Family::Stamp;
    j.tlrw = reshapeTlrw(a.bench, s, r);
    j.txnsPerThread = r.txns.clamp(scaled(txns, s.scale));
    j.design = d;
    j.cores = cores;
    j.budget = kCompletionCap;
    return j;
}

SimJob
cilkJob(const workloads::CilkApp &a, const Shape &s, FenceDesign d,
        unsigned cores)
{
    SimJob j;
    j.family = Family::Cilk;
    j.cilk = reshapeCilk(a, s);
    j.design = d;
    j.cores = cores;
    j.budget = kCompletionCap;
    return j;
}

/** Fig. 9/10 traffic: every ustm bench under every figure design,
 *  each design with one of the bench's four table-size changes. */
std::vector<SimJob>
ustmPlan(Draw &d)
{
    std::vector<SimJob> jobs;
    for (const auto &b : workloads::ustmBenches()) {
        std::vector<FenceDesign> designs = kFigureDesigns;
        d.shuffle(designs);
        for (size_t i = 0; i < designs.size(); i++)
            jobs.push_back(
                ustmJob(b, kTableShapes[i], designs[i], 8, kUstmBudget));
    }
    d.shuffle(jobs);
    return jobs;
}

/** Two mirrored grain or transaction-count pairs, one change per design. */
std::vector<Shape>
scaleQuad(Draw &d, uint64_t v, const Range &r)
{
    std::vector<Shape> shapes = scalePair(d, v, r);
    std::vector<Shape> more = scalePair(d, v, r);
    shapes.insert(shapes.end(), more.begin(), more.end());
    d.shuffle(shapes);
    return shapes;
}

/** Fig. 8/11 traffic: every Cilk and STAMP app under every figure
 *  design, each design with one of the app's four grain or
 *  transaction-count changes. */
std::vector<SimJob>
completePlan(Draw &d)
{
    std::vector<SimJob> jobs;
    for (const auto &a : workloads::cilkApps()) {
        std::vector<Shape> shapes = scaleQuad(d, a.taskGrain, grainRange());
        for (size_t k = 0; k < kFigureDesigns.size(); k++)
            jobs.push_back(cilkJob(a, shapes[k], kFigureDesigns[k], 8));
    }
    for (const auto &a : workloads::stampApps()) {
        std::vector<Shape> shapes =
            scaleQuad(d, a.txnsPerThread, stampRanges().txns);
        for (size_t k = 0; k < kFigureDesigns.size(); k++)
            jobs.push_back(
                stampJob(a, shapes[k], kFigureDesigns[k], 8, a.txnsPerThread));
    }
    d.shuffle(jobs);
    return jobs;
}

/** Fig. 12 traffic: one representative per group at 32 cores under
 *  every figure design, as the figure plots them. */
std::vector<SimJob>
scalePlan(Draw &d)
{
    workloads::CilkApp heat = workloads::cilkAppByName("heat");
    heat.spawnDepth = kScaleCilkDepth;
    heat.initialTasks = kScaleCilkInitialTasks;
    const auto &hash = workloads::ustmBenchByName("Hash");
    const auto &intruder = workloads::stampAppByName("intruder");

    std::vector<SimJob> jobs;
    for (size_t group = 0; group < 3; group++) {
        // heat changes its grain; Hash and intruder (whose transaction
        // count already sits at the bottom of the STAMP range) change
        // their tables.
        std::vector<Shape> shapes = kTableShapes;
        if (group == 0)
            shapes = scaleQuad(d, heat.taskGrain, grainRange());
        else
            d.shuffle(shapes);
        for (size_t k = 0; k < kFigureDesigns.size(); k++) {
            if (group == 0)
                jobs.push_back(cilkJob(heat, shapes[k], kFigureDesigns[k], 32));
            else if (group == 1)
                jobs.push_back(ustmJob(hash, shapes[k], kFigureDesigns[k], 32,
                                       kScaleUstmBudget));
            else
                jobs.push_back(stampJob(intruder, shapes[k],
                                        kFigureDesigns[k], 32,
                                        kScaleStampTxns));
        }
    }
    d.shuffle(jobs);
    return jobs;
}

/** The synthesis corpus under all five designs, in seeded order. */
std::vector<service::ExperimentSpec>
synthPlan(Draw &d)
{
    std::vector<service::ExperimentSpec> specs;
    for (const std::string &kit : analysis::corpusNames()) {
        for (FenceDesign design : allFenceDesigns) {
            service::ExperimentSpec spec;
            spec.workload = "synth:" + kit;
            spec.design = design;
            specs.push_back(spec);
        }
    }
    d.shuffle(specs);
    return specs;
}

/** Toy sizes for the self-test: a few jobs, each a fraction of a second. */
void
shrink(Plan &p)
{
    constexpr size_t kSimJobs = 4;
    constexpr size_t kSynthJobs = 6;
    if (p.sim.size() > kSimJobs)
        p.sim.resize(kSimJobs);
    if (p.synth.size() > kSynthJobs)
        p.synth.resize(kSynthJobs);
    for (SimJob &j : p.sim) {
        j.cilk.spawnDepth = std::min(j.cilk.spawnDepth, 2u);
        j.cilk.initialTasks = std::min(j.cilk.initialTasks, 2u);
        j.txnsPerThread = std::min<uint64_t>(j.txnsPerThread, 8);
        if (j.family == Family::Ustm)
            j.budget = 5'000;
    }
}

} // namespace

const std::string &
SimJob::name() const
{
    return family == Family::Cilk ? cilk.name : tlrw.name;
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "ustm-8c", "complete-8c", "scale-32c", "synth-campaign"};
    return names;
}

bool
makePlan(const std::string &workload, uint64_t seed, bool smallest,
         Plan &out)
{
    out = Plan();
    out.workload = workload;
    Draw d(seed);
    if (workload == "ustm-8c")
        out.sim = ustmPlan(d);
    else if (workload == "complete-8c")
        out.sim = completePlan(d);
    else if (workload == "scale-32c")
        out.sim = scalePlan(d);
    else if (workload == "synth-campaign")
        out.synth = synthPlan(d);
    else
        return false;
    if (smallest)
        shrink(out);
    return true;
}

} // namespace perfbench
