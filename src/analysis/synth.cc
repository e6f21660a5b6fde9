#include "analysis/synth.hh"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <set>

#include "harness/report.hh"
#include "sim/logging.hh"

namespace asf::analysis
{

namespace
{

double
positionWeight(const Cfg &cfg, uint64_t pc, double thread_weight,
               double loop_base)
{
    return thread_weight * std::pow(loop_base, cfg.loopDepth(pc));
}

} // namespace

SynthResult
synthesize(const std::vector<std::shared_ptr<const Program>> &threads,
           const SynthOptions &opt)
{
    if (threads.empty())
        fatal("synthesize: no threads");

    std::vector<std::unique_ptr<Cfg>> cfgs;
    std::vector<const Cfg *> ptrs;
    for (const auto &p : threads) {
        cfgs.push_back(std::make_unique<Cfg>(p));
        ptrs.push_back(cfgs.back().get());
    }

    SynthResult res;
    res.input = threads;
    res.pairs = findDelayPairs(ptrs);

    std::vector<double> tw = opt.threadWeight;
    tw.resize(threads.size(), 1.0);
    res.criticalThread = 0;
    for (unsigned t = 1; t < threads.size(); t++)
        if (tw[t] > tw[res.criticalThread])
            res.criticalThread = t;

    res.insertions.resize(threads.size());
    res.fenced.resize(threads.size());

    for (unsigned t = 0; t < threads.size(); t++) {
        const Cfg &cfg = *ptrs[t];
        FenceRole role = t == res.criticalThread
                             ? FenceRole::Critical
                             : FenceRole::Noncritical;

        std::set<uint64_t> blocked(cfg.orderPoints().begin(),
                                   cfg.orderPoints().end());
        std::vector<size_t> residual;
        for (size_t i = 0; i < res.pairs.size(); i++) {
            if (res.pairs[i].thread != t)
                continue;
            if (cfg.existsPathAvoiding(res.pairs[i].storePc,
                                       res.pairs[i].loadPc, blocked))
                residual.push_back(i);
            else
                res.precovered.push_back(i);
        }

        while (!residual.empty()) {
            // Candidate positions: pcs on some store->load region of
            // a residual pair, not already an ordering point.
            std::set<uint64_t> cands;
            for (size_t i : residual) {
                const DelayPair &p = res.pairs[i];
                for (uint64_t q = 0; q < cfg.size(); q++) {
                    if (blocked.count(q))
                        continue;
                    if (cfg.reaches(p.storePc, q) &&
                        (q == p.loadPc || cfg.reaches(q, p.loadPc)))
                        cands.insert(q);
                }
            }

            // Greedy weighted cover: most pairs completed per unit of
            // estimated dynamic cost; break ties toward positions on
            // more open paths, then toward cheaper/earlier positions.
            bool have_best = false;
            uint64_t best_q = 0;
            double best_w = 0;
            size_t best_completes = 0, best_touches = 0;
            std::vector<size_t> best_covered;
            for (uint64_t q : cands) {
                double w = positionWeight(cfg, q, tw[t], opt.loopBase);
                std::set<uint64_t> with = blocked;
                with.insert(q);
                std::vector<size_t> covered;
                size_t touches = 0;
                for (size_t i : residual) {
                    const DelayPair &p = res.pairs[i];
                    if (!cfg.existsPathAvoiding(p.storePc, p.loadPc,
                                                with))
                        covered.push_back(i);
                    if (cfg.existsPathAvoiding(p.storePc, q, blocked) &&
                        (q == p.loadPc ||
                         cfg.existsPathAvoiding(q, p.loadPc, blocked)))
                        touches++;
                }
                auto better = [&]() {
                    if (!have_best)
                        return true;
                    double a = double(covered.size()) / w;
                    double b = double(best_completes) / best_w;
                    if (a != b)
                        return a > b;
                    a = double(touches) / w;
                    b = double(best_touches) / best_w;
                    if (a != b)
                        return a > b;
                    if (w != best_w)
                        return w < best_w;
                    return q < best_q;
                };
                if (better()) {
                    have_best = true;
                    best_q = q;
                    best_w = w;
                    best_completes = covered.size();
                    best_touches = touches;
                    best_covered = std::move(covered);
                }
            }
            if (!have_best)
                panic("synthesize('%s'): residual pair with no "
                      "candidate position",
                      threads[t]->name.c_str());

            blocked.insert(best_q);
            res.fences.push_back(
                {t, best_q, role, best_w, best_covered});
            res.insertions[t].push_back({best_q, role});
            std::vector<size_t> still;
            for (size_t i : residual) {
                const DelayPair &p = res.pairs[i];
                if (cfg.existsPathAvoiding(p.storePc, p.loadPc,
                                           blocked))
                    still.push_back(i);
            }
            residual = std::move(still);
        }

        std::sort(res.insertions[t].begin(), res.insertions[t].end(),
                  [](const FenceInsertion &a, const FenceInsertion &b) {
                      return a.beforePc < b.beforePc;
                  });
        res.fenced[t] =
            res.insertions[t].empty()
                ? threads[t]
                : std::make_shared<const Program>(
                      insertFences(*threads[t], res.insertions[t]));
    }
    return res;
}

std::vector<double>
profileThreadWeights(const std::string &jsonl_path, unsigned nthreads)
{
    std::vector<double> w(nthreads, 1.0);
    std::ifstream in(jsonl_path);
    if (!in)
        return w;
    std::vector<uint64_t> counts(nthreads, 0);
    bool any = false;
    std::string line;
    while (std::getline(in, line)) {
        size_t pos = line.find("\"core\":");
        if (pos == std::string::npos)
            continue;
        unsigned long core = 0;
        try {
            core = std::stoul(line.substr(pos + 7));
        } catch (...) {
            continue;
        }
        if (core < nthreads) {
            counts[core]++;
            any = true;
        }
    }
    if (!any)
        return w;
    for (unsigned t = 0; t < nthreads; t++)
        w[t] = double(counts[t]);
    return w;
}

void
writePlacementJson(const SynthResult &res, std::ostream &os)
{
    harness::JsonWriter w(os);
    w.beginObject();
    w.field("schemaVersion", 1);
    w.field("criticalThread", res.criticalThread);

    w.key("threads").beginArray();
    for (size_t t = 0; t < res.input.size(); t++) {
        w.beginObject();
        w.field("name", res.input[t]->name);
        w.field("instrs", uint64_t(res.input[t]->size()));
        w.key("insertions").beginArray();
        for (const FenceInsertion &f : res.insertions[t]) {
            w.beginObject();
            w.field("beforePc", f.beforePc);
            w.field("before", res.input[t]->at(f.beforePc).toString());
            w.field("role", fenceRoleName(f.role));
            w.endObject();
        }
        w.endArray();
        w.key("handFences").beginArray();
        for (const OmittedFence &f : res.input[t]->omittedFences) {
            w.beginObject();
            w.field("beforePc", f.beforePc);
            w.field("role", fenceRoleName(f.role));
            w.endObject();
        }
        w.endArray();
        w.endObject();
    }
    w.endArray();

    w.key("delayPairs").beginArray();
    for (size_t i = 0; i < res.pairs.size(); i++) {
        const DelayPair &p = res.pairs[i];
        w.beginObject();
        w.field("thread", p.thread);
        w.field("storePc", p.storePc);
        w.field("loadPc", p.loadPc);
        w.field("precovered",
                std::find(res.precovered.begin(), res.precovered.end(),
                          i) != res.precovered.end());
        w.key("cycle").beginArray();
        for (const CycleStep &s : p.witness) {
            w.beginObject();
            w.field("thread", s.thread);
            w.field("pc", s.pc);
            w.field("edge", s.edgeToNext);
            w.endObject();
        }
        w.endArray();
        w.endObject();
    }
    w.endArray();

    w.key("fences").beginArray();
    for (const PlacedFence &f : res.fences) {
        w.beginObject();
        w.field("thread", f.thread);
        w.field("beforePc", f.beforePc);
        w.field("role", fenceRoleName(f.role));
        w.field("weight", f.weight);
        w.key("covers").beginArray();
        for (size_t i : f.covers)
            w.value(uint64_t(i));
        w.endArray();
        w.endObject();
    }
    w.endArray();
    w.endObject();
    os << '\n';
}

} // namespace asf::analysis
