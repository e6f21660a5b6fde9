#include "service/spec.hh"

#include <algorithm>
#include <sstream>

#include "analysis/corpus.hh"
#include "harness/report.hh"
#include "service/json.hh"
#include "sim/logging.hh"
#include "workloads/cilk_apps.hh"
#include "workloads/stamp.hh"
#include "workloads/ustm.hh"

namespace asf::service
{

namespace
{

bool
knownWorkload(const std::string &workload, std::string &error)
{
    auto colon = workload.find(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 >= workload.size()) {
        error = format("workload '%s' is not GROUP:NAME",
                       workload.c_str());
        return false;
    }
    std::string group = workload.substr(0, colon);
    std::string name = workload.substr(colon + 1);
    bool found = false;
    if (group == "cilk") {
        for (const auto &a : workloads::cilkApps())
            found |= a.name == name;
    } else if (group == "ustm") {
        for (const auto &b : workloads::ustmBenches())
            found |= b.name == name;
    } else if (group == "stamp") {
        for (const auto &a : workloads::stampApps())
            found |= a.bench.name == name;
    } else if (group == "synth") {
        auto names = analysis::corpusNames();
        found = std::find(names.begin(), names.end(), name) !=
                names.end();
    } else {
        error = format("unknown workload group '%s'", group.c_str());
        return false;
    }
    if (!found)
        error = format("unknown %s workload '%s'", group.c_str(),
                       name.c_str());
    return found;
}

} // namespace

std::string
specLabel(const ExperimentSpec &spec)
{
    return format("%s/%s/%uc", spec.workload.c_str(),
                  fenceDesignName(spec.design), spec.cores);
}

std::string
serializeSpec(const ExperimentSpec &spec)
{
    std::ostringstream os;
    {
        harness::JsonWriter w(os);
        w.beginObject();
        w.field("workload", spec.workload);
        w.field("design", fenceDesignName(spec.design));
        w.field("cores", spec.cores);
        w.field("cycles", uint64_t(spec.cycles));
        if (spec.workload.rfind("synth:", 0) == 0)
            w.field("minimize", spec.minimize);
        w.endObject();
    }
    return os.str();
}

bool
parseSpec(const JsonValue &v, ExperimentSpec &out, std::string &error)
{
    if (!v.isObject()) {
        error = "spec is not a JSON object";
        return false;
    }
    out = ExperimentSpec();
    if (!v.has("workload")) {
        error = "spec lacks 'workload'";
        return false;
    }
    out.workload = v["workload"].asString();
    if (!knownWorkload(out.workload, error))
        return false;
    if (v.has("design")) {
        auto design = tryParseFenceDesign(v["design"].asString());
        if (!design) {
            error = format("unknown fence design '%s'",
                           v["design"].asString().c_str());
            return false;
        }
        out.design = *design;
    }
    out.cores = unsigned(v["cores"].asU64(out.cores));
    if (out.cores < 1 || out.cores > 64) {
        error = format("cores %u out of range 1..64", out.cores);
        return false;
    }
    out.cycles = Tick(v["cycles"].asU64(out.cycles));
    out.minimize = v["minimize"].asBool(out.minimize);
    return true;
}

bool
expandSpecLine(const std::string &line, std::vector<ExperimentSpec> &out,
               std::string &error)
{
    size_t first = line.find_first_not_of(" \t\r\n");
    if (first == std::string::npos || line[first] == '#')
        return true;

    JsonValue v;
    if (!parseJson(line, v, error))
        return false;

    // Normalize the axes to lists, then cross-product.
    std::vector<std::string> designs;
    if (v.has("designs")) {
        if (v.has("design")) {
            error = "give 'design' or 'designs', not both";
            return false;
        }
        for (const auto &d : v["designs"].items())
            designs.push_back(d.asString());
        if (designs.empty()) {
            error = "'designs' is empty";
            return false;
        }
    }
    std::vector<uint64_t> cores;
    if (v["cores"].isArray()) {
        for (const auto &c : v["cores"].items())
            cores.push_back(c.asU64());
        if (cores.empty()) {
            error = "'cores' is empty";
            return false;
        }
    }

    // Rewrite the object once per (design, cores) pair and reuse the
    // scalar validation above.
    JsonValue scalar = v;
    auto &members = scalar.makeObject();
    for (const auto &[key, value] : v.members())
        if (key != "designs" && key != "cores")
            members[key] = value;
    for (size_t di = 0; di < std::max<size_t>(designs.size(), 1); di++) {
        if (!designs.empty()) {
            JsonValue d;
            d.setString(designs[di]);
            members["design"] = d;
        }
        for (size_t ci = 0; ci < std::max<size_t>(cores.size(), 1);
             ci++) {
            if (!cores.empty()) {
                JsonValue c;
                c.setUint(cores[ci]);
                members["cores"] = c;
            } else if (v.has("cores")) {
                members["cores"] = v["cores"];
            }
            ExperimentSpec spec;
            if (!parseSpec(scalar, spec, error))
                return false;
            out.push_back(std::move(spec));
        }
    }
    return true;
}

harness::ExperimentResult
runSpec(const ExperimentSpec &spec, std::ostream *stats_out)
{
    auto colon = spec.workload.find(':');
    std::string group = spec.workload.substr(0, colon);
    std::string name = colon == std::string::npos
                           ? ""
                           : spec.workload.substr(colon + 1);
    if (group == "synth")
        return harness::runSynthExperiment(name, spec.design,
                                           spec.minimize, 0, stats_out);
    if (group == "cilk")
        return harness::runCilkExperiment(workloads::cilkAppByName(name),
                                          spec.design, spec.cores,
                                          spec.cycles * 100, stats_out);
    if (group == "ustm")
        return harness::runUstmExperiment(workloads::ustmBenchByName(name),
                                          spec.design, spec.cores,
                                          spec.cycles, stats_out);
    if (group == "stamp")
        return harness::runStampExperiment(
            workloads::stampAppByName(name), spec.design, spec.cores,
            spec.cycles * 100, stats_out);
    fatal("unknown workload group '%s'", group.c_str());
}

} // namespace asf::service
