#include "harness/cli.hh"

#include <charconv>
#include <cstdio>
#include <cstdlib>

#include "harness/experiment.hh"
#include "harness/heartbeat.hh"
#include "service/result_cache.hh"
#include "sim/logging.hh"

namespace asf::harness
{

std::optional<uint64_t>
parseCount(const std::string &text, uint64_t min, uint64_t max)
{
    uint64_t n = 0;
    const char *end = text.data() + text.size();
    auto [ptr, ec] = std::from_chars(text.data(), end, n);
    if (text.empty() || ec != std::errc() || ptr != end || n < min ||
        n > max)
        return std::nullopt;
    return n;
}

Cli::Cli(std::string head, int error_status)
    : head_(std::move(head)), errorStatus_(error_status)
{
}

Cli &
Cli::flag(std::string name, std::string help, std::function<void()> on)
{
    options_.push_back({std::move(name), "", std::move(help), "",
                        [on = std::move(on)](const std::string &) {
                            on();
                            return true;
                        }});
    return *this;
}

Cli &
Cli::flag(std::string name, std::string help, bool &dst)
{
    return flag(std::move(name), std::move(help), [&dst] { dst = true; });
}

Cli &
Cli::text(std::string name, std::string placeholder, std::string help,
          std::string &dst)
{
    return option(std::move(name), std::move(placeholder), std::move(help),
                  "", [&dst](const std::string &v) {
                      dst = v;
                      return true;
                  });
}

Cli &
Cli::option(std::string name, std::string placeholder, std::string help,
            std::string form, std::function<bool(const std::string &)> apply)
{
    options_.push_back({std::move(name), std::move(placeholder),
                        std::move(help), std::move(form),
                        std::move(apply)});
    return *this;
}

std::string
Cli::countForm(uint64_t min, uint64_t max)
{
    if (!min && (max == std::numeric_limits<uint64_t>::max() ||
                 max == std::numeric_limits<unsigned>::max()))
        return "a whole number";
    return format("a whole number in %llu..%llu", (unsigned long long)min,
                  (unsigned long long)max);
}

std::string
Cli::tryParse(int argc, char **argv, int first) const
{
    for (int i = first; i < argc; i++) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            std::fputs(usage().c_str(), stderr);
            std::exit(0);
        }
        size_t eq = arg.find('=');
        std::string name = arg.substr(0, eq);
        const Option *opt = nullptr;
        for (const Option &o : options_)
            if (o.name == name)
                opt = &o;
        if (!opt)
            return arg.rfind("--", 0) == 0
                       ? format("unknown option '%s'", name.c_str())
                       : format("unexpected argument '%s'", arg.c_str());
        if (opt->placeholder.empty()) {
            if (eq != std::string::npos)
                return format("%s takes no value", name.c_str());
            opt->apply("");
            continue;
        }
        std::string value;
        if (eq != std::string::npos)
            value = arg.substr(eq + 1);
        else if (i + 1 < argc)
            value = argv[++i];
        else
            return format("%s needs a value (%s)", name.c_str(),
                          opt->placeholder.c_str());
        if (!opt->apply(value))
            return format("%s wants %s, got '%s'", name.c_str(),
                          opt->form.c_str(), value.c_str());
    }
    return "";
}

void
Cli::parse(int argc, char **argv, int first) const
{
    std::string error = tryParse(argc, argv, first);
    if (!error.empty())
        fail(error);
}

void
Cli::fail(const std::string &error) const
{
    std::fprintf(stderr, "error: %s\n%s", error.c_str(), usage().c_str());
    std::exit(errorStatus_);
}

std::string
Cli::usage() const
{
    constexpr size_t column = 26;
    std::string out = head_ + "\n";
    for (const Option &o : options_) {
        std::string lhs = "  " + o.name;
        if (!o.placeholder.empty())
            lhs += " " + o.placeholder;
        out += lhs;
        out += lhs.size() < column ? std::string(column - lhs.size(), ' ')
                                   : "\n" + std::string(column, ' ');
        for (char c : o.help)
            out += c == '\n' ? "\n" + std::string(column, ' ')
                             : std::string(1, c);
        out += "\n";
    }
    return out;
}

RunFlags::RunFlags() : watchdogCycles(watchdogCyclesDefault()) {}

void
addRunFlags(Cli &cli, RunFlags &f)
{
    cli.count("--jobs", "N", "host worker threads (default 1)", f.jobs, 1,
              4096)
        .flag("--no-fast-forward", "tick every core every cycle (A/B check)",
              [&f] { f.fastForward = false; })
        .flag("--check", "check each execution against the TSO axioms",
              f.check)
        .text("--stats-json", "PATH", "write the runs' stats documents",
              f.statsJson)
        .count("--stats-interval", "N",
               "sample contention counters every N cycles (0 = off)",
               f.statsInterval)
        .text("--trace", "PATH", "write a Chrome trace_event JSON", f.trace)
        .text("--fence-profile", "PATH",
              "dump per-fence lifecycle records (JSONL)", f.fenceProfile)
        .text("--obs-dir", "DIR", "resolve relative output paths under DIR",
              f.obsDir)
        .text("--heartbeat", "PATH", "live sweep telemetry (JSONL)",
              f.heartbeat)
        .count("--watchdog-cycles", "N",
               "livelock watchdog window (default 1000000; 0 = off)",
               f.watchdogCycles)
        .text("--cache-dir", "DIR",
              "serve repeated configurations from a result cache",
              f.cacheDir);
}

void
applyRunFlags(const RunFlags &f)
{
    setObsDir(f.obsDir);
    setStatsJsonPath(f.statsJson);
    if (!f.trace.empty())
        setTracePath(f.trace);
    setFenceProfilePath(f.fenceProfile);
    setHeartbeatPath(f.heartbeat);
    setFastForwardEnabled(f.fastForward);
    setCheckExecutionEnabled(f.check);
    setStatsIntervalDefault(f.statsInterval);
    setWatchdogCyclesDefault(f.watchdogCycles);
    service::setGlobalResultCacheDir(f.cacheDir);
}

} // namespace asf::harness
