/**
 * @file
 * The command-line parser every binary shares: a table of flags, each
 * with its name, value placeholder, help text and action. Every flag
 * that takes a value accepts `--flag V` and `--flag=V`; a missing
 * value, an unknown flag, or a malformed or out-of-range number is an
 * error that names the flag; usage is printed from the same table.
 */

#ifndef ASF_HARNESS_CLI_HH
#define ASF_HARNESS_CLI_HH

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace asf::harness
{

/** `text` as a whole number in [min, max]: digits only. */
std::optional<uint64_t> parseCount(const std::string &text, uint64_t min,
                                   uint64_t max);

class Cli
{
  public:
    /** `head` opens the usage text; a usage error exits with
     *  `error_status`. */
    explicit Cli(std::string head, int error_status = 1);

    /** A switch. */
    Cli &flag(std::string name, std::string help, std::function<void()> on);
    Cli &flag(std::string name, std::string help, bool &dst);

    Cli &text(std::string name, std::string placeholder, std::string help,
              std::string &dst);

    /** A whole-number value in [min, max]. */
    template <class T>
    Cli &
    count(std::string name, std::string placeholder, std::string help,
          T &dst, uint64_t min = 0,
          uint64_t max = std::numeric_limits<T>::max())
    {
        return option(std::move(name), std::move(placeholder),
                      std::move(help), countForm(min, max),
                      [&dst, min, max](const std::string &v) {
                          auto n = parseCount(v, min, max);
                          if (n)
                              dst = T(*n);
                          return n.has_value();
                      });
    }

    /** A value `apply` checks and takes (false: malformed); `form`
     *  names the accepted values in the error. */
    Cli &option(std::string name, std::string placeholder,
                std::string help, std::string form,
                std::function<bool(const std::string &)> apply);

    /** Parse argv[first..argc): "" or the error. `--help`/`-h` print
     *  the usage to stderr and exit 0. */
    std::string tryParse(int argc, char **argv, int first = 1) const;

    /** tryParse, failing on an error. */
    void parse(int argc, char **argv, int first = 1) const;

    /** Print `error` and the usage; exit with the error status. */
    [[noreturn]] void fail(const std::string &error) const;

    std::string usage() const;

  private:
    struct Option
    {
        /** An empty placeholder makes a switch. */
        std::string name, placeholder, help, form;
        std::function<bool(const std::string &)> apply;
    };

    static std::string countForm(uint64_t min, uint64_t max);

    std::string head_;
    int errorStatus_;
    std::vector<Option> options_;
};

/**
 * The run flags of asf_sim and every figure, table and ablation bench.
 * Parsing only fills this value; applyRunFlags() then sets the
 * process-wide defaults, the obs dir first, so `--obs-dir` reaches
 * every path whatever the flag order.
 */
struct RunFlags
{
    unsigned jobs = 1;
    bool fastForward = true;
    bool check = false;
    std::string statsJson, trace, fenceProfile, obsDir, heartbeat, cacheDir;
    Tick statsInterval = 0;
    Tick watchdogCycles;

    RunFlags();
    bool operator==(const RunFlags &) const = default;
};

void addRunFlags(Cli &cli, RunFlags &flags);
void applyRunFlags(const RunFlags &flags);

} // namespace asf::harness

#endif // ASF_HARNESS_CLI_HH
