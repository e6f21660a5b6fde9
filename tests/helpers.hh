/**
 * @file
 * Shared helpers for integration tests: system construction and tiny
 * guest-program runners.
 */

#ifndef ASF_TESTS_HELPERS_HH
#define ASF_TESTS_HELPERS_HH

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "prog/assembler.hh"
#include "sys/system.hh"

namespace asf::test
{

inline SystemConfig
smallConfig(FenceDesign design = FenceDesign::SPlus, unsigned cores = 4)
{
    SystemConfig cfg;
    cfg.numCores = cores;
    cfg.design = design;
    return cfg;
}

/** One setting of System::run's host-side switches. Every mode must
 *  produce the same simulated history; `reference` ticks every core
 *  every cycle. */
struct RunLoopMode
{
    const char *name;
    bool fastForward;
    bool directExec;
};

inline constexpr RunLoopMode runLoopModes[] = {
    {"default", true, true},
    {"no-fast-forward", false, true},
    {"no-direct-exec", true, false},
    {"reference", false, false},
};

inline SystemConfig
withMode(SystemConfig cfg, const RunLoopMode &m)
{
    cfg.fastForward = m.fastForward;
    cfg.directExec = m.directExec;
    return cfg;
}

inline std::shared_ptr<const Program>
share(Program p)
{
    return std::make_shared<const Program>(std::move(p));
}

/** Run until all threads halt; assert it actually finished. */
inline void
runToCompletion(System &sys, Tick budget = 2'000'000)
{
    auto res = sys.run(budget);
    ASSERT_EQ(res, System::RunResult::AllDone)
        << "system did not quiesce in " << budget << " cycles";
}

/** A one-instruction-at-a-time store program: st [addr] = value; halt. */
inline Program
storeProgram(Addr addr, uint64_t value)
{
    Assembler a("store");
    a.li(1, int64_t(addr));
    a.li(2, int64_t(value));
    a.st(1, 0, 2);
    a.halt();
    return a.finish();
}

/** ld r3, [addr]; st [result] = r3; halt. */
inline Program
loadProgram(Addr addr, Addr result)
{
    Assembler a("load");
    a.li(1, int64_t(addr));
    a.li(2, int64_t(result));
    a.ld(3, 1, 0);
    a.st(2, 0, 3);
    a.halt();
    return a.finish();
}

/** A fresh directory under the system temp dir, removed with its
 *  contents when the object goes. */
struct TempDir
{
    std::string path;

    explicit TempDir(const char *tag)
    {
        std::string tmpl =
            (std::filesystem::temp_directory_path() /
             (std::string("asf_") + tag + ".XXXXXX"))
                .string();
        std::vector<char> buf(tmpl.begin(), tmpl.end());
        buf.push_back('\0');
        if (!mkdtemp(buf.data()))
            std::abort();
        path = buf.data();
    }

    ~TempDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path, ec);
    }
};

} // namespace asf::test

#endif // ASF_TESTS_HELPERS_HH
