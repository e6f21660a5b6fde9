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
#include "runtime/regs.hh"
#include "runtime/the_deque.hh"
#include "runtime/tlrw.hh"
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

/** TLRW writer: n write-locked increments of data[0]. */
inline Program
tlrwWriterProgram(const runtime::TlrwTable &table, int n)
{
    using namespace runtime;
    using namespace regs;
    Assembler a("tlrw_writer");
    a.li(s0, n);
    a.li(env0, int64_t(table.orecBase));
    a.li(env1, int64_t(table.dataBase));
    a.bind("loop");
    a.li(a4, int64_t(table.orecAddr(0)));
    emitTlrwWriteAcquire(a, a4, "wabort", t0, t1, t2, t3);
    a.li(a5, int64_t(table.dataAddr(0)));
    a.ld(t0, a5, 0);
    a.addi(t0, t0, 1);
    a.st(a5, 0, t0);
    emitTlrwWriteRelease(a, a4, t0);
    a.addi(s0, s0, -1);
    a.li(t0, 0);
    a.blt(t0, s0, "loop");
    a.halt();
    // Bounded-acquire abort: nothing is held, just retry.
    a.bind("wabort");
    a.compute(30);
    a.jmp("loop");
    return a.finish();
}

/** THE deque owner: take until empty, summing tasks into [res]. */
inline Program
dequeOwnerProgram(const runtime::TheDeque &q, Addr res)
{
    using namespace runtime;
    using namespace regs;
    Assembler a("owner");
    a.li(env0, int64_t(q.base));
    a.li(s0, 0); // sum
    a.li(s9, int64_t(dequeEmpty));
    a.bind("loop");
    emitTake(a, q, env0, a0, t0, t1, t2, t3);
    a.beq(a0, s9, "done");
    a.add(s0, s0, a0);
    a.jmp("loop");
    a.bind("done");
    a.li(t0, int64_t(res));
    a.st(t0, 0, s0);
    a.halt();
    return a.finish();
}

/** THE deque thief: `attempts` steals, summing tasks into [res]. */
inline Program
dequeThiefProgram(const runtime::TheDeque &q, Addr res, unsigned attempts)
{
    using namespace runtime;
    using namespace regs;
    Assembler a("thief");
    a.li(env0, int64_t(q.base));
    a.li(s0, 0);
    a.li(s1, int64_t(attempts));
    a.li(s9, int64_t(dequeEmpty));
    a.bind("loop");
    emitSteal(a, q, env0, a0, t0, t1, t2, t3);
    a.beq(a0, s9, "next");
    a.add(s0, s0, a0);
    a.bind("next");
    a.addi(s1, s1, -1);
    a.li(t0, 0);
    a.blt(t0, s1, "loop");
    a.li(t0, int64_t(res));
    a.st(t0, 0, s0);
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
