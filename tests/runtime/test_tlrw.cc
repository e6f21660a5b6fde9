#include <gtest/gtest.h>

#include "../helpers.hh"
#include "runtime/regs.hh"
#include "runtime/tlrw.hh"

using namespace asf;
using namespace asf::test;
using namespace asf::runtime;
using namespace asf::regs;

namespace
{

/** n read attempts of data[0]; counts aborts in a register -> res. */
Program
readerProgram(const TlrwTable &table, int n, Addr res)
{
    Assembler a("tlrw_reader");
    a.li(s0, n);
    a.li(s1, 0); // observed value accumulator (unused, keeps load alive)
    a.bind("loop");
    a.li(a4, int64_t(table.orecAddr(0)));
    emitTlrwReadAcquire(a, a4, "aborted", t0, t1);
    a.li(a5, int64_t(table.dataAddr(0)));
    a.ld(t0, a5, 0);
    a.add(s1, s1, t0);
    emitTlrwReadRelease(a, a4, t0, t1);
    a.bind("next");
    a.addi(s0, s0, -1);
    a.li(t0, 0);
    a.blt(t0, s0, "loop");
    a.li(t0, int64_t(res));
    a.st(t0, 0, s1);
    a.halt();
    a.bind("aborted");
    a.jmp("next"); // just skip the iteration
    return a.finish();
}

} // namespace

TEST(Tlrw, TableGeometry)
{
    GuestLayout layout;
    TlrwTable t = allocTlrwTable(layout, 8, 8);
    // writer + wmutex + 8 packed reader words (2 lines) = 128 bytes.
    EXPECT_EQ(t.orecStride, 128u);
    EXPECT_EQ(t.orecAddr(1) - t.orecAddr(0), 128u);
    EXPECT_EQ(t.readerFlagAddr(0, 3) - t.orecAddr(0), 64u + 24u);
    // The guarded data word shares the writer line (word 1).
    EXPECT_EQ(t.dataAddr(0), t.orecAddr(0) + 8u);
    EXPECT_EQ(t.dataAddr(1) - t.dataAddr(0), t.orecStride);
}

TEST(Tlrw, SingleWriterIncrements)
{
    System sys(smallConfig(FenceDesign::SPlus, 1));
    GuestLayout layout;
    TlrwTable table = allocTlrwTable(layout, 4, 1);
    sys.loadProgram(0, share(tlrwWriterProgram(table, 10)));
    runToCompletion(sys);
    EXPECT_EQ(sys.debugReadWord(table.dataAddr(0)), 10u);
    // Locks fully released.
    EXPECT_EQ(sys.debugReadWord(table.writerAddr(0)), 0u);
}

class TlrwDesigns : public ::testing::TestWithParam<FenceDesign>
{
};

TEST_P(TlrwDesigns, WritersNeverLoseUpdates)
{
    System sys(smallConfig(GetParam(), 4));
    GuestLayout layout;
    TlrwTable table = allocTlrwTable(layout, 4, 4);
    auto p = share(tlrwWriterProgram(table, 15));
    for (int i = 0; i < 4; i++) {
        sys.loadProgram(i, p);
        sys.core(i).setReg(regs::tid, i);
        sys.core(i).setReg(regs::nthreads, 4);
    }
    runToCompletion(sys);
    EXPECT_EQ(sys.debugReadWord(table.dataAddr(0)), 60u);
}

TEST_P(TlrwDesigns, ReadersAndWritersCoexist)
{
    System sys(smallConfig(GetParam(), 4));
    GuestLayout layout;
    TlrwTable table = allocTlrwTable(layout, 4, 4);
    sys.loadProgram(0, share(tlrwWriterProgram(table, 20)));
    sys.core(0).setReg(regs::tid, 0);
    sys.core(0).setReg(regs::nthreads, 4);
    for (int i = 1; i < 4; i++) {
        sys.loadProgram(i, share(readerProgram(table, 30,
                                               0x9000 + i * 0x40)));
        sys.core(i).setReg(regs::tid, i);
        sys.core(i).setReg(regs::nthreads, 4);
    }
    runToCompletion(sys);
    EXPECT_EQ(sys.debugReadWord(table.dataAddr(0)), 20u);
}

INSTANTIATE_TEST_SUITE_P(AllDesigns, TlrwDesigns,
                         ::testing::ValuesIn(allFenceDesigns),
                         [](const auto &info) {
                             std::string n = fenceDesignName(info.param);
                             for (auto &c : n)
                                 if (c == '+')
                                     c = 'p';
                             return n;
                         });
