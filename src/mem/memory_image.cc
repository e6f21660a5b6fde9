#include "mem/memory_image.hh"

#include "mem/address.hh"
#include "sim/logging.hh"

namespace asf
{

LineData
MemoryImage::readLine(Addr line_addr) const
{
    if (!isLineAligned(line_addr))
        panic("readLine: unaligned %#llx", (unsigned long long)line_addr);
    const LineData *data = lines_.find(line_addr);
    return data ? *data : LineData{};
}

void
MemoryImage::writeLine(Addr line_addr, const LineData &data)
{
    if (!isLineAligned(line_addr))
        panic("writeLine: unaligned %#llx", (unsigned long long)line_addr);
    lines_[line_addr] = data;
}

uint64_t
MemoryImage::readWord(Addr addr) const
{
    if (!isWordAligned(addr))
        panic("readWord: unaligned %#llx", (unsigned long long)addr);
    const LineData *data = lines_.find(lineAlign(addr));
    return data ? (*data)[wordInLine(addr)] : 0;
}

void
MemoryImage::writeWord(Addr addr, uint64_t value)
{
    if (!isWordAligned(addr))
        panic("writeWord: unaligned %#llx", (unsigned long long)addr);
    lines_[lineAlign(addr)][wordInLine(addr)] = value;
}

void
MemoryImage::mergeWord(Addr line_addr, unsigned word, uint64_t value)
{
    if (!isLineAligned(line_addr) || word >= wordsPerLine)
        panic("mergeWord: bad args");
    lines_[line_addr][word] = value;
}

} // namespace asf
