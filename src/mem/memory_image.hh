/**
 * @file
 * The simulated physical memory: a sparse table of cache lines. Memory is
 * the data authority for lines not Modified in any L1; dirty writebacks
 * and Order-write merges land here.
 */

#ifndef ASF_MEM_MEMORY_IMAGE_HH
#define ASF_MEM_MEMORY_IMAGE_HH

#include "mem/line_table.hh"
#include "mem/message.hh"
#include "sim/types.hh"

namespace asf
{

class MemoryImage
{
  public:
    /** Read a full line (zero-filled if never written). */
    LineData readLine(Addr line_addr) const;

    /** Overwrite a full line. */
    void writeLine(Addr line_addr, const LineData &data);

    /** Read one 8-byte word at a word-aligned address. */
    uint64_t readWord(Addr addr) const;

    /** Write one 8-byte word at a word-aligned address. */
    void writeWord(Addr addr, uint64_t value);

    /** Merge a single word into a line in place. */
    void mergeWord(Addr line_addr, unsigned word, uint64_t value);

    /** Number of distinct lines ever written. */
    size_t footprintLines() const { return lines_.size(); }

  private:
    LineTable<LineData> lines_;
};

} // namespace asf

#endif // ASF_MEM_MEMORY_IMAGE_HH
