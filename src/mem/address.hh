/**
 * @file
 * Address arithmetic: line alignment, word extraction, the
 * line-interleaved home-node (NUMA directory) mapping, and cache set
 * geometry.
 */

#ifndef ASF_MEM_ADDRESS_HH
#define ASF_MEM_ADDRESS_HH

#include "mem/message.hh"
#include "sim/types.hh"

namespace asf
{

/** Line-aligned base of the line containing addr. */
Addr lineAlign(Addr addr);

/** True if addr is line-aligned. */
bool isLineAligned(Addr addr);

/** True if addr is word-aligned (8 bytes). */
bool isWordAligned(Addr addr);

/** Index of the word within its line (0 .. wordsPerLine-1). */
unsigned wordInLine(Addr addr);

/** Word mask with only addr's word set. */
WordMask wordMaskFor(Addr addr);

/** Full-line word mask. */
WordMask fullLineMask();

/**
 * Bytes per home-interleaving granule. Homes rotate across nodes every
 * `homeGranuleBytes`, not every line: related small structures (one
 * STM orec, one work-stealing deque header) stay within one directory
 * module, which is what lets a WeeFence confine its PS/BS to a single
 * module at all (paper Section 2.3).
 */
constexpr unsigned homeGranuleBytes = 512;

/** Home node (directory slice / L2 bank) of a line. */
NodeId homeNode(Addr addr, unsigned num_nodes);

/**
 * Set count of a cache of `size_bytes` with `assoc` ways per set. A
 * zero size or associativity, a size that does not split into whole
 * sets, or a set count that is not a power of two is fatal.
 */
unsigned cacheSetCount(unsigned size_bytes, unsigned assoc);

} // namespace asf

#endif // ASF_MEM_ADDRESS_HH
