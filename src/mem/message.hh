/**
 * @file
 * Coherence protocol messages exchanged between L1 controllers and
 * directory slices over the mesh. The protocol is a directory-centric
 * (4-hop) MESI extended with the paper's mechanisms:
 *
 *  - Nack / bounce replies produced by a Bypass Set match,
 *  - OrderWrite (WS+: GetX with the Order bit set, carrying the update),
 *  - CondOrderWrite (SW+: Order plus a word mask for true/false-sharing
 *    discrimination),
 *  - PutM with keep-me-as-sharer (dirty eviction of a line in the BS),
 *  - GRT deposit/fetch traffic for the WeeFence baseline.
 */

#ifndef ASF_MEM_MESSAGE_HH
#define ASF_MEM_MESSAGE_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace asf
{

/** Words per cache line: 32-byte lines, 8-byte words. */
constexpr unsigned wordsPerLine = 4;
constexpr unsigned lineBytes = 32;
constexpr unsigned wordBytes = 8;

/** A full line of data. */
using LineData = std::array<uint64_t, wordsPerLine>;

/** Bitmask over the words of a line (for Conditional Order requests). */
using WordMask = uint8_t;

enum class MsgType : uint8_t
{
    // Requests, L1 -> directory.
    GetS,           ///< read miss
    GetX,           ///< write miss / upgrade
    OrderWrite,     ///< GetX with Order bit (WS+); carries the word update
    CondOrderWrite, ///< Conditional Order (SW+); carries update + mask
    PutM,           ///< dirty eviction writeback
    PutE,           ///< clean-exclusive eviction notice (no data)
    // Replies, directory -> L1.
    DataE,          ///< read data, granted Exclusive
    DataS,          ///< read data, granted Shared
    DataX,          ///< write data, granted Modified
    AckX,           ///< upgrade granted (requester keeps its data)
    AckOrder,       ///< Order/CO completed; line data; requester ends Shared
    NackX,          ///< GetX bounced off a Bypass Set; retry
    NackCO,         ///< CO failed: true sharer exists; retry as CO
    // Probes, directory -> L1.
    Inv,            ///< invalidate (orderBit / wordMask qualify it)
    Dwngr,          ///< downgrade M -> S, send data back
    // Probe responses, L1 -> directory.
    InvAck,         ///< invalidation response (bounce / monitor / data)
    DwngrAck,       ///< downgrade response with data
    // WeeFence GRT traffic, L1 -> GRT module and back.
    GrtDeposit,     ///< deposit this fence's Pending Set
    GrtFetchReply,  ///< remote-PS snapshot returned with deposit ack
    GrtClear,       ///< fence completed: clear its PS entry
    GrtCheck,       ///< re-check a stalled address against the GRT
    GrtCheckReply,  ///< still-blocked / clear answer
};

constexpr unsigned numMsgTypes =
    unsigned(MsgType::GrtCheckReply) + 1;

const char *msgTypeName(MsgType t);

/** How an invalidation probe found the target's Bypass Set. */
enum class BsMatch : uint8_t
{
    None,       ///< address not in the BS
    FalseShare, ///< line address matches, but no word overlaps
    TrueShare,  ///< a requested word matches a BS word
};

/** Traffic class, for the Table-4 network-overhead accounting. */
enum class TrafficClass : uint8_t
{
    Base,   ///< traffic a conventional-fence system would also send
    Retry,  ///< bounce-induced retries and their replies
    Grt,    ///< WeeFence global-state traffic
};

struct Message
{
    // Fields are grouped by size (8-byte, then 4-byte, then 1-byte), so
    // the struct packs into 120 bytes and the mesh's delivery closure
    // (this + Message) fits an event cell (see Mesh::send).

    /** Line-aligned address this message concerns. */
    Addr addr = 0;

    // --- payloads ----------------------------------------------------
    LineData data{};
    /** Word-level update carried by Order/CO writes. */
    uint64_t updateValue = 0;

    /** GRT payloads: line addresses of a Pending Set. */
    std::vector<Addr> addrSet;

    /**
     * Fence-lifecycle profiler id of the fence this message acts for
     * (Order/CondOrder writes, GRT traffic); 0 when unrelated or when
     * profiling is off. Observability metadata only: deliberately
     * excluded from sizeBytes() so profiling cannot perturb simulated
     * traffic or timing.
     */
    uint64_t fenceId = 0;

    /**
     * Execution-checker id of the write-buffer store this message
     * carries (GetX / OrderWrite / CondOrderWrite); 0 when unrelated
     * or when checking is off. Observability metadata only: like
     * fenceId, excluded from sizeBytes() so checking cannot perturb
     * simulated traffic or timing.
     */
    uint64_t storeSeq = 0;

    NodeId src = invalidNode;
    NodeId dst = invalidNode;
    /** Original requester (carried through probes so acks can be matched). */
    NodeId requester = invalidNode;
    /** Word index of the update carried by Order/CO writes. */
    unsigned updateWord = 0;

    MsgType type = MsgType::GetS;
    TrafficClass trafficClass = TrafficClass::Base;
    bool hasData = false;
    /** Order bit (WS+/SW+). */
    bool orderBit = false;
    /** Word mask of the requested words (CO requests and probes). */
    WordMask wordMask = 0;
    /** InvAck: how the probe hit the target's BS. */
    BsMatch bsMatch = BsMatch::None;
    /** InvAck/PutM/PutE: directory should keep src in the sharer list. */
    bool keepSharer = false;
    /** InvAck: the probe was rejected by the Bypass Set (line kept). */
    bool bounced = false;
    /** InvAck/DwngrAck: the target still held the line when probed. */
    bool hadLine = false;
    /** GetX: the requester holds a Shared copy (upgrade, no data needed). */
    bool reqHasLine = false;
    /** GrtCheckReply: the checked address is still blocked. */
    bool blocked = false;

    /** On-wire size for traffic accounting. */
    unsigned sizeBytes() const;

    std::string toString() const;
};

} // namespace asf

#endif // ASF_MEM_MESSAGE_HH
