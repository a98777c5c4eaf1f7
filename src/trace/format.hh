/**
 * @file
 * Binary instruction-trace format shared by the writer, the streaming
 * reader, and the in-repo mini-trace generator.
 *
 * Records are the 64-byte ChampSim `input_instr` layout -- one retired
 * instruction per record with its ip, branch flags, architectural
 * register lists and up to 4 source / 2 destination memory operands --
 * so external ChampSim-style traces can be converted losslessly.
 * Branch *kind* (conditional / call / return / direct / indirect) is
 * not stored; it is recovered from the register usage patterns exactly
 * as ChampSim's tracereader does (see classifyBranch), and branch
 * targets are recovered from the next record's ip.
 *
 * A trace file is the 64-byte TraceHeader followed by exactly
 * header.recordCount records, so the file is 64 + 64 x recordCount
 * bytes and every record is 64-byte aligned in a page-aligned mmap:
 * the reader serves records straight out of the mapping, kChunkRecords
 * at a time, and the writer flushes the same number per fwrite.
 */

#ifndef TRRIP_TRACE_FORMAT_HH
#define TRRIP_TRACE_FORMAT_HH

#include <cstdint>

namespace trrip::trace {

/** @name ChampSim architectural register conventions */
/** @{ */
constexpr std::uint8_t kRegStackPointer = 6;
constexpr std::uint8_t kRegFlags = 25;
constexpr std::uint8_t kRegInstructionPointer = 26;
/** @} */

/** One retired instruction (ChampSim input_instr layout, 64 bytes). */
struct TraceInstr
{
    std::uint64_t ip = 0;
    std::uint8_t isBranch = 0;
    std::uint8_t branchTaken = 0;
    std::uint8_t destRegs[2] = {};
    std::uint8_t srcRegs[4] = {};
    std::uint64_t destMem[2] = {};  //!< Store addresses (0 = unused).
    std::uint64_t srcMem[4] = {};   //!< Load addresses (0 = unused).
};
static_assert(sizeof(TraceInstr) == 64,
              "records must match the 64-byte ChampSim layout");
static_assert(alignof(TraceInstr) == 8);

/** Branch kind recovered from the register usage patterns. */
enum class BranchKind : std::uint8_t
{
    NotBranch,
    DirectJump,
    IndirectJump,
    Conditional,
    DirectCall,
    IndirectCall,
    Return,
};

/**
 * ChampSim's branch-type recovery: a branch writes the instruction
 * pointer; what else it reads/writes identifies the kind (conditional
 * reads flags, calls push through the stack pointer, returns pop,
 * indirection reads a general-purpose register).
 */
inline BranchKind
classifyBranch(const TraceInstr &in)
{
    if (!in.isBranch)
        return BranchKind::NotBranch;
    bool writes_ip = false, writes_sp = false;
    for (const std::uint8_t r : in.destRegs) {
        writes_ip |= r == kRegInstructionPointer;
        writes_sp |= r == kRegStackPointer;
    }
    bool reads_ip = false, reads_sp = false, reads_flags = false,
         reads_other = false;
    for (const std::uint8_t r : in.srcRegs) {
        reads_ip |= r == kRegInstructionPointer;
        reads_sp |= r == kRegStackPointer;
        reads_flags |= r == kRegFlags;
        reads_other |= r != 0 && r != kRegInstructionPointer &&
                       r != kRegStackPointer && r != kRegFlags;
    }
    if (!writes_ip)
        return BranchKind::NotBranch;
    if (reads_sp && writes_sp && !reads_ip)
        return BranchKind::Return;
    if (reads_sp && writes_sp && reads_ip) {
        return reads_other ? BranchKind::IndirectCall
                           : BranchKind::DirectCall;
    }
    if (reads_flags)
        return BranchKind::Conditional;
    return reads_other ? BranchKind::IndirectJump
                       : BranchKind::DirectJump;
}

/** "trriptrc", little-endian. */
constexpr std::uint64_t kTraceMagic = 0x6372747069727274ull;
/** Version 1 files carried a chunk directory; they stop at this field. */
constexpr std::uint32_t kTraceVersion = 2;
/** Records per writer flush and per reader load (256 KiB). */
constexpr std::uint32_t kChunkRecords = 4096;

/** File header (fixed 64 bytes at offset 0). */
struct TraceHeader
{
    std::uint64_t magic = kTraceMagic;
    std::uint32_t version = kTraceVersion;
    std::uint32_t pad0 = 0;
    std::uint64_t recordCount = 0;
    std::uint8_t pad[40] = {};
};
static_assert(sizeof(TraceHeader) == 64);

} // namespace trrip::trace

#endif // TRRIP_TRACE_FORMAT_HH
