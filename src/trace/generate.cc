#include "trace/generate.hh"

#include <filesystem>

#include "trace/writer.hh"
#include "util/logging.hh"
#include "util/rng.hh"
#include "util/types.hh"

namespace trrip::trace {
namespace {

/**
 * Record builders.  Branch targets are not stored in the format --
 * the replay source recovers them from the NEXT record's ip -- so the
 * generators below only have to emit a coherent instruction path: the
 * record after a taken branch sits at the branch's target, and the
 * record after a not-taken conditional sits at pc + 4.
 */

TraceInstr
plain(Addr ip)
{
    TraceInstr in;
    in.ip = ip;
    in.destRegs[0] = 1;
    in.srcRegs[0] = 2;
    in.srcRegs[1] = 3;
    return in;
}

TraceInstr
load(Addr ip, Addr addr)
{
    TraceInstr in = plain(ip);
    in.srcMem[0] = addr;
    return in;
}

TraceInstr
store(Addr ip, Addr addr)
{
    TraceInstr in = plain(ip);
    in.destMem[0] = addr;
    return in;
}

TraceInstr
conditional(Addr ip, bool taken)
{
    TraceInstr in;
    in.ip = ip;
    in.isBranch = 1;
    in.branchTaken = taken ? 1 : 0;
    in.destRegs[0] = kRegInstructionPointer;
    in.srcRegs[0] = kRegFlags;
    return in;
}

TraceInstr
directJump(Addr ip)
{
    TraceInstr in;
    in.ip = ip;
    in.isBranch = 1;
    in.branchTaken = 1;
    in.destRegs[0] = kRegInstructionPointer;
    return in;
}

TraceInstr
indirectCall(Addr ip)
{
    TraceInstr in;
    in.ip = ip;
    in.isBranch = 1;
    in.branchTaken = 1;
    in.destRegs[0] = kRegInstructionPointer;
    in.destRegs[1] = kRegStackPointer;
    in.srcRegs[0] = kRegInstructionPointer;
    in.srcRegs[1] = kRegStackPointer;
    in.srcRegs[2] = 7;  // The target register: makes it indirect.
    return in;
}

TraceInstr
ret(Addr ip)
{
    TraceInstr in;
    in.ip = ip;
    in.isBranch = 1;
    in.branchTaken = 1;
    in.destRegs[0] = kRegInstructionPointer;
    in.destRegs[1] = kRegStackPointer;
    in.srcRegs[0] = kRegStackPointer;
    return in;
}

/**
 * "dispatch": the interpreter shape from the paper's motivation -- a
 * dispatcher loop indirect-calling one of 64 handlers per iteration,
 * handler popularity Zipf(1.2).  The head handlers dominate the
 * profile (hot), the tail runs occasionally (warm/cold), and the
 * per-handler conditional gives the branch unit real work.
 */
void
generateDispatch(TraceWriter &writer)
{
    constexpr Addr kLoop = 0x400000;
    constexpr Addr kHandlerBase = 0x410000;
    constexpr Addr kHandlerStride = 0x400;
    constexpr Addr kTable = 0x600000;
    constexpr Addr kData = 0x610000;
    constexpr int kHandlers = 64;
    constexpr std::uint64_t kTargetRecords = 30'000;

    Rng rng(0x7472646973ull);  // "trdis"
    const WeightedSampler pick(zipfWeights(kHandlers, 1.2));

    while (writer.recordsWritten() < kTargetRecords) {
        const auto h = static_cast<std::uint64_t>(pick.sample(rng));
        const Addr handler = kHandlerBase + h * kHandlerStride;

        // Dispatcher: fetch the handler pointer, call through it.
        writer.append(plain(kLoop));
        writer.append(load(kLoop + 0x4, kTable + h * 8));
        writer.append(plain(kLoop + 0x8));
        writer.append(indirectCall(kLoop + 0xc));

        // Handler body: a load from its own data page, a conditional
        // that skips a store when taken, then h & 3 trailing instrs.
        writer.append(plain(handler));
        writer.append(load(handler + 0x4,
                           kData + h * 0x1000 + rng.below(64) * 8));
        const bool skip = rng.below(4) == 0;
        writer.append(conditional(handler + 0x8, skip));
        if (!skip) {
            writer.append(store(handler + 0xc,
                                kData + h * 0x1000 + 0x800));
        }
        const auto extra = static_cast<Addr>(h & 3);
        for (Addr k = 0; k < extra; ++k)
            writer.append(plain(handler + 0x10 + k * 4));
        writer.append(ret(handler + 0x10 + extra * 4));

        // Dispatcher return site: bump a counter, loop.
        writer.append(store(kLoop + 0x10, kData - 0x40));
        writer.append(directJump(kLoop + 0x14));
    }
}

/**
 * "streaming": a contiguous 40-block loop walking an array with
 * sequential loads -- low instruction reuse distance, high data
 * traffic.  Block 20 is a gather cluster: 4 consecutive instructions
 * with 4 loads each (16 accesses), more than BBEvent::data's
 * kBBEventDataSlots, so replay MUST split the block (the pinned
 * goldens cover that path).  A ~0.2% conditional detour per block
 * reaches cold error-path code at 0x700000.
 */
void
generateStreaming(TraceWriter &writer)
{
    constexpr Addr kBase = 0x500000;
    constexpr Addr kBlockBytes = 0x40;  // 16 4-byte instructions.
    constexpr Addr kCold = 0x700000;
    constexpr Addr kArray = 0x800000;
    constexpr int kBlocks = 40;
    constexpr std::uint64_t kTargetRecords = 30'000;

    Rng rng(0x7472737472ull);  // "trstr"
    Addr stream = kArray;

    while (writer.recordsWritten() < kTargetRecords) {
        for (int b = 0; b < kBlocks; ++b) {
            const Addr base = kBase + static_cast<Addr>(b) * kBlockBytes;
            if (b == 20) {
                // The gather cluster: 16 loads across 4 instructions.
                for (Addr k = 0; k < 4; ++k) {
                    TraceInstr in = plain(base + k * 4);
                    for (int s = 0; s < 4; ++s) {
                        in.srcMem[s] = stream;
                        stream += 64;
                    }
                    writer.append(in);
                }
                for (Addr k = 4; k < 14; ++k)
                    writer.append(plain(base + k * 4));
            } else {
                for (Addr k = 0; k < 14; ++k) {
                    if (k % 3 == 0) {
                        writer.append(load(base + k * 4, stream));
                        stream += 64;
                    } else {
                        writer.append(plain(base + k * 4));
                    }
                }
            }

            // Rare detour to this block's error path, then back.
            const bool detour = rng.below(500) == 0;
            writer.append(conditional(base + 14 * 4, detour));
            if (detour) {
                const Addr cold =
                    kCold + static_cast<Addr>(b) * 0x100;
                writer.append(plain(cold));
                writer.append(store(cold + 0x4, kArray - 0x1000));
                writer.append(plain(cold + 0x8));
                writer.append(directJump(cold + 0xc));
            }
            if (b == kBlocks - 1) {
                writer.append(directJump(base + 15 * 4));
                // Restart the array walk each lap: bounded footprint.
                stream = kArray;
            } else {
                writer.append(plain(base + 15 * 4));
            }
        }
    }
}

} // namespace

const std::vector<std::string> &
miniTraceNames()
{
    static const std::vector<std::string> names = {"dispatch",
                                                   "streaming"};
    return names;
}

std::string
miniTracePath(const std::string &dir, const std::string &name)
{
    return dir + "/" + name + ".trrtrc";
}

void
generateMiniTrace(const std::string &name, const std::string &path)
{
    TraceWriter writer(path);
    fatal_if(!writer.ok(), writer.error());
    if (name == "dispatch")
        generateDispatch(writer);
    else if (name == "streaming")
        generateStreaming(writer);
    else
        fatal("unknown mini trace '", name, "'");
    writer.finish();
    fatal_if(!writer.ok(), writer.error());
}

std::vector<std::string>
generateMiniTracePack(const std::string &dir)
{
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    fatal_if(ec && !std::filesystem::is_directory(dir),
             "cannot create mini-trace directory '", dir, "'");
    std::vector<std::string> paths;
    for (const std::string &name : miniTraceNames()) {
        paths.push_back(miniTracePath(dir, name));
        generateMiniTrace(name, paths.back());
    }
    return paths;
}

} // namespace trrip::trace
