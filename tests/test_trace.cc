/**
 * @file
 * Trace subsystem tests: container writer/reader round trips,
 * corrupt-file rejection (every truncation and header bit flip), the
 * BBEvent data-slot block-split seam, the batched produce() contract,
 * wrap/pass accounting, the mini-trace pack's byte-identical
 * regeneration, and the trace:<path> workload scheme through the
 * experiment layer.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "exp/profile_cache.hh"
#include "exp/runner.hh"
#include "trace/format.hh"
#include "trace/generate.hh"
#include "trace/reader.hh"
#include "trace/replay.hh"
#include "trace/source.hh"
#include "trace/writer.hh"

namespace trrip::trace {
namespace {

/** Fresh scratch directory under the test's cwd. */
class TraceTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        dir_ = std::string("trace_test_tmp/") +
               ::testing::UnitTest::GetInstance()
                   ->current_test_info()
                   ->name();
        std::filesystem::remove_all(dir_);
        std::filesystem::create_directories(dir_);
    }

    std::string path(const std::string &leaf) const
    {
        return dir_ + "/" + leaf;
    }

    std::string dir_;
};

TraceInstr
plainAt(std::uint64_t ip, std::uint64_t loadAddr = 0)
{
    TraceInstr in;
    in.ip = ip;
    in.destRegs[0] = 1;
    in.srcRegs[0] = 2;
    in.srcMem[0] = loadAddr;
    return in;
}

std::vector<char>
fileBytes(const std::string &p)
{
    std::ifstream f(p, std::ios::binary);
    return std::vector<char>(std::istreambuf_iterator<char>(f),
                             std::istreambuf_iterator<char>());
}

void
writeBytes(const std::string &p, const std::vector<char> &bytes)
{
    std::ofstream(p, std::ios::binary | std::ios::trunc)
        .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/** The SimError opening @p file throws (a test failure if none). */
SimError
rejectOf(const std::string &file)
{
    try {
        TraceReader reader(file);
    } catch (const SimError &e) {
        return e;
    }
    ADD_FAILURE() << "'" << file << "' was accepted";
    return SimError(ErrorCategory::Internal, "accepted");
}

/** Mappings of @p file this process holds (/proc/self/maps lines). */
std::size_t
mappingsOf(const std::string &file)
{
    const std::string abs = std::filesystem::absolute(file).string();
    std::ifstream maps("/proc/self/maps");
    std::size_t n = 0;
    for (std::string line; std::getline(maps, line);)
        n += line.find(abs) != std::string::npos;
    return n;
}

TEST_F(TraceTest, RoundTripPreservesEveryRecord)
{
    // A record count that is NOT a multiple of the chunk size, so the
    // reader crosses chunk boundaries and the tail chunk is short.
    constexpr std::uint64_t kRecords = kChunkRecords * 2 + 5;
    const std::string file = path("roundtrip.trrtrc");
    {
        TraceWriter writer(file);
        for (std::uint64_t i = 0; i < kRecords; ++i) {
            TraceInstr in = plainAt(0x1000 + i * 4, 0x9000 + i * 8);
            in.isBranch = i % 7 == 0;
            in.branchTaken = i % 14 == 0;
            in.destMem[1] = i;
            writer.append(in);
        }
        writer.finish();
        ASSERT_TRUE(writer.ok()) << writer.error();
        EXPECT_EQ(writer.recordsWritten(), kRecords);
    }

    // The file is the header and the records, nothing else.
    EXPECT_EQ(std::filesystem::file_size(file),
              sizeof(TraceHeader) + kRecords * sizeof(TraceInstr));
    TraceReader reader(file);
    EXPECT_EQ(reader.recordCount(), kRecords);
    for (std::uint64_t i = 0; i < kRecords; ++i) {
        const TraceInstr *rec = reader.next();
        ASSERT_NE(rec, nullptr) << "record " << i;
        EXPECT_EQ(rec->ip, 0x1000 + i * 4);
        EXPECT_EQ(rec->srcMem[0], 0x9000 + i * 8);
        EXPECT_EQ(rec->destMem[1], i);
        EXPECT_EQ(rec->isBranch, i % 7 == 0);
    }
    EXPECT_EQ(reader.next(), nullptr);

    // reset() rewinds to the first record.
    reader.reset();
    const TraceInstr *again = reader.next();
    ASSERT_NE(again, nullptr);
    EXPECT_EQ(again->ip, 0x1000u);
}

TEST_F(TraceTest, EmptyTraceIsValidAndEndsImmediately)
{
    const std::string file = path("empty.trrtrc");
    {
        TraceWriter writer(file);
        writer.finish();
        ASSERT_TRUE(writer.ok()) << writer.error();
    }
    EXPECT_EQ(std::filesystem::file_size(file), sizeof(TraceHeader));
    TraceReader reader(file);
    EXPECT_EQ(reader.recordCount(), 0u);
    EXPECT_EQ(reader.next(), nullptr);
}

TEST_F(TraceTest, MissingFileIsRejected)
{
    const SimError e = rejectOf(path("no_such_file.trrtrc"));
    EXPECT_EQ(e.category(), ErrorCategory::TraceCorrupt);
    EXPECT_NE(e.message().find("cannot open"), std::string::npos)
        << e.message();
}

TEST_F(TraceTest, TruncatedHeaderIsRejected)
{
    const std::string file = path("truncated.trrtrc");
    std::ofstream(file, std::ios::binary) << "trriptrc";
    const SimError e = rejectOf(file);
    EXPECT_EQ(e.category(), ErrorCategory::TraceCorrupt);
    EXPECT_NE(e.message().find("truncated header"), std::string::npos)
        << e.message();
}

TEST_F(TraceTest, BadMagicIsRejected)
{
    const std::string file = path("badmagic.trrtrc");
    std::ofstream(file, std::ios::binary)
        << std::string(sizeof(TraceHeader), '\0');
    const SimError e = rejectOf(file);
    EXPECT_EQ(e.category(), ErrorCategory::TraceCorrupt);
    EXPECT_NE(e.message().find("bad magic"), std::string::npos)
        << e.message();
}

TEST_F(TraceTest, CorruptHeaderAndPayloadAreRejected)
{
    const std::string file = path("corrupt.trrtrc");
    {
        TraceWriter writer(file);
        for (int i = 0; i < 20; ++i)
            writer.append(plainAt(0x1000 + i * 4));
        writer.finish();
        ASSERT_TRUE(writer.ok()) << writer.error();
    }
    const std::vector<char> good = fileBytes(file);

    // Record count inflated past what the file holds: rejected at the
    // count field.
    {
        std::vector<char> bytes = good;
        const std::uint64_t bogus = 100000;
        std::memcpy(bytes.data() + offsetof(TraceHeader, recordCount),
                    &bogus, sizeof(bogus));
        writeBytes(file, bytes);
        const SimError e = rejectOf(file);
        EXPECT_EQ(e.category(), ErrorCategory::TraceCorrupt);
        EXPECT_NE(e.message().find("record count 100000 does not match "
                                   "the file size 1344 (byte offset 16)"),
                  std::string::npos)
            << e.message();
    }

    // Payload truncated mid-record.
    {
        std::vector<char> bytes = good;
        bytes.resize(bytes.size() / 2);
        writeBytes(file, bytes);
        EXPECT_EQ(rejectOf(file).category(), ErrorCategory::TraceCorrupt);
    }

    // A version-1 file (which carried a chunk directory) is rejected
    // at the version field, not misread.
    {
        std::vector<char> bytes = good;
        const std::uint32_t v1 = 1;
        std::memcpy(bytes.data() + offsetof(TraceHeader, version), &v1,
                    sizeof(v1));
        writeBytes(file, bytes);
        const SimError e = rejectOf(file);
        EXPECT_EQ(e.category(), ErrorCategory::TraceCorrupt);
        EXPECT_NE(e.message().find("unsupported version 1 (byte offset "
                                   "8)"),
                  std::string::npos)
            << e.message();
    }
}

TEST_F(TraceTest, EveryTruncationAndHeaderBitFlipThrowsOrReadsBack)
{
    // The seed of a reader fuzzer: every truncation of a 20-record
    // trace and every single-bit flip of its header either throws
    // SimError(TraceCorrupt) naming a byte offset, or reads back the
    // 20 records unchanged.  Only padding bits may read back.
    constexpr int kRecords = 20;
    const std::string file = path("good.trrtrc");
    {
        TraceWriter writer(file);
        for (int i = 0; i < kRecords; ++i)
            writer.append(plainAt(0x1000 + i * 4, 0x9000 + i * 8));
        ASSERT_TRUE(writer.finish()) << writer.error();
    }
    const std::vector<char> good = fileBytes(file);
    ASSERT_EQ(good.size(),
              sizeof(TraceHeader) + kRecords * sizeof(TraceInstr));

    const std::string mutant = path("mutant.trrtrc");
    // True when the reader accepts @p bytes (records checked).
    const auto readsBack = [&](const std::vector<char> &bytes) {
        writeBytes(mutant, bytes);
        try {
            TraceReader reader(mutant);
            for (int i = 0; i < kRecords; ++i) {
                const TraceInstr *rec = reader.next();
                const char *want = good.data() + sizeof(TraceHeader) +
                                   i * sizeof(TraceInstr);
                EXPECT_TRUE(rec && std::memcmp(rec, want,
                                               sizeof(TraceInstr)) == 0)
                    << "record " << i;
            }
            EXPECT_EQ(reader.next(), nullptr);
            return true;
        } catch (const SimError &e) {
            EXPECT_EQ(e.category(), ErrorCategory::TraceCorrupt)
                << e.message();
            EXPECT_NE(e.message().find("byte offset"), std::string::npos)
                << e.message();
            return false;
        }
    };

    for (std::size_t len = 0; len < good.size(); ++len) {
        EXPECT_FALSE(readsBack({good.begin(),
                                good.begin() + static_cast<long>(len)}))
            << "truncated to " << len << " bytes";
    }
    for (std::size_t bit = 0; bit < sizeof(TraceHeader) * 8; ++bit) {
        std::vector<char> bytes = good;
        const std::size_t byte = bit / 8;
        bytes[byte] = static_cast<char>(bytes[byte] ^ (1 << (bit % 8)));
        const bool padding =
            (byte >= offsetof(TraceHeader, pad0) &&
             byte < offsetof(TraceHeader, recordCount)) ||
            byte >= offsetof(TraceHeader, pad);
        if (readsBack(bytes)) {
            EXPECT_TRUE(padding) << "header bit " << bit << " read back";
        }
    }
    EXPECT_EQ(mappingsOf(mutant), 0u) << "a rejected trace stayed mapped";
}

TEST_F(TraceTest, WriterOutputIsBytePure)
{
    const std::string a = path("a.trrtrc");
    const std::string b = path("b.trrtrc");
    for (const std::string &file : {a, b}) {
        TraceWriter writer(file);
        for (int i = 0; i < 100; ++i)
            writer.append(plainAt(0x4000 + i * 4, 0x8000 + i));
        writer.finish();
        ASSERT_TRUE(writer.ok()) << writer.error();
    }
    EXPECT_EQ(fileBytes(a), fileBytes(b));
}

TEST_F(TraceTest, RewritingAMappedTraceLeavesTheReaderIntact)
{
    // Two processes regenerating the same pack in place: one already
    // has the trace mapped while the other rewrites it.  The writer
    // must never truncate the mapped file (the reader would fault
    // with SIGBUS); the reader keeps seeing the old records.
    constexpr std::uint64_t kRecords = 4096;
    const std::string file = path("mapped.trrtrc");
    {
        TraceWriter writer(file);
        for (std::uint64_t i = 0; i < kRecords; ++i)
            writer.append(plainAt(0x1000 + i * 4, 0x9000 + i * 8));
        ASSERT_TRUE(writer.finish()) << writer.error();
    }
    TraceReader reader(file);

    TraceWriter rewriter(file);
    for (std::uint64_t i = 0; i < 3; ++i)
        rewriter.append(plainAt(0x7000 + i * 4));
    for (std::uint64_t i = 0; i < kRecords; ++i) {
        const TraceInstr *rec = reader.next();
        ASSERT_NE(rec, nullptr) << "record " << i;
        EXPECT_EQ(rec->ip, 0x1000 + i * 4);
        EXPECT_EQ(rec->srcMem[0], 0x9000 + i * 8);
    }
    EXPECT_EQ(reader.next(), nullptr);

    // Once finished, the path names the new trace in full.
    ASSERT_TRUE(rewriter.finish()) << rewriter.error();
    EXPECT_EQ(TraceReader(file).recordCount(), 3u);
    EXPECT_EQ(std::distance(std::filesystem::directory_iterator(dir_),
                            std::filesystem::directory_iterator()),
              1)
        << "the writer left a temporary file behind";
}

TEST_F(TraceTest, FailedWriterLeavesNoTemporaryFile)
{
    // A writer whose target directory does not exist fails up front;
    // one that fails at finish() (the target is a directory, so the
    // rename cannot replace it) removes its temporary file.
    TraceWriter missing(path("no_such_dir/x.trrtrc"));
    EXPECT_FALSE(missing.ok());

    const std::string target = path("occupied");
    std::filesystem::create_directories(target + "/child");
    TraceWriter writer(target);
    writer.append(plainAt(0x1000));
    EXPECT_FALSE(writer.finish());
    EXPECT_NE(writer.error().find("cannot rename"), std::string::npos)
        << writer.error();
    EXPECT_EQ(std::distance(std::filesystem::directory_iterator(dir_),
                            std::filesystem::directory_iterator()),
              1)
        << "the failed writer left a temporary file behind";
}

/**
 * Write a gather block: @p gather consecutive instructions with 4
 * loads each, then a direct jump back to the start.
 */
void
writeGatherTrace(const std::string &file, int gather)
{
    TraceWriter writer(file);
    std::uint64_t ip = 0x1000;
    for (int i = 0; i < gather; ++i) {
        TraceInstr in;
        in.ip = ip;
        in.destRegs[0] = 1;
        for (int s = 0; s < 4; ++s)
            in.srcMem[s] = 0x9000 + (i * 4 + s) * 8;
        writer.append(in);
        ip += 4;
    }
    TraceInstr jump;
    jump.ip = ip;
    jump.isBranch = 1;
    jump.branchTaken = 1;
    jump.destRegs[0] = kRegInstructionPointer;
    writer.append(jump);
    writer.finish();
    EXPECT_TRUE(writer.ok()) << writer.error();
}

TEST_F(TraceTest, BlockWithMoreAccessesThanEventSlotsIsSplit)
{
    // 5 x 4 = 20 accesses in one static block: more than
    // kBBEventDataSlots, so the source must emit two events with a
    // pure fall-through seam and drop nothing.
    const std::string file = path("gather.trrtrc");
    writeGatherTrace(file, 5);
    TraceEventSource source(file);

    BBEvent first;
    source.next(first);
    EXPECT_EQ(first.vaddr, 0x1000u);
    EXPECT_EQ(first.instrs, 3u);  // 3 x 4 fits; a 4th would overflow.
    EXPECT_EQ(first.numData, 12u);
    EXPECT_FALSE(first.hasBranch) << "split seam must fall through";

    BBEvent second;
    source.next(second);
    EXPECT_EQ(second.vaddr, 0x100cu);
    EXPECT_EQ(second.instrs, 3u);  // 2 gathers + the jump.
    EXPECT_EQ(second.numData, 8u);
    EXPECT_TRUE(second.hasBranch);
    EXPECT_TRUE(second.branch.taken);

    // Every access survived, in program order, with correct pcs.
    std::vector<std::uint64_t> seen;
    for (int i = 0; i < first.numData; ++i)
        seen.push_back(first.data[i].vaddr);
    for (int i = 0; i < second.numData; ++i)
        seen.push_back(second.data[i].vaddr);
    ASSERT_EQ(seen.size(), 20u);
    for (int i = 0; i < 20; ++i)
        EXPECT_EQ(seen[i], 0x9000 + i * 8u);

    // The seam block got its own id; ids are stable across laps.
    EXPECT_NE(first.bb, second.bb);
    BBEvent lap2first;
    source.next(lap2first);
    EXPECT_EQ(lap2first.bb, first.bb);
    EXPECT_EQ(source.passes(), 1u);
}

TEST_F(TraceTest, ProduceMatchesEventAtATimeReplay)
{
    generateMiniTrace("dispatch", path("dispatch.trrtrc"));
    TraceEventSource batched(path("dispatch.trrtrc"));
    TraceEventSource single(path("dispatch.trrtrc"));

    // Drive the batched source through the ring contract with awkward
    // batch sizes and wrap-around positions.
    constexpr std::uint32_t kRing = 64;
    std::vector<BBEvent> ring(kRing);
    std::uint32_t pos = 0;
    const std::uint32_t batches[] = {1, 7, 64, 13, 32, 64, 5, 50};
    for (const std::uint32_t count : batches) {
        batched.produce(ring.data(), kRing - 1, pos, count);
        for (std::uint32_t k = 0; k < count; ++k) {
            const BBEvent &got = ring[(pos + k) & (kRing - 1)];
            BBEvent want;
            single.next(want);
            ASSERT_EQ(got.bb, want.bb);
            ASSERT_EQ(got.vaddr, want.vaddr);
            ASSERT_EQ(got.instrs, want.instrs);
            ASSERT_EQ(got.bytes, want.bytes);
            ASSERT_EQ(got.hasBranch, want.hasBranch);
            ASSERT_EQ(got.numData, want.numData);
            for (std::uint8_t d = 0; d < got.numData; ++d) {
                ASSERT_EQ(got.data[d].vaddr, want.data[d].vaddr);
                ASSERT_EQ(got.data[d].isStore, want.data[d].isStore);
            }
            if (got.hasBranch) {
                ASSERT_EQ(got.branch.pc, want.branch.pc);
                ASSERT_EQ(got.branch.target, want.branch.target);
                ASSERT_EQ(got.branch.taken, want.branch.taken);
            }
        }
        pos = (pos + count) & (kRing - 1);
    }
    EXPECT_EQ(batched.passes(), single.passes());
}

TEST_F(TraceTest, MiniPackRegeneratesByteIdentically)
{
    const auto first = generateMiniTracePack(path("pack1"));
    const auto second = generateMiniTracePack(path("pack2"));
    ASSERT_EQ(first.size(), second.size());
    ASSERT_EQ(first.size(), miniTraceNames().size());
    for (std::size_t i = 0; i < first.size(); ++i) {
        const auto a = fileBytes(first[i]);
        EXPECT_FALSE(a.empty());
        EXPECT_EQ(a, fileBytes(second[i])) << first[i];
    }
}

TEST_F(TraceTest, TraceIndexCountsOnePass)
{
    generateMiniTrace("streaming", path("streaming.trrtrc"));
    const TraceIndex index = buildTraceIndex(path("streaming.trrtrc"));
    EXPECT_GT(index.recordCount, 0u);
    // One record is one instruction, and a lap consumes each record
    // exactly once.
    EXPECT_EQ(index.passInstructions, index.recordCount);
    EXPECT_FALSE(index.blocks.empty());
    EXPECT_EQ(index.program.numBlocks(), index.blocks.size());
    // Every block the pre-pass saw has a nonzero count.
    std::uint64_t counted = 0;
    for (std::size_t b = 0; b < index.blocks.size(); ++b)
        counted += index.profile.count(static_cast<std::uint32_t>(b));
    EXPECT_GT(counted, 0u);
}

TEST_F(TraceTest, TraceNameSchemeRoundTrips)
{
    EXPECT_TRUE(isTraceName("trace:foo/bar.trrtrc"));
    EXPECT_FALSE(isTraceName("python"));
    EXPECT_FALSE(isTraceName("tracey"));
    EXPECT_EQ(tracePathOf("trace:foo/bar.trrtrc"), "foo/bar.trrtrc");
    EXPECT_EQ(tracePathOf("python"), "");
}

TEST_F(TraceTest, RunTraceIsDeterministicAcrossPolicies)
{
    generateMiniTrace("dispatch", path("dispatch.trrtrc"));
    SimOptions options;
    options.maxInstructions = 60'000;

    const RunArtifacts a =
        runTrace(path("dispatch.trrtrc"), "TRRIP-2", options);
    const RunArtifacts b =
        runTrace(path("dispatch.trrtrc"), "TRRIP-2", options);
    EXPECT_EQ(a.result.cycles, b.result.cycles);
    EXPECT_EQ(a.result.instructions, b.result.instructions);
    EXPECT_EQ(a.result.l2.demandMisses, b.result.l2.demandMisses);
    EXPECT_GE(a.result.instructions, options.maxInstructions);

    // A precomputed index must not change the outcome.
    const auto index = std::make_shared<const TraceIndex>(
        buildTraceIndex(path("dispatch.trrtrc")));
    const RunArtifacts c =
        runTrace(path("dispatch.trrtrc"), "TRRIP-2", options, index);
    EXPECT_EQ(a.result.cycles, c.result.cycles);

    // The policy axis must matter (LRU vs TRRIP differ on this
    // dispatcher-shaped trace).
    const RunArtifacts lru =
        runTrace(path("dispatch.trrtrc"), "LRU", options);
    EXPECT_EQ(lru.resolvedPolicies[2].second.find("LRU"), 0u)
        << lru.resolvedPolicies[2].second;
}

TEST_F(TraceTest, ExperimentGridMixesProxiesAndTraces)
{
    const auto pack = generateMiniTracePack(path("pack"));

    exp::ExperimentSpec spec;
    spec.name = "trace_mix";
    spec.workloads = {"python", kTracePrefix + pack[0],
                      kTracePrefix + pack[1]};
    spec.policies = {"LRU", "TRRIP-2"};
    spec.options.maxInstructions = 40'000;
    spec.options.profileInstructions = 10'000;

    exp::ExperimentRunner runner(2);
    const exp::ExperimentResults results = runner.run(spec);

    ASSERT_EQ(results.cells().size(), 6u);
    std::uint64_t traceCells = 0;
    for (const exp::CellRecord &rec : results.cells()) {
        EXPECT_TRUE(rec.valid);
        EXPECT_GT(rec.result().instructions, 0u);
        EXPECT_FALSE(rec.metrics.empty());
        if (isTraceName(rec.workload))
            ++traceCells;
    }
    EXPECT_EQ(traceCells, 4u);

    // The shared index was built once per trace, not once per cell;
    // each row asks once for both of its policy lanes.
    EXPECT_EQ(runner.profiles().collections(), 3u);  // python + 2.
    EXPECT_EQ(runner.profiles().hits(), 0u);

    // Same grid, serial runner: bit-identical cycles per cell.
    exp::ExperimentRunner serial(1);
    const exp::ExperimentResults serialResults = serial.run(spec);
    for (const std::string &w : spec.workloads) {
        for (const std::string &p : spec.policies) {
            EXPECT_EQ(serialResults.result(w, p).cycles,
                      results.result(w, p).cycles)
                << w << " x " << p;
        }
    }
}

TEST_F(TraceTest, ProfileCacheSharesTraceIndexes)
{
    generateMiniTrace("dispatch", path("dispatch.trrtrc"));
    exp::ProfileCache cache;
    const auto a = cache.traceIndex(path("dispatch.trrtrc"));
    const auto b = cache.traceIndex(path("dispatch.trrtrc"));
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(a.get(), b.get());
    EXPECT_EQ(cache.collections(), 1u);
    EXPECT_EQ(cache.hits(), 1u);
    // Another cache builds its own.
    exp::ProfileCache other;
    const auto c = other.traceIndex(path("dispatch.trrtrc"));
    EXPECT_NE(a.get(), c.get());
}

} // namespace
} // namespace trrip::trace
