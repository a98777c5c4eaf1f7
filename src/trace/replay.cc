#include "trace/replay.hh"

#include <algorithm>
#include <map>

#include "core/policy_registry.hh"
#include "sim/multicore.hh"
#include "sw/temperature_classifier.hh"
#include "util/logging.hh"

namespace trrip::trace {

bool
isTraceName(const std::string &name)
{
    return name.rfind(kTracePrefix, 0) == 0;
}

std::string
tracePathOf(const std::string &name)
{
    return isTraceName(name)
               ? name.substr(std::string(kTracePrefix).size())
               : std::string();
}

TraceIndex
buildTraceIndex(const std::string &path)
{
    TraceIndex index;
    index.path = path;

    // One streaming lap: the wrap seam is detected while the lap's
    // final event is being built, so that event still belongs to the
    // lap and is counted before the loop exits.
    TraceEventSource source(path);
    index.recordCount = source.recordCount();
    BBEvent ev;
    while (true) {
        source.next(ev);
        index.profile.record(ev.bb);
        index.passInstructions += ev.instrs;
        if (source.passes() >= 1)
            break;
    }
    index.blocks = source.blocks();

    // Pseudo-program: one single-block Handler function per block, so
    // classifyTemperature() sees the same (Program, Profile) shape a
    // proxy produces.  Handler (not External) keeps every block
    // inside the classifier's view.
    for (std::size_t i = 0; i < index.blocks.size(); ++i) {
        const std::uint32_t fn = index.program.addFunction(
            "bb" + std::to_string(i), FuncKind::Handler);
        BasicBlock bb;
        bb.instrs = std::max<std::uint32_t>(1, index.blocks[i].instrs);
        bb.data.clear();
        index.program.addBodyBlock(fn, std::move(bb));
    }
    return index;
}

namespace {

/**
 * The modeled image of a trace: contiguous same-temperature runs of
 * discovered blocks become sections (the artifacts/sinks view of the
 * "binary"); gaps between blocks are never claimed.
 */
ElfImage
traceImage(const TraceIndex &index, const Classification *cls)
{
    ElfImage image;
    image.pgo = cls != nullptr;
    image.blockAddr.reserve(index.blocks.size());
    image.funcEntry.reserve(index.blocks.size());
    for (const TraceBlockInfo &b : index.blocks) {
        image.blockAddr.push_back(b.addr);
        image.funcEntry.push_back(b.addr);
        image.binaryBytes += b.bytes;
    }
    if (index.blocks.empty())
        return image;

    std::vector<std::size_t> order(index.blocks.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                  return index.blocks[a].addr < index.blocks[b].addr;
              });

    const auto temp_of = [&](std::size_t id) {
        return cls ? cls->blockTemp[id] : Temperature::None;
    };
    ElfSection sec;
    sec.name = "trace";
    sec.vaddr = index.blocks[order[0]].addr;
    sec.size = index.blocks[order[0]].bytes;
    sec.temp = temp_of(order[0]);
    for (std::size_t k = 1; k < order.size(); ++k) {
        const TraceBlockInfo &b = index.blocks[order[k]];
        const Temperature t = temp_of(order[k]);
        // Overlapping blocks (splits re-discovering a tail) extend
        // the run; only a gap or a temperature change opens a new
        // section.
        if (b.addr <= sec.end() && t == sec.temp) {
            if (b.addr + b.bytes > sec.end())
                sec.size = b.addr + b.bytes - sec.vaddr;
        } else {
            image.sections.push_back(sec);
            sec.vaddr = b.addr;
            sec.size = b.bytes;
            sec.temp = t;
        }
    }
    image.sections.push_back(sec);
    image.imageBase = image.sections.front().vaddr;
    image.imageEnd = image.sections.back().end();
    return image;
}

/**
 * Stamp PTE temperature bits for every code page a block touches.
 * Same per-page rule as sw/loader.cc (markPage), but pages are
 * enumerated from the blocks, not from the image span: a sparse
 * trace address space (shared libraries gigabytes apart) must not
 * turn loading into a walk over every page in between.
 */
LoadStats
mapTracePages(const TraceIndex &index, const Classification *cls,
              PageTable &pt, MixedPagePolicy policy)
{
    const std::uint64_t page = pt.pageSize();
    // Ordered map: deterministic stamping order for a given trace.
    std::map<Addr, std::array<std::uint64_t, 4>> byPage;
    for (std::size_t i = 0; i < index.blocks.size(); ++i) {
        const TraceBlockInfo &b = index.blocks[i];
        const Temperature t =
            cls ? cls->blockTemp[i] : Temperature::None;
        const Addr end = b.addr + std::max<std::uint32_t>(1, b.bytes);
        for (Addr p = b.addr & ~static_cast<Addr>(page - 1); p < end;
             p += page) {
            const Addr lo = std::max(p, b.addr);
            const Addr hi = std::min(p + page, end);
            byPage[p][encodeTemperature(t)] += hi - lo;
        }
    }

    LoadStats stats;
    for (const auto &[p, bytes] : byPage)
        markPage(pt, p, bytes, policy, stats);
    return stats;
}

} // namespace

TraceRuntime
prepareTrace(const std::string &path, const SimOptions &options,
             std::shared_ptr<const TraceIndex> index)
{
    TraceRuntime rt;
    if (!index) {
        index = std::make_shared<const TraceIndex>(
            buildTraceIndex(path));
    }
    panic_if(index->path != path, "trace index for '", index->path,
             "' replayed against '", path, "'");

    RunArtifacts &art = rt.art;
    // Aliasing share: the profile lives inside the shared index.
    art.profile = std::shared_ptr<const Profile>(index,
                                                 &index->profile);

    // (4)-(5) Classify block temperatures from the pre-pass profile
    // (there is no re-layout: the trace pins every address).
    const Classification *cls = nullptr;
    if (options.pgo) {
        art.classification = classifyTemperature(
            index->program, index->profile, options.classifier);
        cls = &art.classification;
    }
    art.image = traceImage(*index, cls);

    // (6)-(8) Stamp the PTE temperature attribute bits.
    rt.pageTable = std::make_unique<PageTable>(options.pageSize);
    art.loadStats = mapTracePages(*index, cls, *rt.pageTable,
                                  options.pagePolicy);
    return rt;
}

RunArtifacts
runTrace(const std::string &path, const std::string &policy_spec,
         const SimOptions &options,
         std::shared_ptr<const TraceIndex> index)
{
    MultiCoreOptions mo;
    mo.base = options;
    const CoreInput core{.tracePath = path, .traceIndex = std::move(index)};
    return std::move(runBundle({core}, {{PolicySpec(policy_spec)}}, mo)
                         .front()
                         .cores.front());
}

} // namespace trrip::trace
