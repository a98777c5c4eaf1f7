/**
 * @file
 * Mini-trace pack generator CLI.
 *
 *   trace_gen [dir]            regenerate the whole pack (default
 *                              directory: mini_traces)
 *   trace_gen [dir] <name>...  regenerate only the named traces
 *
 * Output is byte-identical on every invocation (see
 * src/trace/generate.hh), so the pack can be rebuilt anywhere --
 * CI jobs generate it in-job instead of downloading trace files.
 */

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "trace/generate.hh"
#include "trace/reader.hh"

int
main(int argc, char **argv)
{
    using namespace trrip::trace;

    std::string dir = "mini_traces";
    std::vector<std::string> names;
    if (argc > 1)
        dir = argv[1];
    for (int i = 2; i < argc; ++i)
        names.emplace_back(argv[i]);
    if (names.empty())
        names = miniTraceNames();

    std::error_code ec;
    std::filesystem::create_directories(dir, ec);

    for (const std::string &name : names) {
        const std::string path = miniTracePath(dir, name);
        generateMiniTrace(name, path);
        try {
            const TraceReader reader(path);
            std::printf("%s: %llu records, %llu bytes\n", path.c_str(),
                        static_cast<unsigned long long>(
                            reader.recordCount()),
                        static_cast<unsigned long long>(
                            std::filesystem::file_size(path)));
        } catch (const trrip::SimError &e) {
            std::fprintf(stderr, "error: %s\n", e.message().c_str());
            return 1;
        }
    }
    return 0;
}
