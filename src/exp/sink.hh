/**
 * @file
 * Pluggable consumers of experiment results.
 *
 * The runner feeds every valid cell to each sink in deterministic cell
 * order after the grid completes, so sink output never depends on the
 * thread schedule.  Shipped sinks: the fixed-width per-cell table
 * (human progress), and JSON / CSV writers producing machine-readable
 * BENCH_<name>.{json,csv} trajectories for plotting and regression
 * tracking.
 *
 * The machine-readable sinks canonicalize policy-axis labels through
 * the PolicyRegistry ("SRRIP" -> "SRRIP(bits=2)") and the JSON writer
 * records each simulation cell's per-level resolved policies, so a
 * row always names the exact configuration that produced it, and a
 * bare name and its fully spelled-out spec emit identical files.
 * Timing fields (wall seconds, thread count) stay on stdout only:
 * BENCH files are byte-reproducible across runs and thread counts.
 * A JSON or CSV writer that cannot open its file, or whose stream is
 * bad after its last write and close, calls fatal() naming the path:
 * no bench exits 0 without its BENCH file.
 *
 * Failed cells become schema-stable error rows: the JSON writer
 * replaces the metrics object with {"error": {"category", "message"}}
 * and the CSV writer appends error_category/error_message columns
 * (only when the run produced at least one error row).  Error
 * messages are deterministic for a given outcome, so files stay
 * byte-reproducible even for runs with failures.
 */

#ifndef TRRIP_EXP_SINK_HH
#define TRRIP_EXP_SINK_HH

#include <fstream>
#include <string>
#include <vector>

#include "exp/runner.hh"
#include "exp/spec.hh"

namespace trrip::exp {

/** Observer of one experiment run. */
class ResultSink
{
  public:
    virtual ~ResultSink() = default;

    virtual void begin(const ExperimentSpec &spec) { (void)spec; }
    virtual void cell(const CellRecord &record) { (void)record; }
    virtual void end(const ExperimentResults &results)
    {
        (void)results;
    }
};

/** Fixed-width per-cell metric table on stdout. */
class TableSink : public ResultSink
{
  public:
    /** @p metrics: columns to print; empty = a default selection. */
    explicit TableSink(std::vector<std::string> metrics = {});

    void begin(const ExperimentSpec &spec) override;
    void cell(const CellRecord &record) override;

  private:
    std::vector<std::string> metrics_;
};

/** BENCH_<name>.json: spec axes + every cell's metric map. */
class JsonSink : public ResultSink
{
  public:
    /** @p path empty = "<dir>/BENCH_<spec.name>.json" where dir comes
     *  from TRRIP_RESULTS_DIR (default "."). */
    explicit JsonSink(std::string path = "");

    void begin(const ExperimentSpec &spec) override;
    void cell(const CellRecord &record) override;
    void end(const ExperimentResults &results) override;

  private:
    std::string path_;
    std::ofstream out_;
    bool firstCell_ = true;
};

/** BENCH_<name>.csv: one row per cell, one column per metric. */
class CsvSink : public ResultSink
{
  public:
    explicit CsvSink(std::string path = "");

    void begin(const ExperimentSpec &spec) override;
    /** Writes every valid record of @p results, in index order. */
    void end(const ExperimentResults &results) override;

  private:
    std::string path_;
};

/** Resolved output path "<TRRIP_RESULTS_DIR or .>/BENCH_<stem>.<ext>". */
std::string defaultSinkPath(const std::string &stem,
                            const std::string &ext);

/** One-line run summary: live cells, threads, wall time, cache. */
void printRunSummary(const ExperimentResults &results);

/** @name Fixed-width table helpers (shared by the bench tables). */
/** @{ */
void banner(const std::string &title);
void printHeader(const std::string &first,
                 const std::vector<std::string> &columns, int width = 10);
void printRow(const std::string &first,
              const std::vector<double> &values, int width = 10,
              int precision = 2);
/** @} */

} // namespace trrip::exp

#endif // TRRIP_EXP_SINK_HH
