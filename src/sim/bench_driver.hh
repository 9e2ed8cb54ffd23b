/**
 * @file
 * Shared driver for the bench and example binaries.
 *
 * Every bench used to copy-paste the same prologue (parse Options,
 * derive a StudyConfig, pick an LLC capacity, build a ParallelRunner)
 * and epilogue (print the table as text or CSV).  BenchDriver owns
 * that flow once: it parses the common flags, routes tables and notes
 * to the selected output format, and on finish() emits the structured
 * JSON document through ResultSink when requested.
 *
 * Common flags (all benches):
 *   --format={text,csv,json}  output format on stdout (default text;
 *                             --csv is accepted as an alias for csv)
 *   --stats-out=PATH          additionally write the JSON document to
 *                             PATH, regardless of --format
 *   --jobs=N                  parallel worker count (see Options::jobs)
 *   --daemon=PATH             resolve experiment requests through the
 *                             casimd instance listening on the Unix
 *                             socket PATH instead of executing locally
 *   plus every StudyConfig::fromOptions override (--scale, --threads,
 *   --capture-dir, ...).
 *
 * The default text output is byte-identical to what the benches
 * printed before BenchDriver existed.
 */

#ifndef CASIM_SIM_BENCH_DRIVER_HH
#define CASIM_SIM_BENCH_DRIVER_HH

#include <memory>
#include <string>

#include "common/options.hh"
#include "common/timer.hh"
#include "sim/config.hh"
#include "sim/parallel.hh"
#include "sim/result_sink.hh"

namespace casim {

class CaptureCache;
class DaemonClient;
class ExperimentQueue;
class ExperimentService;

/** Output format selected by --format / --csv. */
enum class OutputFormat
{
    Text,
    Csv,
    Json,
};

/** One bench binary's option parsing, output routing and JSON sink. */
class BenchDriver
{
  public:
    /**
     * Parse the command line.  Fatal on an unknown --format value.
     *
     * @param bench Bench name stamped into the JSON document.
     */
    BenchDriver(std::string bench, int argc, const char *const *argv);

    /** Out-of-line so the unique_ptr members' types can stay forward
     * declarations in this header. */
    ~BenchDriver();

    /** The parsed command line (for bench-specific flags). */
    const Options &options() const { return options_; }

    /** The study configuration with overrides applied. */
    const StudyConfig &config() const { return config_; }

    /** The stdout format in effect. */
    OutputFormat format() const { return format_; }

    /**
     * The LLC capacity in bytes selected by --llc-mb, defaulting to
     * the study's small capacity.
     */
    std::uint64_t llcBytes() const;

    /**
     * The shared worker pool, sized by --jobs and created on first
     * use so purely serial benches never start threads.
     */
    ParallelRunner &runner();

    /** The JSON sink (to register bench-specific stat groups). */
    ResultSink &sink() { return sink_; }

    /**
     * The process capture cache, created on first use.  This is the
     * injected handle the queue captures workloads through; benches
     * that capture directly take it too.
     */
    CaptureCache &captureCache();

    /**
     * The experiment service this bench submits requests to: a local
     * ExperimentQueue on the driver's cache and runner, or — under
     * --daemon=PATH — a DaemonClient forwarding to the casimd at PATH.
     * Created on first use; either way the bench's output is
     * byte-identical.
     */
    ExperimentService &service();

    /**
     * Report a finished figure table: records it in the sink and
     * prints it to stdout as text or CSV (nothing for json, which
     * defers to finish()).
     */
    void report(const TablePrinter &table);

    /**
     * Report a free-form note line: recorded in the sink, printed to
     * stdout (with a trailing newline) except under --format=json.
     */
    void note(const std::string &text);

    /**
     * Finalize the run: register the driver, runner and capture-cache
     * stat groups, write the JSON document to stdout when
     * --format=json and to --stats-out when given.  Returns the
     * process exit code (0).
     */
    int finish();

  private:
    Options options_;
    StudyConfig config_;
    OutputFormat format_;
    std::string statsOutPath_;
    ResultSink sink_;
    std::unique_ptr<ParallelRunner> runner_;
    std::unique_ptr<CaptureCache> captureCache_;
    std::unique_ptr<ExperimentQueue> queue_;
    std::unique_ptr<DaemonClient> client_;
    PhaseTimer wallTimer_;
    stats::StatGroup benchStats_;
};

} // namespace casim

#endif // CASIM_SIM_BENCH_DRIVER_HH
