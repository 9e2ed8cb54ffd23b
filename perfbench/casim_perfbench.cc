/**
 * @file
 * casim benchmark harness: one named workload, measured for a fixed
 * host-time budget, with its results hashed for the digest check.
 *
 * Usage:
 *   casim_perfbench --workload=W --seed=N --seconds=S [--trace]
 *                   [--scale=X] [--setups=K] [--jobs=J]
 *                   [--casimd=PATH] [--tamper]
 *
 * Workloads (see perfbench/README.md for the rationale):
 *   replay-warm   wide Fig. 5/7-shaped batches over all 26 applications
 *                 against resident captures (ExperimentQueue in process)
 *   daemon-mixed  three closed-loop clients against a real casimd on a
 *                 Unix socket, with a resident budget below the mix's
 *                 footprint and a few cold capture identities
 *
 * The harness calls only public functions of src/.  It prints one JSON
 * report on the last line of stdout: end-to-end metrics, per-layer
 * metrics when --trace is given, the results digest, the operation
 * counts and the problems found by its own correctness checks.
 * perfbench/run.py builds the harness, compares the digest with the
 * committed one and formats the final result.
 */

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/json.hh"
#include "common/options.hh"
#include "common/simd.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "mem/repl/factory.hh"
#include "sim/capture_cache.hh"
#include "sim/daemon.hh"
#include "sim/experiment.hh"
#include "sim/hierarchy_sim.hh"
#include "sim/parallel.hh"
#include "sim/queue.hh"
#include "sim/request.hh"
#include "sim/result_sink.hh"
#include "sim/sharded_sim.hh"
#include "trace/next_use.hh"
#include "wgen/registry.hh"

using namespace casim;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

constexpr std::uint64_t kMiB = 1024 * 1024;
constexpr std::uint64_t kSmallLlc = 4 * kMiB;
constexpr std::uint64_t kLargeLlc = 8 * kMiB;

/** Applications the per-layer probe times each layer on (all suites). */
const std::vector<std::string> kProbeApps{"canneal", "streamcluster",
                                          "ocean", "art_omp"};

struct Settings
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    double scale = 0.0;
    unsigned setups = 3;
    unsigned jobs = 4;
    std::string casimd;
    bool tamper = false;
};

/** Named metric values in report order. */
struct Metrics
{
    std::vector<std::tuple<std::string, double, std::string>> items;

    void
    add(const std::string &name, double value, const std::string &unit)
    {
        items.emplace_back(name, value, unit);
    }
};

/** Operation counts and the problems the correctness checks found. */
struct Outcome
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> problems;
    std::string digest;
    std::uint64_t digestCells = 0;

    /** Host seconds of each measured pass (in-process workloads). */
    std::vector<double> passSeconds;

    /** Requests the latency percentiles were taken over. */
    std::size_t latencySamples = 0;

    void
    problem(const std::string &why)
    {
        if (problems.size() < 20)
            problems.push_back(why);
    }
};

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
total(const std::vector<double> &v)
{
    return std::accumulate(v.begin(), v.end(), 0.0);
}

/** Nearest-rank percentile, q in (0, 1]. */
double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t rank =
        static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
    rank = std::clamp<std::size_t>(rank, 1, v.size());
    return v[rank - 1];
}

/** Peak resident set of this process, MiB. */
double
selfPeakRssMb()
{
    struct rusage usage = {};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/** Peak resident set (VmHWM) of another process, MiB; 0 if unknown. */
double
processPeakRssMb(pid_t pid)
{
    std::ifstream status("/proc/" + std::to_string(pid) + "/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    }
    return 0.0;
}

// ---------------------------------------------------------------------
// Results digest and result checks

/** 64-bit FNV-1a over the canonical request and result rows. */
class Digest
{
  public:
    void
    add(const std::string &text)
    {
        for (const char c : text) {
            hash_ ^= static_cast<unsigned char>(c);
            hash_ *= 0x100000001b3ULL;
        }
    }

    std::string
    hex() const
    {
        char buf[17];
        std::snprintf(buf, sizeof(buf), "%016llx",
                      static_cast<unsigned long long>(hash_));
        return buf;
    }

  private:
    std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/** A result's canonical toRows() form as one string. */
std::string
rowsText(const ExperimentResult &result)
{
    std::string text;
    for (const auto &row : result.toRows()) {
        for (std::size_t i = 0; i < row.size(); ++i) {
            text += i ? "=" : "";
            text += row[i];
        }
        text += '\n';
    }
    return text;
}

/**
 * Digest of a batch: every request's canonical JSON followed by its
 * result rows.  `tamper` alters the first result before hashing, which
 * is how the self-test proves the digest check rejects a changed
 * result.
 */
std::string
digestOf(const std::vector<ExperimentRequest> &requests,
         const std::vector<ExperimentResult> &results, bool tamper)
{
    Digest digest;
    for (std::size_t i = 0; i < requests.size(); ++i) {
        ExperimentResult result = results[i];
        if (tamper && i == 0)
            result.misses += 1;
        digest.add(requests[i].toJson());
        digest.add("\n");
        digest.add(rowsText(result));
    }
    return digest.hex();
}

/**
 * Checks that need no reference run: no cell misses more often than it
 * references the LLC, and no replay beats Belady's OPT on the same
 * stream and capacity when the batch holds the OPT cell.  Returns the
 * number of cells that failed.
 */
std::uint64_t
checkResults(const std::vector<ExperimentRequest> &requests,
             const std::vector<ExperimentResult> &results, Outcome &out)
{
    std::map<std::pair<std::string, std::uint64_t>, std::uint64_t> opt;
    for (std::size_t i = 0; i < requests.size(); ++i) {
        const ExperimentRequest &r = requests[i];
        if (r.kind == "replay" && r.policy == "opt" && r.labeler.empty())
            opt[{r.workload + "#" + std::to_string(r.config.workload.seed),
                 r.effectiveLlcBytes()}] = results[i].misses;
    }
    std::uint64_t bad = 0;
    for (std::size_t i = 0; i < requests.size(); ++i) {
        const ExperimentRequest &r = requests[i];
        const ExperimentResult &res = results[i];
        if (res.misses > res.streamRefs) {
            ++bad;
            out.problem("more misses than references: " + r.toJson());
            continue;
        }
        if (r.kind != "replay" || r.prefetch)
            continue;
        const auto it = opt.find(
            {r.workload + "#" + std::to_string(r.config.workload.seed),
             r.effectiveLlcBytes()});
        if (it != opt.end() && res.misses < it->second) {
            ++bad;
            out.problem("fewer misses than OPT: " + r.toJson());
        }
    }
    return bad;
}

// ---------------------------------------------------------------------
// Request construction

StudyConfig
studyConfig(double scale, std::uint64_t seed)
{
    StudyConfig config;
    config.workload.scale = scale;
    config.workload.seed = seed;
    config.llcSmallBytes = kSmallLlc;
    config.llcLargeBytes = kLargeLlc;
    return config;
}

ExperimentRequest
replayCell(const StudyConfig &config, const std::string &app,
           const std::string &policy, std::uint64_t llc,
           const std::string &labeler = "")
{
    ExperimentRequest request;
    request.workload = app;
    request.policy = policy;
    request.llcBytes = llc;
    request.labeler = labeler;
    request.shards = 4;
    request.config = config;
    return request;
}

ExperimentRequest
captureCell(const StudyConfig &config, const std::string &app)
{
    ExperimentRequest request;
    request.kind = "capture";
    request.workload = app;
    request.config = config;
    return request;
}

std::vector<std::string>
appNames()
{
    std::vector<std::string> names;
    for (const auto &info : allWorkloads())
        names.push_back(info.name);
    return names;
}

/**
 * The replay-warm batch: the plain policies and OPT at 4 MB, the
 * oracle-labeled sa+lru / sa+srrip at 4 and 8 MB, and a pc-pred slice
 * over every other application.
 */
std::vector<ExperimentRequest>
replayWarmCells(const StudyConfig &config)
{
    std::vector<ExperimentRequest> cells;
    const auto apps = appNames();
    for (std::size_t a = 0; a < apps.size(); ++a) {
        for (const char *policy :
             {"lru", "srrip", "nru", "drrip", "ship", "tadrrip", "opt"})
            cells.push_back(replayCell(config, apps[a], policy, kSmallLlc));
        for (const char *policy : {"lru", "srrip"})
            for (const std::uint64_t llc : {kSmallLlc, kLargeLlc})
                cells.push_back(
                    replayCell(config, apps[a], policy, llc, "oracle"));
        if (a % 2 == 0)
            cells.push_back(
                replayCell(config, apps[a], "lru", kSmallLlc, "pc-pred"));
    }
    return cells;
}

/**
 * The daemon-mixed catalogue: every warm cell the client mix can ask
 * for (lru/srrip/nru/opt at 4 and 8 MB, oracle sa+lru at 4 MB).
 */
std::vector<ExperimentRequest>
daemonCatalogue(const StudyConfig &config)
{
    std::vector<ExperimentRequest> cells;
    for (const auto &app : appNames()) {
        for (const char *policy : {"lru", "srrip", "nru", "opt"})
            for (const std::uint64_t llc : {kSmallLlc, kLargeLlc})
                cells.push_back(replayCell(config, app, policy, llc));
        cells.push_back(replayCell(config, app, "lru", kSmallLlc, "oracle"));
    }
    return cells;
}

std::uint64_t
replayRefs(const std::vector<ExperimentRequest> &requests,
           const std::vector<ExperimentResult> &results)
{
    std::uint64_t refs = 0;
    for (std::size_t i = 0; i < requests.size(); ++i)
        if (requests[i].kind != "capture")
            refs += results[i].streamRefs;
    return refs;
}

// ---------------------------------------------------------------------
// Stat snapshots

std::uint64_t
counterIn(const stats::StatGroup &group, const std::string &name)
{
    const auto value = stats::counterValue(group.find(name));
    return value ? *value : 0;
}

/**
 * The counters the traced run reports as deltas over the loop, by their
 * stats-document name (group.stat).
 */
const std::vector<std::string> kLayerCounters{
    "label_plane.builds",       "label_plane.memo_hits",
    "capture_cache.memo_hits",  "capture_cache.bytes_mapped",
    "resident_store.evictions", "queue.lease_warms",
    "queue.lease_waits",        "queue.dedup_hits",
    "sharded_replay.serial_fallbacks"};

using Counters = std::map<std::string, double>;

/** kLayerCounters read from the in-process groups. */
Counters
localCounters(CaptureCache &cache, const ExperimentQueue &queue)
{
    const std::vector<const stats::StatGroup *> groups{
        &labelPlaneStats(), &cache.stats(), &cache.residentStats(),
        &queue.stats(), &shardedReplayStats()};
    Counters c;
    for (const auto &name : kLayerCounters)
        for (const stats::StatGroup *group : groups)
            if (const auto value = stats::counterValue(group->find(name)))
                c[name] = static_cast<double>(*value);
    return c;
}

/** Value of one stat of a casimd stats document (0 when absent). */
double
docStat(const json::Value &doc, const std::string &name)
{
    const std::string group = name.substr(0, name.find('.'));
    const json::Value *all = doc.find("stats");
    const json::Value *g = all ? all->find(group) : nullptr;
    const json::Value *stat = g ? g->find(name) : nullptr;
    const json::Value *value = stat ? stat->find("value") : nullptr;
    return value && value->isNumber() ? value->number() : 0.0;
}

/** kLayerCounters read from a casimd stats document. */
Counters
daemonCounters(const json::Value &doc)
{
    Counters c;
    for (const auto &name : kLayerCounters)
        c[name] = docStat(doc, name);
    return c;
}

/** `total` += `after` - `before`, counter by counter. */
void
addDelta(const Counters &before, const Counters &after, Counters &total)
{
    for (const auto &name : kLayerCounters)
        total[name] += after.at(name) - before.at(name);
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

/** Per-layer counter metrics from counter deltas over the loop. */
void
addCounterMetrics(Counters d, Metrics &m)
{
    const double builds = d["label_plane.builds"];
    const double memo = d["capture_cache.memo_hits"];
    m.add("trace.label_plane.builds", builds, "count");
    m.add("trace.label_plane.memo_ratio",
          ratio(d["label_plane.memo_hits"],
                d["label_plane.memo_hits"] + builds),
          "ratio");
    m.add("sim.capture_cache.hit_ratio",
          ratio(memo, memo + d["queue.lease_warms"]), "ratio");
    m.add("sim.capture_cache.bytes_mapped", d["capture_cache.bytes_mapped"],
          "bytes");
    m.add("sim.capture_cache.evictions", d["resident_store.evictions"],
          "count");
    m.add("sim.queue.lease_waits", d["queue.lease_waits"], "count");
    m.add("sim.queue.dedup_hits", d["queue.dedup_hits"], "count");
    m.add("sim.sharded_sim.serial_fallbacks",
          d["sharded_replay.serial_fallbacks"], "count");
}

/** The resident capture of each cell's workload, kept alive. */
std::vector<std::shared_ptr<const CapturedWorkload>>
capturesOf(const std::vector<ExperimentRequest> &cells, CaptureCache &cache,
           const StudyConfig &config)
{
    std::vector<std::shared_ptr<const CapturedWorkload>> captured;
    for (const auto &cell : cells)
        captured.push_back(cache.capture(cell.workload, config));
    return captured;
}

// ---------------------------------------------------------------------
// Per-layer probes (traced runs only)

/**
 * The runner probe: one execution phase of `cells` on `runner`, each
 * task timed around executeCell exactly as the queue schedules it
 * (shards nest inline on the same pool).  Reports busy fraction with
 * its bases, task time p50/max and the nested-run count.
 */
std::vector<ExperimentResult>
probeRunner(const std::vector<ExperimentRequest> &cells,
            const std::vector<std::shared_ptr<const CapturedWorkload>>
                &captured,
            ParallelRunner &runner, Metrics &m)
{
    const std::uint64_t reentries0 =
        counterIn(runner.stats(), "runner.reentries");
    std::vector<double> task_s(cells.size());
    std::vector<ExperimentResult> results(cells.size());
    const auto t0 = Clock::now();
    runner.run(cells.size(), [&](std::size_t i) {
        const auto t = Clock::now();
        results[i] = executeCell(cells[i], *captured[i], &runner);
        task_s[i] = secondsSince(t);
    });
    const double wall = secondsSince(t0);
    double busy = 0;
    for (const double s : task_s)
        busy += s;
    m.add("sim.parallel.busy_frac",
          ratio(busy, static_cast<double>(runner.jobs()) * wall), "ratio");
    m.add("sim.parallel.jobs", runner.jobs(), "count");
    m.add("sim.parallel.wall_s", wall, "s");
    m.add("sim.parallel.task_p50_s", median(task_s), "s");
    m.add("sim.parallel.task_max_s",
          task_s.empty() ? 0.0
                         : *std::max_element(task_s.begin(), task_s.end()),
          "s");
    m.add("sim.parallel.reentries",
          static_cast<double>(counterIn(runner.stats(),
                                        "runner.reentries") -
                              reentries0),
          "count");
    return results;
}

/** One casimd-style response document for a result (as daemon.cc). */
std::string
responseDocument(const ExperimentRequest &request,
                 const ExperimentResult &result)
{
    ResultSink sink("casimd", request.config);
    TablePrinter table("result", {"field", "value"});
    for (const auto &row : result.toRows())
        table.addRow(row);
    sink.addTable(table);
    std::ostringstream os;
    sink.writeJsonLine(os);
    return os.str();
}

/** Client-side wire cost over `cells`: mean seconds per encode/decode. */
void
probeWire(const std::vector<ExperimentRequest> &cells,
          const std::vector<ExperimentResult> &results, Metrics &m,
          Outcome &out)
{
    std::vector<std::string> docs;
    for (std::size_t i = 0; i < cells.size(); ++i)
        docs.push_back(responseDocument(cells[i], results[i]));
    std::size_t bytes = 0;
    auto t = Clock::now();
    for (const auto &cell : cells)
        bytes += cell.toJson().size();
    const double encode = secondsSince(t);
    std::size_t mismatches = 0;
    t = Clock::now();
    for (std::size_t i = 0; i < docs.size(); ++i)
        if (rowsText(decodeResponseDocument(docs[i])) !=
            rowsText(results[i]))
            ++mismatches;
    const double decode = secondsSince(t);
    if (mismatches != 0 || bytes == 0)
        out.problem("response documents do not round-trip");
    const double n = static_cast<double>(std::max<std::size_t>(1,
                                                               cells.size()));
    m.add("common.json.encode_s", encode / n, "s");
    m.add("common.json.decode_s", decode / n, "s");
}

/**
 * Time each capture and replay layer directly on kProbeApps at the
 * workload's configuration: workload generation, the MESI hierarchy,
 * the next-use chain, label planes, bundle save/map, executeCell per
 * cell kind, and K=4 against K=1 sharded replay of one cell.
 */
void
probeLayers(const StudyConfig &config, unsigned jobs, Metrics &m,
            Outcome &out)
{
    double gen_s = 0, gen_refs = 0, hier_s = 0, hier_refs = 0, llc_refs = 0;
    double index_s = 0, index_refs = 0, plane_s = 0;
    double save_s = 0, map_s = 0;
    std::map<std::string, std::pair<double, double>> kinds; // refs, s
    std::unique_ptr<CapturedWorkload> largest;

    CaptureCache cache;
    const auto windows = studyOracleWindows(config);
    for (const auto &app : kProbeApps) {
        auto t = Clock::now();
        const Trace trace = makeWorkloadTrace(app, config.workload);
        gen_s += secondsSince(t);
        gen_refs += static_cast<double>(trace.size());

        auto cw = std::make_unique<CapturedWorkload>();
        cw->info = workloadInfo(app);
        cw->demandAccesses = trace.size();
        cw->footprintBlocks = trace.footprintBlocks();
        cw->stream = Trace(app + ".llc", config.workload.threads);
        const HierarchyConfig hier = captureHierarchyConfig(config);
        t = Clock::now();
        cw->hierarchy = runHierarchy(trace, hier,
                                     requirePolicyFactory("lru"),
                                     &cw->stream);
        hier_s += secondsSince(t);
        hier_refs += static_cast<double>(trace.size());
        llc_refs += static_cast<double>(cw->stream.size());

        CaptureAux aux;
        {
            t = Clock::now();
            const NextUseIndex index(cw->stream);
            index_s += secondsSince(t);
            index_refs += static_cast<double>(cw->stream.size());
            aux.nextUse.assign(index.chainData(),
                               index.chainData() + index.size());
            for (const auto &[window, near] : windows) {
                t = Clock::now();
                const NextUseIndex::LabelPlane plane =
                    index.computeLabelPlane(window, near);
                plane_s += secondsSince(t);
                aux.planes.push_back(
                    {window, near,
                     std::vector<std::uint8_t>(plane.codes.begin(),
                                               plane.codes.end())});
            }
        }

        const std::uint64_t hash =
            captureConfigHash(app, config.workload, hier);
        const std::string path = captureCachePath("probe", app, hash);
        t = Clock::now();
        if (!cache.save(path, hash, *cw, &aux))
            out.problem("bundle save failed: " + path);
        save_s += secondsSince(t);
        CapturedWorkload mapped;
        std::string why;
        t = Clock::now();
        if (!cache.load(path, hash, mapped, &why))
            out.problem("bundle load failed: " + why);
        map_s += secondsSince(t);
        if (mapped.stream.size() != cw->stream.size())
            out.problem("mapped bundle differs from its capture: " + app);

        // Build the memoized index and planes outside the timed cells.
        for (const auto &[window, near] : windows)
            cw->nextUse().labelPlane(window, near);
        const std::vector<std::pair<std::string, ExperimentRequest>> cells{
            {"sim.stream_sim.perset", replayCell(config, app, "lru",
                                                 kSmallLlc)},
            {"sim.stream_sim.global", replayCell(config, app, "drrip",
                                                 kSmallLlc)},
            {"sim.stream_sim.opt", replayCell(config, app, "opt",
                                              kSmallLlc)},
            {"core.oracle", replayCell(config, app, "lru", kSmallLlc,
                                       "oracle")},
            {"core.pred", replayCell(config, app, "lru", kSmallLlc,
                                     "pc-pred")},
        };
        for (auto [name, request] : cells) {
            request.shards = 1;
            t = Clock::now();
            const ExperimentResult result =
                executeCell(request, *cw, nullptr);
            kinds[name].second += secondsSince(t);
            kinds[name].first += static_cast<double>(result.streamRefs);
        }
        if (!largest || cw->stream.size() > largest->stream.size())
            largest = std::move(cw);
    }
    std::error_code ec;
    std::filesystem::remove_all("probe", ec);

    m.add("wgen.gen_s", gen_s, "s");
    m.add("wgen.refs_per_s", ratio(gen_refs, gen_s), "1/s");
    m.add("mem.hierarchy.run_s", hier_s, "s");
    m.add("mem.hierarchy.refs_per_s", ratio(hier_refs, hier_s), "1/s");
    m.add("mem.hierarchy.llc_refs", llc_refs, "count");
    m.add("trace.next_use.build_s", index_s, "s");
    m.add("trace.next_use.refs_per_s", ratio(index_refs, index_s), "1/s");
    m.add("trace.label_plane.build_s", plane_s, "s");
    m.add("trace.trace_io.save_s", save_s, "s");
    m.add("trace.trace_io.map_s", map_s, "s");
    for (const auto &[name, refs_s] : kinds)
        m.add(name + ".refs_per_s", ratio(refs_s.first, refs_s.second),
              "1/s");

    // One shardable cell (LRU at 4 MB) on the largest probe stream, K=1
    // against K=4 on a pool of the workload's width; medians of three.
    ParallelRunner runner(jobs);
    ReplaySpec spec;
    spec.policy = "lru";
    spec.geo = config.llcGeometry(kSmallLlc);
    std::vector<double> k1, k4;
    std::uint64_t misses1 = 0, misses4 = 0;
    for (int rep = 0; rep < 3; ++rep) {
        spec.shards = 1;
        spec.shardRunner = nullptr;
        auto t = Clock::now();
        misses1 = replayMisses(largest->stream, spec);
        k1.push_back(secondsSince(t));
        spec.shards = 4;
        spec.shardRunner = &runner;
        t = Clock::now();
        misses4 = replayMisses(largest->stream, spec);
        k4.push_back(secondsSince(t));
    }
    if (misses1 != misses4)
        out.problem("sharded replay differs from serial replay");
    m.add("sim.sharded_sim.speedup_k4", ratio(median(k1), median(k4)), "x");
    m.add("sim.sharded_sim.k1_s", median(k1), "s");
    m.add("sim.sharded_sim.k4_s", median(k4), "s");
}

// ---------------------------------------------------------------------
// replay-warm

/**
 * The end-to-end metrics of a loop of timed passes.  Rates are
 * total work over total time: a shared host's speed switches between
 * phases lasting seconds to minutes, and a mean moves smoothly with the
 * share of each phase in a run where a median jumps between them.
 */
void
addLoopMetrics(const std::vector<double> &pass_s, double cells_per_pass,
               double refs_per_pass, double capture_refs_per_s,
               double setup_s, Metrics &m)
{
    const double passes = static_cast<double>(pass_s.size());
    std::vector<double> latency_ms;
    for (const double s : pass_s)
        latency_ms.push_back(s * 1e3);
    m.add("setup_s", setup_s, "s");
    m.add("cells_per_s", cells_per_pass * passes / total(pass_s), "1/s");
    m.add("replay_refs_per_s", refs_per_pass * passes / total(pass_s),
          "1/s");
    m.add("capture_refs_per_s", capture_refs_per_s, "1/s");
    m.add("latency_p50_ms", percentile(latency_ms, 0.5), "ms");
    m.add("latency_p99_ms", percentile(latency_ms, 0.99), "ms");
}

/** Run passes of `cells` until `seconds` have elapsed (at least one). */
template <typename PassFn>
std::vector<double>
timedPasses(double seconds, Outcome &out, PassFn pass)
{
    std::vector<double> pass_s;
    const auto start = Clock::now();
    do {
        const auto t = Clock::now();
        pass();
        pass_s.push_back(secondsSince(t));
    } while (secondsSince(start) < seconds);
    out.passSeconds = pass_s;
    out.latencySamples = pass_s.size();
    return pass_s;
}

void
runReplayWarm(const Settings &s, Metrics &e2e, Metrics &layers,
              Outcome &out)
{
    const StudyConfig config = studyConfig(s.scale, s.seed);
    const auto apps = appNames();
    const auto windows = studyOracleWindows(config);

    // Set-up: a fresh resident store with every capture, next-use index
    // and study label plane built, repeated; the last one is measured.
    std::unique_ptr<ParallelRunner> runner;
    std::unique_ptr<CaptureCache> cache;
    std::vector<double> setup_s;
    double demand_refs = 0;
    for (unsigned k = 0; k < s.setups; ++k) {
        cache.reset();
        runner.reset();
        const auto t = Clock::now();
        runner = std::make_unique<ParallelRunner>(s.jobs);
        cache = std::make_unique<CaptureCache>();
        std::vector<double> demand(apps.size());
        runner->run(apps.size(), [&](std::size_t i) {
            const auto captured = cache->capture(apps[i], config);
            demand[i] = static_cast<double>(captured->demandAccesses);
            const NextUseIndex &index = captured->nextUse();
            for (const auto &[window, near] : windows)
                index.labelPlane(window, near);
        });
        setup_s.push_back(secondsSince(t));
        demand_refs = 0;
        for (const double d : demand)
            demand_refs += d;
    }
    ExperimentQueue queue(*cache, *runner);

    const auto cells = replayWarmCells(config);
    const Counters before = localCounters(*cache, queue);
    std::vector<std::string> digests;
    std::vector<ExperimentResult> results;
    const auto pass_s = timedPasses(s.seconds, out, [&] {
        results = queue.runBatch(cells);
        out.attempted += 1;
        digests.push_back(digestOf(cells, results, s.tamper));
        if (checkResults(cells, results, out) != 0)
            out.failed += 1;
    });
    const Counters after = localCounters(*cache, queue);

    for (const auto &d : digests)
        if (d != digests.front())
            out.problem("passes disagree: digest " + d + " vs " +
                        digests.front());
    out.digest = digests.front();
    out.digestCells = cells.size();

    addLoopMetrics(pass_s, static_cast<double>(cells.size()),
                   static_cast<double>(replayRefs(cells, results)),
                   demand_refs * static_cast<double>(setup_s.size()) /
                       total(setup_s),
                   median(setup_s), e2e);
    e2e.add("peak_rss_mb", selfPeakRssMb(), "MB");

    if (!s.trace)
        return;
    Counters delta;
    addDelta(before, after, delta);
    addCounterMetrics(delta, layers);
    layers.add("sim.capture_cache.resident_bytes",
               static_cast<double>(cache->residentCounter("bytes")),
               "bytes");
    layers.add("trace.label_plane.bytes",
               static_cast<double>(labelPlaneCounter("bytes")), "bytes");
    const auto probe_results = probeRunner(
        cells, capturesOf(cells, *cache, config), *runner, layers);
    if (digestOf(cells, probe_results, s.tamper) != out.digest)
        out.problem("runner probe disagrees with the queue");
    probeWire(cells, probe_results, layers, out);
    probeLayers(config, s.jobs, layers, out);
}

// ---------------------------------------------------------------------
// daemon-mixed

/** One newline-framed client connection to casimd. */
class Connection
{
  public:
    /** Connect to `path`; retries for up to `wait_s` seconds. */
    Connection(const std::string &path, double wait_s)
    {
        sockaddr_un addr = {};
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
        const auto t0 = Clock::now();
        while (true) {
            fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
            if (fd_ >= 0 &&
                ::connect(fd_, reinterpret_cast<const sockaddr *>(&addr),
                          sizeof(addr)) == 0)
                return;
            if (fd_ >= 0)
                ::close(fd_);
            fd_ = -1;
            if (secondsSince(t0) > wait_s)
                return;
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
    }

    ~Connection()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }

    Connection(const Connection &) = delete;
    Connection &operator=(const Connection &) = delete;

    bool ok() const { return fd_ >= 0; }

    bool
    send(const std::string &line)
    {
        const std::string data = line + "\n";
        std::size_t off = 0;
        while (off < data.size()) {
            const ssize_t n = ::write(fd_, data.data() + off,
                                      data.size() - off);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                return false;
            off += static_cast<std::size_t>(n);
        }
        return true;
    }

    bool
    readLine(std::string &line)
    {
        char chunk[65536];
        std::string::size_type pos;
        while ((pos = pending_.find('\n')) == std::string::npos) {
            const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                return false;
            pending_.append(chunk, static_cast<std::size_t>(n));
        }
        line = pending_.substr(0, pos);
        pending_.erase(0, pos + 1);
        return true;
    }

  private:
    int fd_ = -1;
    std::string pending_;
};

/** A casimd child process. */
class Daemon
{
  public:
    Daemon(const std::string &exe, const std::vector<std::string> &args)
    {
        std::vector<std::string> argv_s{exe};
        argv_s.insert(argv_s.end(), args.begin(), args.end());
        std::vector<char *> argv;
        for (auto &a : argv_s)
            argv.push_back(a.data());
        argv.push_back(nullptr);
        pid_ = ::fork();
        if (pid_ == 0) {
            ::prctl(PR_SET_PDEATHSIG, SIGKILL);
            const int null_fd = ::open("/dev/null", O_WRONLY);
            if (null_fd >= 0)
                ::dup2(null_fd, STDOUT_FILENO);
            ::execv(exe.c_str(), argv.data());
            ::_exit(127);
        }
    }

    ~Daemon() { stop(""); }

    pid_t pid() const { return pid_; }

    /** Ask it to shut down (over `socket` if given), then reap it. */
    void
    stop(const std::string &socket)
    {
        if (pid_ <= 0)
            return;
        if (!socket.empty()) {
            Connection c(socket, 1.0);
            std::string reply;
            if (c.ok() && c.send("{\"op\": \"shutdown\"}"))
                c.readLine(reply);
        } else {
            ::kill(pid_, SIGTERM);
        }
        const auto t0 = Clock::now();
        int status = 0;
        while (::waitpid(pid_, &status, WNOHANG) == 0) {
            if (secondsSince(t0) > 10.0) {
                ::kill(pid_, SIGKILL);
                ::waitpid(pid_, &status, 0);
                break;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
        pid_ = -1;
    }

  private:
    pid_t pid_ = -1;
};

/** The results of one daemon reply line, or its error. */
struct Reply
{
    bool error = false;
    ExperimentResult result;
};

Reply
parseReply(const std::string &line)
{
    Reply reply;
    json::Value doc;
    std::string why;
    if (!json::parse(line, doc, &why) || !doc.isObject() ||
        doc.find("error") != nullptr) {
        reply.error = true;
        return reply;
    }
    reply.result = decodeResponseDocument(line);
    return reply;
}

/** What one client of the mix observed. */
struct ClientLog
{
    std::vector<double> latencyMs;
    std::uint64_t ops = 0;
    std::uint64_t failedOps = 0;
    std::uint64_t cells = 0;
    std::uint64_t replayRefs = 0;
    double encodeS = 0, decodeS = 0;
    std::uint64_t encoded = 0, decoded = 0;
    std::map<std::string, std::string> warm; // request JSON -> rows
    std::vector<std::string> problems;
};

/**
 * One closed-loop client: the next request goes out only after the
 * previous reply.  The mix, by draw of the client's seeded RNG:
 *   80%  single-cell replay: lru/srrip/nru/opt at 4 or 8 MB, shards=4
 *    8%  sweep op: one app, policies {lru, srrip} x {4, 8} MB
 *    8%  batch op: oracle sa+lru at 4 MB over three apps
 *    4%  cold identity: capture + LRU replay of an app at a workload
 *        seed no capture in the store has (cold capture + bundle save)
 */
void
runClient(const std::string &socket, const StudyConfig &config,
          std::uint64_t seed, unsigned client, Clock::time_point deadline,
          ClientLog &log)
{
    Connection conn(socket, 5.0);
    if (!conn.ok()) {
        log.problems.push_back("client cannot connect");
        log.ops += 1;
        log.failedOps += 1;
        return;
    }
    const auto apps = appNames();
    std::mt19937_64 rng(seed * 1000003ULL + client);
    const auto pick = [&](std::size_t n) {
        return static_cast<std::size_t>(rng() % n);
    };
    const std::vector<std::string> policies{"lru", "srrip", "nru", "opt"};
    std::uint64_t cold_counter = 0;

    while (Clock::now() < deadline) {
        const std::size_t draw = pick(100);
        std::vector<ExperimentRequest> cells;
        std::string line;
        std::size_t header_lines = 0;
        bool cold = false;
        auto t_enc = Clock::now();
        if (draw < 80) {
            cells.push_back(replayCell(config, apps[pick(apps.size())],
                                       policies[pick(policies.size())],
                                       pick(2) ? kLargeLlc : kSmallLlc));
            line = "{\"op\": \"experiment\", \"request\": " +
                   cells[0].toJson() + "}";
        } else if (draw < 88) {
            const ExperimentRequest base = replayCell(
                config, apps[pick(apps.size())], "lru", kSmallLlc);
            for (const char *p : {"lru", "srrip"})
                for (const std::uint64_t llc : {kSmallLlc, kLargeLlc}) {
                    ExperimentRequest cell = base;
                    cell.policy = p;
                    cell.llcBytes = llc;
                    cells.push_back(cell);
                }
            line = "{\"op\": \"sweep\", \"base\": " + base.toJson() +
                   ", \"policies\": [\"lru\", \"srrip\"], \"llc_bytes\": [" +
                   std::to_string(kSmallLlc) + ", " +
                   std::to_string(kLargeLlc) + "]}";
            header_lines = 1;
        } else {
            if (draw < 96) {
                for (int k = 0; k < 3; ++k)
                    cells.push_back(replayCell(config,
                                               apps[pick(apps.size())],
                                               "lru", kSmallLlc, "oracle"));
            } else {
                cold = true;
                StudyConfig cold_config = config;
                cold_config.workload.seed = 1000000007ULL * (seed + 1) +
                                            100000ULL * client +
                                            cold_counter++;
                const std::string app = apps[pick(apps.size())];
                cells.push_back(captureCell(cold_config, app));
                cells.push_back(
                    replayCell(cold_config, app, "lru", kSmallLlc));
            }
            line = "{\"op\": \"batch\", \"requests\": [";
            for (std::size_t i = 0; i < cells.size(); ++i)
                line += (i ? ", " : "") + cells[i].toJson();
            line += "]}";
        }
        log.encodeS += secondsSince(t_enc);
        log.encoded += 1;

        const auto t0 = Clock::now();
        bool failed = !conn.send(line);
        std::vector<std::string> lines;
        for (std::size_t i = 0; !failed && i < header_lines + cells.size();
             ++i) {
            std::string reply;
            if (!conn.readLine(reply))
                failed = true;
            else
                lines.push_back(std::move(reply));
        }
        log.latencyMs.push_back(secondsSince(t0) * 1e3);
        log.ops += 1;

        std::vector<ExperimentResult> results;
        for (std::size_t i = header_lines; !failed && i < lines.size();
             ++i) {
            const auto t_dec = Clock::now();
            const Reply reply = parseReply(lines[i]);
            log.decodeS += secondsSince(t_dec);
            log.decoded += 1;
            failed = reply.error;
            results.push_back(reply.result);
        }
        if (failed) {
            log.failedOps += 1;
            if (log.problems.size() < 5)
                log.problems.push_back("failed op: " + line.substr(0, 200));
            continue;
        }
        log.cells += cells.size();
        for (std::size_t i = 0; i < cells.size(); ++i) {
            if (cells[i].kind != "capture")
                log.replayRefs += results[i].streamRefs;
            if (!cold)
                log.warm.emplace(cells[i].toJson(), rowsText(results[i]));
        }
        if (cold && (results[0].streamRefs != results[1].streamRefs ||
                     results[1].misses > results[1].streamRefs ||
                     results[0].demandAccesses == 0)) {
            log.failedOps += 1;
            log.problems.push_back("inconsistent cold capture: " +
                                   cells[0].toJson());
        }
    }
}

json::Value
statsOf(Connection &conn, Outcome &out)
{
    json::Value doc;
    std::string line, why;
    if (!conn.send("{\"op\": \"stats\"}") || !conn.readLine(line) ||
        !json::parse(line, doc, &why))
        out.problem("stats op failed");
    return doc;
}

void
runDaemonMixed(const Settings &s, Metrics &e2e, Metrics &layers,
               Outcome &out)
{
    const StudyConfig config = studyConfig(s.scale, s.seed);
    const auto apps = appNames();
    const std::string dir = "captures";
    const std::string socket = "casimd.sock";

    // Set-up: fill the capture dir in process, then start casimd with a
    // resident budget of half the mix's footprint and wait for hello.
    std::unique_ptr<Daemon> daemon;
    std::vector<double> setup_s;
    double demand_refs = 0;
    std::uint64_t footprint = 0;
    for (unsigned k = 0; k < s.setups; ++k) {
        if (daemon)
            daemon->stop(socket);
        daemon.reset();
        std::error_code ec;
        std::filesystem::remove_all(dir, ec);
        const auto t = Clock::now();
        {
            StudyConfig fill = config;
            fill.captureDir = dir;
            CaptureCache cache;
            ParallelRunner runner(s.jobs);
            std::vector<double> demand(apps.size());
            runner.run(apps.size(), [&](std::size_t i) {
                demand[i] = static_cast<double>(
                    cache.capture(apps[i], fill)->demandAccesses);
            });
            footprint = cache.residentCounter("bytes");
            demand_refs = 0;
            for (const double d : demand)
                demand_refs += d;
        }
        daemon = std::make_unique<Daemon>(
            s.casimd,
            std::vector<std::string>{
                "--socket=" + socket, "--capture-dir=" + dir,
                "--jobs=" + std::to_string(s.jobs),
                "--capture-budget-bytes=" + std::to_string(footprint / 2)});
        Connection hello(socket, 30.0);
        std::string reply;
        if (!hello.ok() || !hello.send("{\"op\": \"hello\", \"protocol\": 2}") ||
            !hello.readLine(reply) || reply.find("\"error\"") !=
                                          std::string::npos) {
            out.problem("casimd did not start");
            out.attempted += 1;
            out.failed += 1;
            return;
        }
        setup_s.push_back(secondsSince(t));
    }

    Connection control(socket, 5.0);
    const json::Value stats0 = statsOf(control, out);

    constexpr unsigned kClients = 3;
    std::vector<ClientLog> logs(kClients);
    const auto start = Clock::now();
    const auto deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(s.seconds));
    {
        std::vector<std::thread> clients;
        for (unsigned c = 0; c < kClients; ++c)
            clients.emplace_back(runClient, socket, config, s.seed, c,
                                 deadline, std::ref(logs[c]));
        for (auto &t : clients)
            t.join();
    }
    const double wall = secondsSince(start);
    const json::Value stats1 = statsOf(control, out);
    const double daemon_rss = processPeakRssMb(daemon->pid());

    // Verification: the whole catalogue as one batch; its digest is the
    // workload's committed digest, and every warm reply seen in the mix
    // must equal the catalogue's result for the same cell.
    const auto catalogue = daemonCatalogue(config);
    std::vector<ExperimentResult> daemon_results;
    {
        std::string line = "{\"op\": \"batch\", \"requests\": [";
        for (std::size_t i = 0; i < catalogue.size(); ++i)
            line += (i ? ", " : "") + catalogue[i].toJson();
        line += "]}";
        control.send(line);
        for (std::size_t i = 0; i < catalogue.size(); ++i) {
            std::string reply;
            if (!control.readLine(reply)) {
                out.problem("catalogue batch failed");
                break;
            }
            const Reply r = parseReply(reply);
            if (r.error)
                out.problem("catalogue cell failed: " +
                            catalogue[i].toJson());
            daemon_results.push_back(r.result);
        }
    }
    daemon->stop(socket);
    daemon.reset();
    if (daemon_results.size() != catalogue.size()) {
        out.attempted += 1;
        out.failed += 1;
        return;
    }
    out.digest = digestOf(catalogue, daemon_results, s.tamper);
    out.digestCells = catalogue.size();
    checkResults(catalogue, daemon_results, out);

    // The same catalogue in process, over the bundles the daemon used.
    StudyConfig local_config = config;
    local_config.captureDir = dir;
    std::vector<ExperimentRequest> local_cells = catalogue;
    for (auto &cell : local_cells)
        cell.config.captureDir = dir;
    CaptureCache local_cache;
    ParallelRunner local_runner(s.jobs);
    std::vector<ExperimentResult> local_results;
    {
        ExperimentQueue local_queue(local_cache, local_runner);
        local_results = local_queue.runBatch(local_cells);
    }
    std::map<std::string, std::string> expected;
    for (std::size_t i = 0; i < catalogue.size(); ++i) {
        const std::string rows = rowsText(daemon_results[i]);
        if (rows != rowsText(local_results[i]))
            out.problem("daemon and in-process results differ: " +
                        catalogue[i].toJson());
        expected.emplace(catalogue[i].toJson(), rows);
    }

    std::vector<double> latency_ms;
    std::uint64_t cells = 0, replay_refs = 0, encoded = 0, decoded = 0;
    double encode_s = 0, decode_s = 0;
    for (const auto &log : logs) {
        out.attempted += log.ops;
        out.failed += log.failedOps;
        for (const auto &p : log.problems)
            out.problem(p);
        latency_ms.insert(latency_ms.end(), log.latencyMs.begin(),
                          log.latencyMs.end());
        cells += log.cells;
        replay_refs += log.replayRefs;
        encode_s += log.encodeS;
        decode_s += log.decodeS;
        encoded += log.encoded;
        decoded += log.decoded;
        for (const auto &[request, rows] : log.warm) {
            const auto it = expected.find(request);
            if (it == expected.end() || it->second != rows) {
                out.failed += 1;
                out.problem("warm reply differs from the catalogue: " +
                            request.substr(0, 200));
            }
        }
    }

    e2e.add("setup_s", median(setup_s), "s");
    e2e.add("cells_per_s", static_cast<double>(cells) / wall, "1/s");
    e2e.add("replay_refs_per_s", static_cast<double>(replay_refs) / wall,
            "1/s");
    e2e.add("capture_refs_per_s",
            demand_refs * static_cast<double>(setup_s.size()) /
                total(setup_s),
            "1/s");
    e2e.add("latency_p50_ms", percentile(latency_ms, 0.5), "ms");
    e2e.add("latency_p99_ms", percentile(latency_ms, 0.99), "ms");
    e2e.add("peak_rss_mb", selfPeakRssMb() + daemon_rss, "MB");
    out.latencySamples = latency_ms.size();

    if (!s.trace)
        return;
    Counters delta;
    addDelta(daemonCounters(stats0), daemonCounters(stats1), delta);
    addCounterMetrics(delta, layers);
    layers.add("sim.capture_cache.resident_bytes",
               docStat(stats1, "resident_store.bytes"), "bytes");
    layers.add("trace.label_plane.bytes",
               docStat(stats1, "label_plane.bytes"), "bytes");
    layers.add("common.json.encode_s", ratio(encode_s, encoded), "s");
    layers.add("common.json.decode_s", ratio(decode_s, decoded), "s");
    probeRunner(local_cells,
                capturesOf(local_cells, local_cache, local_config),
                local_runner, layers);
    probeLayers(config, s.jobs, layers, out);
}

// ---------------------------------------------------------------------
// Report

void
printMetrics(std::ostream &os, const Metrics &m)
{
    os << "{";
    for (std::size_t i = 0; i < m.items.size(); ++i) {
        const auto &[name, value, unit] = m.items[i];
        os << (i ? ", " : "");
        stats::printJsonString(os, name);
        os << ": {\"value\": ";
        stats::printJsonNumber(os, value);
        os << ", \"unit\": ";
        stats::printJsonString(os, unit);
        os << "}";
    }
    os << "}";
}

const char *
buildType()
{
#ifdef CASIM_BENCH_BUILD_TYPE
    return CASIM_BENCH_BUILD_TYPE;
#else
    return "unknown";
#endif
}

/** Whether the build measures the program users run (optimized, no
 * paranoid checks); the reason otherwise. */
std::string
buildRefusal()
{
#ifdef CASIM_PARANOID
    return "CASIM_PARANOID build";
#endif
#ifndef __OPTIMIZE__
    return "non-optimized build";
#endif
    return "";
}

} // namespace

int
main(int argc, char **argv)
{
    const Options options(argc, argv);
    Settings s;
    s.workload = options.getString("workload", "");
    s.seed = options.getUint("seed", 1);
    s.seconds = options.getDouble("seconds", 10.0);
    s.trace = options.getBool("trace", false);
    s.setups = static_cast<unsigned>(options.getUint("setups", 3));
    s.jobs = static_cast<unsigned>(options.getUint("jobs", 4));
    s.casimd = options.getString("casimd", "");
    s.tamper = options.getBool("tamper", false);

    const std::map<std::string, double> default_scale{
        {"replay-warm", 0.2}, {"daemon-mixed", 0.1}};
    const auto it = default_scale.find(s.workload);
    if (it == default_scale.end()) {
        std::cerr << "casim_perfbench: unknown --workload '" << s.workload
                  << "' (known: replay-warm, daemon-mixed)\n";
        return 2;
    }
    s.scale = options.getDouble("scale", it->second);
    if (s.setups == 0 || s.jobs == 0) {
        std::cerr << "casim_perfbench: --setups and --jobs must be >= 1\n";
        return 2;
    }
    if (s.workload == "daemon-mixed" && s.casimd.empty()) {
        std::cerr << "casim_perfbench: daemon-mixed needs --casimd=PATH\n";
        return 2;
    }
    const std::string refusal = buildRefusal();
    if (!refusal.empty()) {
        std::cerr << "casim_perfbench: refusing to measure a " << refusal
                  << "\n";
        return 2;
    }

    Metrics e2e, layers;
    Outcome out;
    if (s.workload == "replay-warm")
        runReplayWarm(s, e2e, layers, out);
    else
        runDaemonMixed(s, e2e, layers, out);

    std::ostringstream os;
    os << "{\"workload\": ";
    stats::printJsonString(os, s.workload);
    os << ", \"seed\": " << s.seed << ", \"scale\": ";
    stats::printJsonNumber(os, s.scale);
    os << ", \"jobs\": " << s.jobs << ", \"setups\": " << s.setups
       << ", \"build_type\": ";
    stats::printJsonString(os, buildType());
    os << ", \"simd_isa\": ";
    stats::printJsonString(os, simd::tagScanIsa());
    os << ", \"digest\": ";
    stats::printJsonString(os, out.digest);
    os << ", \"digest_cells\": " << out.digestCells
       << ", \"attempted\": " << out.attempted
       << ", \"failed\": " << out.failed
       << ", \"latency_samples\": " << out.latencySamples
       << ", \"problems\": [";
    for (std::size_t i = 0; i < out.problems.size(); ++i) {
        os << (i ? ", " : "");
        stats::printJsonString(os, out.problems[i]);
    }
    os << "], \"pass_s\": [";
    for (std::size_t i = 0; i < out.passSeconds.size(); ++i) {
        os << (i ? ", " : "");
        stats::printJsonNumber(os, out.passSeconds[i]);
    }
    os << "], \"end_to_end\": ";
    printMetrics(os, e2e);
    os << ", \"per_layer\": ";
    printMetrics(os, layers);
    os << "}\n";
    std::cout << os.str() << std::flush;
    return 0;
}
