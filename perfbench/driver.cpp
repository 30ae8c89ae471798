/**
 * @file
 * Benchmark driver: runs one named workload through the simulator's
 * public entry points and prints JSON records, one per line.
 *
 *   perfbench_driver workload=<name> seed=<n> seconds=<s> trace=<0|1>
 *                    [quick=1] [drain_limit=<cycles>] [scratch=<dir>]
 *
 * One operation is one simulation point: one runSynthetic() or
 * runApplication() call (plus, in the traced run, one profiled
 * replay). Every operation is checked (drain, conservation,
 * provenance, delivery failures, and bit-identical statistics across
 * repeats and across observer configurations) and counted as
 * attempted / failed.
 *
 * trace=0 measures the end-to-end metrics with every observer off.
 * trace=1 measures the per-layer metrics: phase costs from the
 * PhaseProfiler (read back through RunResult and Network::profiler())
 * and spans this driver records around its own calls into each
 * layer's public functions. No timing code lives inside the
 * simulator for this benchmark.
 *
 * Records: "point" (the first run of every point: its simulated
 * statistics and their digest), "state" (traced synthetic runs: the
 * final-state digest of the network-level replay) and, last, "result"
 * (attempted, failed, failure reasons and the metrics with sample
 * counts).
 * perfbench/run.py turns them into the benchmark's result line.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "coherence/trace_generator.hpp"
#include "core/sim_runner.hpp"
#include "noc/network.hpp"
#include "noc/routing_table.hpp"
#include "obs/profiler.hpp"
#include "routers/factory.hpp"
#include "snapshot/snapshot.hpp"
#include "traffic/replay_source.hpp"

namespace {

using namespace nox;
using Clock = std::chrono::steady_clock;

constexpr RouterArch kAllArchs[] = {RouterArch::Nox,
                                    RouterArch::NonSpeculative,
                                    RouterArch::SpecFast,
                                    RouterArch::SpecAccurate};

/** Probe repetitions for the spans timed around single layer calls. */
constexpr int kProbeReps = 7;

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Times @p fn @p reps times and returns the median in seconds. */
template <typename Fn>
double
medianSeconds(int reps, Fn &&fn)
{
    std::vector<double> t;
    for (int i = 0; i < reps; ++i) {
        const auto t0 = Clock::now();
        fn();
        t.push_back(since(t0));
    }
    return median(std::move(t));
}

std::uint64_t
splitmix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Seed of point @p i of a workload run with benchmark seed @p seed. */
std::uint64_t
pointSeed(std::uint64_t seed, std::uint64_t i)
{
    return splitmix(splitmix(seed) + i);
}

std::string
hex64(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

/** Peak resident set of this process in MiB. VmHWM, not getrusage():
 *  ru_maxrss keeps the high-water mark of the image that exec()ed
 *  this one, e.g. the Python interpreter that launched the driver. */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB
    }
    return 0.0;
}

/** Flat JSON object writer (keys and strings need no escaping here). */
class JsonObject
{
  public:
    JsonObject &
    num(const std::string &key, double v)
    {
        char buf[40];
        if (std::isfinite(v))
            std::snprintf(buf, sizeof buf, "%.17g", v);
        else
            std::snprintf(buf, sizeof buf, "null");
        return raw(key, buf);
    }

    JsonObject &
    count(const std::string &key, std::uint64_t v)
    {
        return raw(key, std::to_string(v));
    }

    JsonObject &
    text(const std::string &key, const std::string &v)
    {
        return raw(key, "\"" + v + "\"");
    }

    JsonObject &
    raw(const std::string &key, const std::string &json)
    {
        if (!body_.empty())
            body_ += ",";
        body_ += "\"" + key + "\":" + json;
        return *this;
    }

    std::string str() const { return "{" + body_ + "}"; }

  private:
    std::string body_;
};

// -- arguments ---------------------------------------------------------

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    bool quick = false;
    bool drainOverride = false;
    Cycle drainLimit = 0;
    std::string scratch = ".bench_build/scratch";
};

std::uint64_t
parseUint(const std::string &key, const std::string &v)
{
    std::size_t used = 0;
    unsigned long long x = 0;
    try {
        x = std::stoull(v, &used, 10);
    } catch (const std::exception &) {
        used = 0;
    }
    if (v.empty() || used != v.size() || v[0] == '-')
        throw std::invalid_argument(key + "= wants an unsigned integer, got '" +
                                    v + "'");
    return x;
}

bool
parseFlag(const std::string &key, const std::string &v)
{
    if (v == "0" || v == "1")
        return v == "1";
    throw std::invalid_argument(key + "= wants 0 or 1, got '" + v + "'");
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool haveWorkload = false, haveSeed = false, haveSeconds = false,
         haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const std::size_t eq = arg.find('=');
        if (eq == std::string::npos)
            throw std::invalid_argument("expected key=value, got '" + arg +
                                        "'");
        const std::string key = arg.substr(0, eq);
        const std::string v = arg.substr(eq + 1);
        if (key == "workload") {
            a.workload = v;
            haveWorkload = true;
        } else if (key == "seed") {
            a.seed = parseUint(key, v);
            haveSeed = true;
        } else if (key == "seconds") {
            a.seconds = static_cast<double>(parseUint(key, v));
            haveSeconds = true;
        } else if (key == "trace") {
            a.trace = parseFlag(key, v);
            haveTrace = true;
        } else if (key == "quick") {
            a.quick = parseFlag(key, v);
        } else if (key == "drain_limit") {
            a.drainOverride = true;
            a.drainLimit = parseUint(key, v);
        } else if (key == "scratch") {
            if (v.empty())
                throw std::invalid_argument("scratch= must not be empty");
            a.scratch = v;
        } else {
            throw std::invalid_argument("unknown argument '" + key + "'");
        }
    }
    if (!(haveWorkload && haveSeed && haveSeconds && haveTrace))
        throw std::invalid_argument(
            "workload=, seed=, seconds= and trace= are required");
    if (a.seconds < 1.0)
        throw std::invalid_argument("seconds= must be at least 1");
    return a;
}

// -- workloads -----------------------------------------------------------

/** One synthetic point, run through runSynthetic(). */
struct SynPoint
{
    std::string label;
    SyntheticConfig cfg;
    /** Cycle at which the traced run pauses its network-level replay
     *  of this point to time the snapshot / digest / routing probes
     *  (inside a churn kill wave, so the dead set is non-empty). */
    Cycle probeCycle = 0;
};

/** One application point: a trace replayed on one architecture. */
struct AppPoint
{
    std::string label;
    std::size_t trace = 0;
    RouterArch arch = RouterArch::Nox;
};

struct Workload
{
    std::string name;
    std::vector<SynPoint> syn;

    // app_replay only
    std::vector<std::string> profiles;
    std::vector<std::uint64_t> traceSeeds;
    double horizonNs = 0.0;
    double traceWarmupNs = 0.0;
    std::vector<Trace> traces; ///< filled by setup
    std::vector<AppPoint> app;
    AppConfig appCfg;

    bool isApp() const { return !app.empty(); }
};

SyntheticConfig
meshConfig(std::uint64_t seed)
{
    SyntheticConfig c;
    c.arch = RouterArch::Nox;
    c.pattern = PatternKind::UniformRandom;
    c.packetFlits = 1;
    c.width = 8;
    c.height = 8;
    c.bufferDepth = 4;
    c.sinkBufferDepth = 4;
    c.seed = seed;
    return c;
}

Workload
makeWorkload(const Args &args)
{
    Workload w;
    w.name = args.workload;
    const bool q = args.quick;

    if (w.name == "uniform_busy") {
        // Every router busy every cycle: router evaluate and commit do
        // most of the work; never quiescent.
        for (std::uint64_t i = 0; i < 3; ++i) {
            SynPoint p;
            p.label = "uniform_busy/" + std::to_string(i);
            p.cfg = meshConfig(pointSeed(args.seed, i));
            p.cfg.injectionMBps = 1200.0;
            p.cfg.schedulingMode = SchedulingMode::AlwaysTick;
            p.cfg.warmupCycles = q ? 100 : 1000;
            p.cfg.measureCycles = q ? 400 : 9000;
            p.probeCycle = p.cfg.warmupCycles + p.cfg.measureCycles / 2;
            w.syn.push_back(p);
        }
    } else if (w.name == "pareto_sparse") {
        // ~0.01 flits/node/cycle in self-similar bursts on the activity
        // kernel: active-set bookkeeping and source gaps dominate.
        // Many short points: the load of one heavy-tailed point varies
        // by +-15% between seeds, and host time follows the load.
        for (std::uint64_t i = 0; i < 12; ++i) {
            SynPoint p;
            p.label = "pareto_sparse/" + std::to_string(i);
            p.cfg = meshConfig(pointSeed(args.seed, i));
            p.cfg.injectionMBps = 100.0;
            p.cfg.selfSimilar = true;
            p.cfg.schedulingMode = SchedulingMode::ActivityDriven;
            p.cfg.warmupCycles = q ? 200 : 2000;
            p.cfg.measureCycles = q ? 1000 : 10000;
            p.probeCycle = p.cfg.warmupCycles + p.cfg.measureCycles / 2;
            w.syn.push_back(p);
        }
    } else if (w.name == "churn_soak") {
        // The only workload with the E2E transport, link faults,
        // kill+heal churn, the digest ledger, provenance and
        // checkpoints on.
        for (std::uint64_t i = 0; i < 2; ++i) {
            SynPoint p;
            p.label = "churn_soak/" + std::to_string(i);
            SyntheticConfig &c = p.cfg;
            c = meshConfig(pointSeed(args.seed, i));
            c.injectionMBps = 600.0;
            c.schedulingMode = SchedulingMode::ActivityDriven;
            c.warmupCycles = q ? 200 : 2000;
            c.measureCycles = q ? 3000 : 14000;
            c.drainLimitCycles = 200000;
            c.faults.enabled = true;
            c.faults.seed = pointSeed(args.seed, 100 + i);
            c.faults.bitflipRate = 2e-5;
            c.faults.dropRate = 1e-5;
            c.faults.e2eTransport = true;
            c.faults.churnWaves = 2;
            c.faults.churnStart = q ? 500 : 3000;
            c.faults.churnPeriod = q ? 1200 : 6000;
            c.faults.churnHealAfter = q ? 600 : 3000;
            c.faults.churnLinks = 2;
            c.faults.churnRouters = 1;
            c.obs.digest.enabled = true;
            c.obs.digest.interval = 1000;
            c.obs.prov.enabled = true;
            c.checkpointInterval = q ? 1000 : 5000;
            c.checkpointKeep = 2;
            c.checkpointFile =
                args.scratch + "/churn_soak-" + std::to_string(i) + ".snap";
            p.probeCycle =
                c.faults.churnStart + c.faults.churnHealAfter / 2;
            w.syn.push_back(p);
        }
    } else if (w.name == "app_replay") {
        // One commercial and one SPLASH-2 profile, generated after a
        // cache warm-up, replayed on all four architectures.
        w.profiles = {"tpcc", "fft"};
        for (std::uint64_t i = 0; i < w.profiles.size(); ++i)
            w.traceSeeds.push_back(pointSeed(args.seed, i));
        w.horizonNs = q ? 1000.0 : 2000.0;
        w.traceWarmupNs = q ? 2000.0 : 20000.0;
        for (std::size_t t = 0; t < w.profiles.size(); ++t) {
            for (RouterArch a : kAllArchs) {
                w.app.push_back({"app_replay/" + w.profiles[t] + "/" +
                                     archName(a),
                                 t, a});
            }
        }
    } else {
        throw std::invalid_argument("unknown workload '" + w.name + "'");
    }

    if (args.drainOverride) {
        for (SynPoint &p : w.syn)
            p.cfg.drainLimitCycles = args.drainLimit;
        w.appCfg.drainLimitCycles = args.drainLimit;
    }
    return w;
}

// -- correctness accounting ----------------------------------------------

/** Canonical rendering of a point's simulated statistics. */
using Stats = JsonObject;

Stats
syntheticStats(const RunResult &r)
{
    Stats s;
    s.count("cycles", r.cyclesSimulated)
        .count("packets", r.packetsMeasured)
        .num("avg_latency_ns", r.avgLatencyNs)
        .num("p99_latency_ns", r.p99LatencyNs)
        .num("accepted_mbps", r.acceptedMBps)
        .num("energy_per_packet_pj", r.energyPerPacketPj)
        .count("flit_hops", r.flitHops)
        .count("abort_cycles", r.abortCycles)
        .count("misspec_cycles", r.misspecCycles)
        .count("faults_injected", r.faults.faultsInjected)
        .count("link_retransmissions", r.faults.retransmissions)
        .count("e2e_retransmits", r.faults.e2eRetransmits)
        .count("dup_suppressed", r.faults.dupSuppressed)
        .count("table_rebuilds", r.faults.tableRebuilds)
        .count("heals", r.faults.linkHeals + r.faults.routerHeals);
    return s;
}

/** The statistics a profiled replay reproduces of an AppResult. */
Stats
appLatencyStats(std::uint64_t packets, double avg, double req,
                double rep)
{
    Stats s;
    s.count("packets", packets)
        .num("avg_latency_ns", avg)
        .num("avg_latency_ns_request", req)
        .num("avg_latency_ns_reply", rep);
    return s;
}

/** The failure rules applied to every synthetic point. */
std::vector<std::string>
syntheticFailures(const SyntheticConfig &c, const RunResult &r)
{
    std::vector<std::string> why;
    // drain() succeeds only when ejected + accounted losses ==
    // injected (Network::packetsInFlight() == 0), where the accounted
    // losses are deliveryFailures with the transport on and hard-fault
    // write-offs without it. An unsuppressed duplicate delivery
    // breaks that identity too, so it surfaces here as well.
    if (!r.drained)
        why.push_back("undrained");
    if (!c.faults.e2eTransport && r.faults.packetsLostHard != 0)
        why.push_back("conservation");
    if (r.faults.deliveryFailures != 0)
        why.push_back("delivery_failure");
    if (r.faults.corruptedEscapes != 0)
        why.push_back("corrupted_escape");
    if (r.provenanceViolations != 0)
        why.push_back("provenance_violation");
    return why;
}

class Accounting
{
  public:
    /**
     * Record one operation on @p label. The first run of a label fixes
     * its statistics (and emits a "point" record); every later run
     * must reproduce them bit for bit, else @p mismatch is recorded.
     */
    void
    record(const std::string &label, const Stats &stats,
           std::vector<std::string> why, const std::string &mismatch)
    {
        ++attempted_;
        LabelCount &lc = labels_[label];
        ++lc.attempted;
        const std::string rendered = stats.str();
        const auto it = first_.find(label);
        if (it == first_.end()) {
            first_.emplace(label, rendered);
            JsonObject rec;
            rec.text("record", "point")
                .text("label", label)
                .raw("stats", rendered)
                .text("stats_digest", hex64(fnv1a(rendered)));
            std::cout << rec.str() << '\n';
        } else if (it->second != rendered) {
            why.push_back(mismatch);
        }
        if (!why.empty()) {
            ++failed_;
            ++lc.failed;
            for (const std::string &w : why)
                reasons_[w] += 1;
        }
    }

    /** Record a check that is not itself an operation. */
    void
    fail(const std::string &reason)
    {
        reasons_[reason] += 1;
    }

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }

    std::string
    reasonsJson() const
    {
        JsonObject o;
        for (const auto &[k, n] : reasons_)
            o.count(k, n);
        return o.str();
    }

    /** Attempted / failed operations per point label. */
    std::string
    labelsJson() const
    {
        JsonObject o;
        for (const auto &[label, lc] : labels_) {
            JsonObject c;
            c.count("attempted", lc.attempted).count("failed", lc.failed);
            o.raw(label, c.str());
        }
        return o.str();
    }

  private:
    struct LabelCount
    {
        std::uint64_t attempted = 0;
        std::uint64_t failed = 0;
    };

    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::map<std::string, std::string> first_;
    std::map<std::string, std::uint64_t> reasons_;
    std::map<std::string, LabelCount> labels_;
};

/** Metric name -> (value, unit, samples). */
class Metrics
{
  public:
    void
    set(const std::string &name, double value, const std::string &unit,
        std::uint64_t samples)
    {
        JsonObject o;
        o.num("value", value).text("unit", unit).count("samples", samples);
        body_.raw(name, o.str());
    }

    /** @p value summarizing the samples @p v, reported with their
     *  median. */
    void
    series(const std::string &name, double value,
           const std::vector<double> &v, const std::string &unit)
    {
        JsonObject o;
        o.num("value", value)
            .text("unit", unit)
            .count("samples", v.size())
            .num("median", median(v));
        body_.raw(name, o.str());
    }

    std::string str() const { return body_.str(); }

  private:
    JsonObject body_;
};

// -- set-up ----------------------------------------------------------------

NetworkParams
appNetworkParams(const AppConfig &c)
{
    // The construction runApplication() performs for each of its two
    // physical networks.
    NetworkParams p;
    p.width = c.width;
    p.height = c.height;
    p.router.bufferDepth = c.bufferDepth;
    p.sinkBufferDepth = c.sinkBufferDepth;
    return p;
}

struct Setup
{
    std::vector<double> total;     ///< whole set-up per repetition
    std::vector<double> build;     ///< one network construction
    std::vector<double> traceGen;  ///< all trace generation
};

/**
 * Set the workload up @p reps more times, appending to @p s: generate
 * its traces (app_replay) and construct every network its points build
 * before their first simulated cycle. The first traces generated are
 * kept; every later repetition must regenerate them identically.
 */
void
runSetup(Workload &w, int reps, Accounting &acct, Setup &s)
{
    for (int rep = 0; rep < reps; ++rep) {
        double total = 0.0;
        if (w.isApp()) {
            double gen = 0.0;
            const CmpParams cmp;
            for (std::size_t t = 0; t < w.profiles.size(); ++t) {
                const auto t0 = Clock::now();
                CoherenceTraceGenerator g(cmp, findWorkload(w.profiles[t]),
                                          w.traceSeeds[t]);
                Trace trace = g.generate(w.horizonNs, w.traceWarmupNs);
                gen += since(t0);
                if (w.traces.size() < w.profiles.size())
                    w.traces.push_back(std::move(trace));
                else if (trace.records.size() !=
                         w.traces[t].records.size())
                    acct.fail("trace_nondeterministic");
            }
            const NetworkParams params = appNetworkParams(w.appCfg);
            double build = 0.0;
            for (const AppPoint &p : w.app) {
                for (int net = 0; net < 2; ++net) {
                    const auto t0 = Clock::now();
                    auto n = makeNetwork(params, p.arch);
                    const double dt = since(t0);
                    build += dt;
                    if (net == 0 && &p == &w.app.front())
                        s.build.push_back(dt);
                }
            }
            s.traceGen.push_back(gen);
            total = gen + build;
        } else {
            for (const SynPoint &p : w.syn) {
                const auto t0 = Clock::now();
                SyntheticNet built = buildSyntheticNetwork(p.cfg);
                const double dt = since(t0);
                total += dt;
                if (&p == &w.syn.front())
                    s.build.push_back(dt);
            }
        }
        s.total.push_back(total);
    }
}

/** Trace generation costs ~0.1 s per repetition; network construction
 *  only ~1 ms, so it is repeated more often. */
int
setupRepsPerRound(const Workload &w)
{
    return w.isApp() ? 1 : 3;
}

// -- untraced measurement ------------------------------------------------

/** Work and wall clock of one round (one pass over every point). */
struct Round
{
    double cycles = 0.0;
    double packets = 0.0;
    double wall = 0.0;
};

/** Cycles an application replay steps before its drain tail: up to
 *  and including the injection cycle of each network's last record. */
double
replayCycles(const Trace &trace, double period_ns)
{
    double cycles = 0.0;
    for (std::uint8_t net = 0; net < 2; ++net) {
        double last = 0.0;
        for (const TraceRecord &r : trace.records) {
            if (r.network == net)
                last = std::max(last, r.timeNs);
        }
        cycles += std::ceil(last / period_ns) + 1.0;
    }
    return cycles;
}

Stats
appStats(const AppResult &r)
{
    Stats s = appLatencyStats(r.packets, r.avgLatencyNs,
                              r.avgLatencyNsRequest, r.avgLatencyNsReply);
    s.num("energy_per_packet_pj", r.energyPerPacketPj);
    return s;
}

std::vector<std::string>
appFailures(const AppResult &r, const Trace &trace)
{
    std::vector<std::string> why;
    if (!r.drained)
        why.push_back("undrained");
    // Conservation: every trace record is delivered exactly once.
    if (r.packets != trace.records.size())
        why.push_back("conservation");
    return why;
}

/** Run every point once; returns the round's work and wall time. */
Round
runRound(const Workload &w, Accounting &acct)
{
    Round round;
    if (w.isApp()) {
        for (const AppPoint &p : w.app) {
            const Trace &trace = w.traces[p.trace];
            AppConfig cfg = w.appCfg;
            cfg.arch = p.arch;
            const auto t0 = Clock::now();
            const AppResult r = runApplication(cfg, trace);
            const double wall = since(t0);
            round.wall += wall;
            round.packets += static_cast<double>(r.packets);
            round.cycles += replayCycles(trace, r.periodNs);
            acct.record(p.label, appStats(r), appFailures(r, trace),
                        "nondeterministic");
        }
    } else {
        for (const SynPoint &p : w.syn) {
            const RunResult r = runSynthetic(p.cfg);
            round.wall += r.wallSeconds;
            round.cycles += static_cast<double>(r.cyclesSimulated);
            round.packets += static_cast<double>(r.packetsMeasured);
            acct.record(p.label, syntheticStats(r),
                        syntheticFailures(p.cfg, r), "nondeterministic");
        }
    }
    return round;
}

void
measureEndToEnd(Workload &w, const Args &args, Setup &setup,
                Accounting &acct, Metrics &m)
{
    runRound(w, acct); // warm-up: caches, allocator and arena pools
    std::vector<double> cps, pps;
    const auto t0 = Clock::now();
    do {
        // Set-up repetitions are spread over the run like the rounds,
        // so a burst of host contention cannot own all of them.
        runSetup(w, setupRepsPerRound(w), acct, setup);
        const Round r = runRound(w, acct);
        cps.push_back(r.cycles / r.wall);
        pps.push_back(r.packets / r.wall);
    } while (since(t0) < args.seconds);

    // On a shared host the CPU can run ~1.6x slower for seconds to
    // minutes at a time (measured on a 4-core Xeon VM), and other
    // tenants only ever slow work down. The fastest round and the
    // fastest set-up therefore estimate the simulator's own cost; they
    // vary far less between runs, and between sets of runs, than
    // medians do.
    m.series("sim_cycles_per_s", *std::max_element(cps.begin(), cps.end()),
             cps, "cycles/s");
    m.series("packets_per_s", *std::max_element(pps.begin(), pps.end()), pps,
             "packets/s");
    m.series("setup_s",
             *std::min_element(setup.total.begin(), setup.total.end()),
             setup.total, "s");
    m.set("peak_rss_mb", peakRssMb(), "MB", 1);
}

// -- traced measurement ----------------------------------------------------

/** Profiler phase totals summed over traced runs. */
struct PhaseSums
{
    std::array<double, kNumSimPhases> ns{};
    std::array<double, kNumSimPhases> enters{};
    double steppedNs = 0.0;
    double cycles = 0.0;
    double steps = 0.0;
    double evaluations = 0.0;
    double flitsMoved = 0.0;
    double arbRounds = 0.0;
    std::uint64_t runs = 0;

    double
    perCycle(SimPhase p) const
    {
        return cycles > 0 ? ns[static_cast<std::size_t>(p)] / cycles : 0.0;
    }

    void
    addProfiler(const PhaseProfiler &prof, double cycles_run)
    {
        for (std::size_t p = 0; p < kNumSimPhases; ++p) {
            const PhaseTotals &t = prof.phase(static_cast<SimPhase>(p));
            ns[p] += static_cast<double>(t.ns);
            enters[p] += static_cast<double>(t.enters);
        }
        steppedNs += static_cast<double>(prof.totalNs());
        cycles += cycles_run;
        steps += static_cast<double>(prof.steps());
        addWork(prof);
        ++runs;
    }

    void
    addWork(const PhaseProfiler &prof)
    {
        for (NodeId r = 0; r < static_cast<NodeId>(prof.numRouters());
             ++r) {
            const RouterWork work = prof.routerWork(r);
            evaluations += static_cast<double>(work.evaluations);
            flitsMoved += static_cast<double>(work.flitsMoved);
            arbRounds += static_cast<double>(work.arbRounds);
        }
    }
};

/** Spans timed around single calls into the snapshot, obs and noc
 *  layers on one mid-run network. */
struct Probes
{
    std::vector<double> captureMs, restoreMs, digestUs, rebuildUs;
    double bytes = 0.0;
};

/**
 * Time the layer probes on @p net (between steps): snapshot capture +
 * encode, load + restore into a network from @p fresh, one digest
 * stride, and a routing-table rebuild on the current dead set. The
 * restored network must digest identically to the original.
 */
template <typename FreshNet>
void
probeNetwork(const Network &net, FreshNet &&fresh, const std::string &path,
             Probes &probes, Accounting &acct)
{
    std::vector<std::uint8_t> image;
    probes.captureMs.push_back(1e3 * medianSeconds(kProbeReps, [&] {
        image = snap::encodeSnapshotFile(snap::captureNetwork(net, "perfbench"));
    }));
    probes.bytes += static_cast<double>(image.size());
    snap::writeSnapshotFileAtomic(path, image, 1);

    const DigestHash want = net.computeDigestStride().fold();
    std::vector<double> restore;
    for (int i = 0; i < kProbeReps; ++i) {
        auto target = fresh();
        const auto t0 = Clock::now();
        snap::restoreNetwork(target.network(), snap::loadSnapshotFile(path));
        restore.push_back(since(t0));
        if (target.network().computeDigestStride().fold() != want)
            acct.fail("restore_mismatch");
    }
    probes.restoreMs.push_back(1e3 * median(std::move(restore)));
    std::filesystem::remove(path);

    snap::Writer scratch;
    probes.digestUs.push_back(1e6 * medianSeconds(kProbeReps, [&] {
        (void)net.computeDigestStride(scratch);
    }));

    RoutingTable table(net.mesh(), RoutingAlgo::DorXY);
    probes.rebuildUs.push_back(1e6 * medianSeconds(kProbeReps, [&] {
        table.rebuild(net.faultMap());
    }));
}

/** A freshly built synthetic network (restore target). */
struct FreshSynthetic
{
    SyntheticNet built;
    Network &network() { return *built.net; }
};

/** A freshly built replay network with its source (restore target). */
struct FreshReplay
{
    std::unique_ptr<Network> net;
    Network &network() { return *net; }
};

SyntheticConfig
profiled(SyntheticConfig c)
{
    c.obs.profile.enabled = true;
    // The probes and the profiled runs must not overwrite the
    // untraced runs' checkpoints mid-rotation.
    c.checkpointFile += ".traced";
    return c;
}

/**
 * Network-level replay of one synthetic point with the profiler on:
 * the runSynthetic() phase sequence driven step by step, paused at
 * the point's probe cycle for the layer probes. Reads the per-router
 * work and step count back through Network::profiler(), checks
 * conservation directly on NetworkStats, and returns the final-state
 * digest.
 */
std::string
networkLevelRun(const SynPoint &p, const std::string &scratch,
                PhaseSums &work, Probes &probes, Accounting &acct,
                const RunResult &reference)
{
    const SyntheticConfig cfg = profiled(p.cfg);
    SyntheticNet built = buildSyntheticNetwork(cfg);
    Network &net = *built.net;
    const Cycle m0 = cfg.warmupCycles;
    const Cycle m1 = cfg.warmupCycles + cfg.measureCycles;

    net.run(p.probeCycle);
    probeNetwork(
        net,
        [&] { return FreshSynthetic{buildSyntheticNetwork(cfg)}; },
        scratch + "/probe.snap", probes, acct);
    if (net.now() < m0)
        net.run(m0 - net.now());
    net.run(m1 - net.now());
    net.setSourcesEnabled(false);
    net.drain(m1 + cfg.drainLimitCycles - net.now());
    net.finishObservability();

    const NetworkStats &st = net.stats();
    const std::uint64_t accounted = cfg.faults.e2eTransport
                                        ? st.faults.deliveryFailures
                                        : st.faults.packetsLostHard;
    if (st.packetsEjected + accounted != st.packetsInjected)
        acct.fail("conservation");
    if (net.now() != reference.cyclesSimulated ||
        st.latency.count() != reference.packetsMeasured ||
        st.latency.mean() * reference.periodNs != reference.avgLatencyNs)
        acct.fail("observer_effect");

    const PhaseProfiler &prof = *net.profiler();
    work.steps += static_cast<double>(prof.steps());
    work.cycles += static_cast<double>(net.now());
    work.addWork(prof);
    return hex64(net.computeDigestStride().fold());
}

/** The parts of replayOne() a profiled replay reproduces. */
struct ReplayOutcome
{
    NetworkStats stats;
    bool drained = false;
};

/**
 * Replay one physical network of @p trace with the profiler on: the
 * step loop runApplication() runs for each network, driven from
 * outside so its phase costs and router work can be read back. With
 * @p probes set, the replay pauses halfway through the trace for the
 * layer probes.
 */
ReplayOutcome
profiledReplay(const Workload &w, const Trace &trace, std::uint8_t netIdx,
               RouterArch arch, double period, PhaseSums &sums,
               const std::string &scratch, Probes *probes, Accounting &acct)
{
    NetworkParams params = appNetworkParams(w.appCfg);
    params.obs.profile.enabled = true;
    const std::vector<TraceRecord> records = trace.forNetwork(netIdx);
    auto build = [&](ReplaySource **replay) {
        auto net = makeNetwork(params, arch);
        auto source = std::make_unique<ReplaySource>(records, period);
        if (replay)
            *replay = source.get();
        net->addSource(std::move(source));
        return net;
    };
    ReplaySource *replay = nullptr;
    auto net = build(&replay);
    const Cycle probeAt =
        records.empty()
            ? 0
            : static_cast<Cycle>(std::ceil(records.back().timeNs / period)) /
                  2;

    ReplayOutcome out;
    Cycle guard = 0;
    while ((!replay->done() || net->packetsInFlight() > 0) &&
           guard < w.appCfg.drainLimitCycles) {
        if (probes && net->now() == probeAt)
            probeNetwork(
                *net, [&] { return FreshReplay{build(nullptr)}; },
                scratch + "/probe.snap", *probes, acct);
        net->step();
        ++guard;
    }
    out.drained = replay->done() && net->packetsInFlight() == 0;
    net->finishObservability();
    out.stats = net->stats();
    sums.addProfiler(*net->profiler(), static_cast<double>(net->now()));
    return out;
}

void
measurePerLayer(Workload &w, const Args &args, Setup &setup,
                Accounting &acct, Metrics &m)
{
    PhaseSums phases;      // traced runs: RunResult / profiled replay
    PhaseSums netWork;     // synthetic network-level runs
    Probes probes;
    std::vector<double> overhead;
    std::map<RouterArch, std::vector<double>> archWall;
    double coverageNs = 0.0, coverageTotal = 0.0;
    double linkRetx = 0.0, e2eRetx = 0.0, rebuilds = 0.0;
    std::uint64_t rounds = 0;

    if (!w.isApp()) {
        // Untraced reference runs, then one network-level run per point.
        std::vector<RunResult> ref;
        for (const SynPoint &p : w.syn) {
            ref.push_back(runSynthetic(p.cfg));
            acct.record(p.label, syntheticStats(ref.back()),
                        syntheticFailures(p.cfg, ref.back()),
                        "nondeterministic");
            linkRetx += static_cast<double>(ref.back().faults.retransmissions);
            e2eRetx += static_cast<double>(ref.back().faults.e2eRetransmits);
            rebuilds += static_cast<double>(ref.back().faults.tableRebuilds);
        }
        for (std::size_t i = 0; i < w.syn.size(); ++i) {
            const std::string digest = networkLevelRun(
                w.syn[i], args.scratch, netWork, probes, acct, ref[i]);
            JsonObject rec;
            rec.text("record", "state")
                .text("label", w.syn[i].label)
                .text("final_state_digest", digest);
            std::cout << rec.str() << '\n';
        }

        const auto t0 = Clock::now();
        do {
            runSetup(w, setupRepsPerRound(w), acct, setup);
            // Paired untraced / traced runs of each point, alternating
            // which goes first, so drift hits both sides alike.
            for (const SynPoint &p : w.syn) {
                const SyntheticConfig traced = profiled(p.cfg);
                RunResult u, t;
                if (rounds % 2 == 0) {
                    u = runSynthetic(p.cfg);
                    t = runSynthetic(traced);
                } else {
                    t = runSynthetic(traced);
                    u = runSynthetic(p.cfg);
                }
                acct.record(p.label, syntheticStats(u),
                            syntheticFailures(p.cfg, u), "nondeterministic");
                acct.record(p.label, syntheticStats(t),
                            syntheticFailures(traced, t), "observer_effect");
                overhead.push_back(t.wallSeconds / u.wallSeconds);
                for (std::size_t k = 0; k < kNumSimPhases; ++k) {
                    phases.ns[k] += 1e9 * t.phaseSeconds[k];
                    phases.enters[k] += static_cast<double>(t.phaseEnters[k]);
                }
                phases.cycles += static_cast<double>(t.cyclesSimulated);
                coverageNs += t.profileCoverage * t.profiledTotalSeconds;
                coverageTotal += t.profiledTotalSeconds;
                ++phases.runs;
            }
            ++rounds;
        } while (since(t0) < args.seconds);
        // Per-router work comes from the network-level runs.
        phases.steps = netWork.steps;
        phases.evaluations = netWork.evaluations;
        phases.flitsMoved = netWork.flitsMoved;
        phases.arbRounds = netWork.arbRounds;
    } else {
        bool probed = false;
        const auto t0 = Clock::now();
        do {
            runSetup(w, setupRepsPerRound(w), acct, setup);
            std::map<RouterArch, double> wall;
            for (const AppPoint &p : w.app) {
                const Trace &trace = w.traces[p.trace];
                AppConfig cfg = w.appCfg;
                cfg.arch = p.arch;
                const auto u0 = Clock::now();
                const AppResult r = runApplication(cfg, trace);
                const double uWall = since(u0);
                wall[p.arch] += uWall;
                acct.record(p.label, appStats(r), appFailures(r, trace),
                            "nondeterministic");

                // Profiled replay of the same trace on both networks.
                // The first NoX request network also hosts the probes,
                // whose time stays out of the overhead ratio.
                const bool probe = !probed && p.arch == RouterArch::Nox;
                const auto tr0 = Clock::now();
                ReplayOutcome out[2];
                for (std::uint8_t n = 0; n < 2; ++n) {
                    out[n] = profiledReplay(
                        w, trace, n, p.arch, r.periodNs, phases, args.scratch,
                        probe && n == 0 ? &probes : nullptr, acct);
                }
                if (probe)
                    probed = true;
                else
                    overhead.push_back(since(tr0) / uWall);
                SampleStats all = out[0].stats.netLatency;
                all.merge(out[1].stats.netLatency);
                acct.record(
                    p.label + "/latency",
                    appLatencyStats(all.count(), all.mean() * r.periodNs,
                                    out[0].stats.netLatency.mean() * r.periodNs,
                                    out[1].stats.netLatency.mean() * r.periodNs),
                    out[0].drained && out[1].drained
                        ? std::vector<std::string>{}
                        : std::vector<std::string>{"undrained"},
                    "nondeterministic");
                // The replay must reproduce runApplication's numbers.
                if (all.count() != r.packets ||
                    all.mean() * r.periodNs != r.avgLatencyNs)
                    acct.fail("observer_effect");
            }
            for (const auto &[arch, s] : wall)
                archWall[arch].push_back(s);
            ++rounds;
        } while (since(t0) < args.seconds);
        coverageNs = 0.0;
        for (std::size_t k = 0; k < kNumSimPhases; ++k)
            coverageNs += phases.ns[k];
        coverageTotal = phases.steppedNs;
        coverageNs *= 1e-9;
        coverageTotal *= 1e-9;
    }

    const auto n = [](std::size_t v) { return static_cast<std::uint64_t>(v); };
    const std::uint64_t runs = phases.runs;
    const double cycles = netWork.cycles > 0 ? netWork.cycles : phases.cycles;
    m.set("routers.evaluate_ns_per_cycle",
          phases.perCycle(SimPhase::RouterEvaluate), "ns/cycle", runs);
    m.set("routers.evals_per_cycle",
          cycles > 0 ? phases.evaluations / cycles : 0.0, "evals/cycle", runs);
    m.set("routers.flits_per_eval",
          phases.evaluations > 0 ? phases.flitsMoved / phases.evaluations : 0.0,
          "flits/eval", runs);
    m.set("routers.arb_rounds_per_cycle",
          cycles > 0 ? phases.arbRounds / cycles : 0.0, "rounds/cycle", runs);
    const std::pair<RouterArch, const char *> archKeys[] = {
        {RouterArch::Nox, "nox"},
        {RouterArch::NonSpeculative, "nonspec"},
        {RouterArch::SpecFast, "specfast"},
        {RouterArch::SpecAccurate, "specaccurate"}};
    for (const auto &[arch, key] : archKeys) {
        const std::vector<double> &v = archWall[arch];
        m.set(std::string("routers.") + key + ".replay_s", median(v), "s",
              n(v.size()));
    }
    m.set("noc.scheduler_ns_per_cycle", phases.perCycle(SimPhase::Scheduler),
          "ns/cycle", runs);
    m.set("noc.steps_per_cycle", cycles > 0 ? phases.steps / cycles : 0.0,
          "steps/cycle", runs);
    m.set("traffic.inject_ns_per_cycle",
          phases.perCycle(SimPhase::TrafficInject), "ns/cycle", runs);
    m.set("noc.eject_ns_per_cycle", phases.perCycle(SimPhase::NicEject),
          "ns/cycle", runs);
    m.set("noc.link_retry_ns_per_cycle", phases.perCycle(SimPhase::LinkRetry),
          "ns/cycle", runs);
    m.set("noc.routing_rebuild_us", median(probes.rebuildUs), "us",
          n(probes.rebuildUs.size()));
    m.set("noc.link_retransmissions", linkRetx, "count", 1);
    m.set("noc.e2e_retransmits", e2eRetx, "count", 1);
    m.set("noc.table_rebuilds", rebuilds, "count", 1);
    m.set("noc.build_s", median(setup.build), "s", n(setup.build.size()));
    m.set("obs.flush_ns_per_cycle", phases.perCycle(SimPhase::ObsFlush),
          "ns/cycle", runs);
    m.set("obs.digest_stride_us", median(probes.digestUs), "us",
          n(probes.digestUs.size()));
    m.set("obs.profile_coverage",
          coverageTotal > 0 ? coverageNs / coverageTotal : 0.0, "ratio", runs);
    m.set("obs.trace_overhead", median(overhead), "ratio", n(overhead.size()));
    const std::size_t ck = static_cast<std::size_t>(SimPhase::Checkpoint);
    m.set("snapshot.checkpoint_ms",
          phases.enters[ck] > 0 ? 1e-6 * phases.ns[ck] / phases.enters[ck]
                                : 0.0,
          "ms", static_cast<std::uint64_t>(phases.enters[ck]));
    m.set("snapshot.capture_ms", median(probes.captureMs), "ms",
          n(probes.captureMs.size()));
    m.set("snapshot.restore_ms", median(probes.restoreMs), "ms",
          n(probes.restoreMs.size()));
    m.set("snapshot.bytes", probes.bytes, "bytes", n(probes.captureMs.size()));
    double tracePackets = 0.0;
    for (const Trace &t : w.traces)
        tracePackets += static_cast<double>(t.records.size());
    m.set("coherence.trace_gen_s", median(setup.traceGen), "s",
          n(setup.traceGen.size()));
    m.set("coherence.trace_packets", tracePackets, "count",
          n(w.traces.size()));
}

void
removeCheckpoints(const Workload &w)
{
    for (const SynPoint &p : w.syn) {
        if (p.cfg.checkpointInterval == 0)
            continue;
        for (const std::string &base :
             {p.cfg.checkpointFile, profiled(p.cfg).checkpointFile}) {
            std::error_code ec;
            std::filesystem::remove(base, ec);
            for (int k = 1; k < p.cfg.checkpointKeep; ++k)
                std::filesystem::remove(base + "." + std::to_string(k), ec);
        }
    }
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    Workload w;
    try {
        args = parseArgs(argc, argv);
        w = makeWorkload(args);
    } catch (const std::invalid_argument &e) {
        std::cerr << "perfbench_driver: " << e.what() << '\n';
        return 2;
    }
    std::filesystem::create_directories(args.scratch);

    Accounting acct;
    Metrics metrics;
    Setup setup;
    runSetup(w, setupRepsPerRound(w), acct, setup);
    if (args.trace)
        measurePerLayer(w, args, setup, acct, metrics);
    else
        measureEndToEnd(w, args, setup, acct, metrics);
    removeCheckpoints(w);

    JsonObject result;
    result.text("record", "result")
        .text("workload", w.name)
        .count("seed", args.seed)
        .count("trace", args.trace ? 1 : 0)
        .text("build_type", PERFBENCH_BUILD_TYPE)
        .count("attempted", acct.attempted())
        .count("failed", acct.failed())
        .raw("failures", acct.reasonsJson())
        .raw("labels", acct.labelsJson())
        .raw("metrics", metrics.str());
    std::cout << result.str() << std::endl;
    return 0;
}
