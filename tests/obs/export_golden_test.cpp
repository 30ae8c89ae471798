/**
 * @file
 * Export stability: one small fixed run with every observer on must
 * write the same export files, byte for byte, as the committed
 * goldens in tests/obs/golden/.
 *
 * The run is a 4x4 NoX mesh on the activity kernel with soft faults,
 * kill+heal churn and the E2E transport, a checkpoint hook and the
 * deliberate-divergence knob, so every observer hook the Network
 * dispatches (window sampling, SchedWake edges, checkpoint notes,
 * digest strides after the perturbation, heartbeats, the end-of-run
 * flush) shows up in some export.
 *
 * Compared byte for byte: the metrics JSONL, provenance JSONL, digest
 * ledger, flight dump and Chrome trace. The profile export is compared
 * on its per-router work rows only (the rest is host wall-clock time),
 * and the telemetry export with its wall-clock, host-memory and
 * process-wide arena fields removed.
 *
 * The goldens are regenerated only on a deliberate export change: run
 * this test binary with NOX_EXPORT_GOLDEN_WRITE=1 and it rewrites the
 * files instead of checking them.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "noc/network.hpp"
#include "routers/factory.hpp"
#include "traffic/bernoulli_source.hpp"
#include "traffic/patterns.hpp"

namespace nox {
namespace {

constexpr Cycle kRun = 1500;
constexpr Cycle kDrainLimit = 5000;

/** One export file and how much of it is deterministic. */
struct ExportFile
{
    const char *name;
    enum Filter { Whole, RouterRows, NoWallClock } filter;
};

constexpr ExportFile kExports[] = {
    {"metrics.jsonl", ExportFile::Whole},
    {"provenance.jsonl", ExportFile::Whole},
    {"digest.jsonl", ExportFile::Whole},
    {"flight.jsonl", ExportFile::Whole},
    {"chrome.json", ExportFile::Whole},
    {"profile.jsonl", ExportFile::RouterRows},
    {"telemetry.jsonl", ExportFile::NoWallClock},
};

/** Telemetry fields that depend on the host or on the whole process
 *  (the flit arena is shared by every network in it). */
constexpr const char *kHostFields[] = {
    "wall_s", "cps_inst", "cps_cum", "eta_s",
    "arena_live", "arena_growths", "peak_rss_kb",
};

std::string
readText(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/** Drop `, "key": value` from a one-line JSON object. */
std::string
dropField(std::string line, const std::string &key)
{
    const std::string needle = ", \"" + key + "\": ";
    const std::size_t at = line.find(needle);
    if (at == std::string::npos)
        return line;
    const std::size_t end = line.find_first_of(",}", at + needle.size());
    return line.erase(at, end - at);
}

std::string
deterministicPart(const std::string &text, ExportFile::Filter filter)
{
    if (filter == ExportFile::Whole)
        return text;
    std::istringstream in(text);
    std::string out;
    for (std::string line; std::getline(in, line);) {
        if (filter == ExportFile::RouterRows) {
            if (line.find("\"type\": \"router\"") == std::string::npos)
                continue;
        } else {
            for (const char *key : kHostFields)
                line = dropField(line, key);
        }
        out += line + "\n";
    }
    return out;
}

/** Run the fixed scenario, writing every export under @p dir. */
void
runScenario(const std::string &dir)
{
    NetworkParams params;
    params.width = 4;
    params.height = 4;
    params.schedulingMode = SchedulingMode::ActivityDriven;
    params.debugPerturbCycle = 700;
    params.debugPerturbRouter = 5;

    FaultParams &f = params.faults;
    f.enabled = true;
    f.bitflipRate = 0.001;
    f.dropRate = 0.001;
    f.seed = 0xE7901;
    f.e2eTransport = true;
    f.e2eTimeout = 80;
    f.churnWaves = 1;
    f.churnStart = 400;
    f.churnHealAfter = 300;
    f.churnLinks = 1;
    f.churnRouters = 1;

    ObsParams &obs = params.obs;
    obs.trace.enabled = true;
    obs.trace.capacity = 512;
    obs.trace.chromePath = dir + "/chrome.json";
    obs.trace.flightPath = dir + "/flight.jsonl";
    obs.trace.flightOnExit = true;
    obs.metrics.enabled = true;
    obs.metrics.interval = 100;
    obs.metrics.jsonlPath = dir + "/metrics.jsonl";
    obs.metrics.heatmap = false;
    obs.prov.enabled = true;
    obs.prov.jsonlPath = dir + "/provenance.jsonl";
    obs.profile.enabled = true;
    obs.profile.jsonlPath = dir + "/profile.jsonl";
    obs.telemetry.enabled = true;
    obs.telemetry.interval = 250;
    obs.telemetry.jsonlPath = dir + "/telemetry.jsonl";
    obs.digest.enabled = true;
    obs.digest.interval = 100;
    obs.digest.jsonlPath = dir + "/digest.jsonl";

    auto net = makeNetwork(params, RouterArch::Nox);
    static const Mesh mesh(4, 4);
    static const DestinationPattern pattern(
        PatternKind::UniformRandom, mesh, 0.2);
    Rng seeder(0xE7902);
    for (NodeId n = 0; n < net->numNodes(); ++n) {
        net->addSource(std::make_unique<BernoulliSource>(
            n, pattern, 0.06, 3, seeder.next()));
    }
    net->setMeasurementWindow(200, 1200);
    net->installCheckpoint(500, [](Network &) {});
    net->run(kRun);
    net->drain(kDrainLimit);
    net->finishObservability();
}

TEST(ExportGolden, FixedRunWritesGoldenExports)
{
    const std::string dir = ::testing::TempDir() + "/nox_export_golden";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    runScenario(dir);

    const bool write = std::getenv("NOX_EXPORT_GOLDEN_WRITE") != nullptr;
    for (const ExportFile &e : kExports) {
        const std::string got =
            deterministicPart(readText(dir + "/" + e.name), e.filter);
        const std::string golden_path =
            std::string(NOX_EXPORT_GOLDEN_DIR) + "/" + e.name;
        ASSERT_FALSE(got.empty()) << e.name << " was not written";
        if (write) {
            std::ofstream out(golden_path, std::ios::binary);
            out << got;
            ASSERT_TRUE(out.good()) << "cannot write " << golden_path;
            continue;
        }
        const std::string golden = readText(golden_path);
        ASSERT_FALSE(golden.empty()) << "missing golden " << golden_path;
        std::size_t at = 0;
        while (at < got.size() && at < golden.size() &&
               got[at] == golden[at])
            ++at;
        EXPECT_TRUE(got == golden)
            << e.name << " differs from its golden at byte " << at
            << ": got \"" << got.substr(at, 80) << "\", golden \""
            << golden.substr(at, 80) << "\"";
    }
    if (write)
        GTEST_SKIP() << "rewrote " << NOX_EXPORT_GOLDEN_DIR;
}

} // namespace
} // namespace nox
