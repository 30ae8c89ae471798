/**
 * @file
 * Format and behaviour stability: committed snapshot images must
 * restore and re-capture byte for byte, and a fresh run of the same
 * network must reproduce them exactly.
 *
 * tests/snapshot/golden/ holds one small image per router
 * architecture (plus a virtual-channel one) of the full-state network
 * (see full_state_network.hpp), captured mid-churn. Every component's
 * snapshot layout is a data format, so a change that moves, widens or
 * drops a field anywhere breaks the byte comparison here even when a
 * capture/restore round trip within one build stays self-consistent.
 * The fresh-run comparison pins router behaviour as well: the images
 * are captured mid-churn (routers in degraded mode) under multi-flit
 * traffic (wormhole locks held), so a refactor that changes any
 * arbitration or lock decision changes the bytes.
 *
 * The images are regenerated only on a deliberate format change
 * (together with a kSnapshotVersion bump): run this test binary with
 * NOX_SNAPSHOT_GOLDEN_WRITE=1 and it rewrites the files instead of
 * checking them.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <ostream>
#include <string>
#include <vector>

#include "full_state_network.hpp"
#include "snapshot/snapshot.hpp"

namespace nox {
namespace {

struct GoldenCase
{
    const char *name;
    RouterArch arch;
    SchedulingMode mode;
    int vcCount;
};

/** Name the case in test labels (the default byte dump would include
 *  the name pointer, which changes from run to run). */
void
PrintTo(const GoldenCase &c, std::ostream *os)
{
    *os << c.name;
}

constexpr GoldenCase kCases[] = {
    {"nonspec", RouterArch::NonSpeculative, SchedulingMode::AlwaysTick,
     1},
    {"specfast", RouterArch::SpecFast, SchedulingMode::ActivityDriven,
     1},
    {"specaccurate", RouterArch::SpecAccurate,
     SchedulingMode::EquivalenceCheck, 1},
    {"nox", RouterArch::Nox, SchedulingMode::ActivityDriven, 1},
    {"nonspec_vc2", RouterArch::NonSpeculative,
     SchedulingMode::AlwaysTick, 2},
};

std::string
goldenPath(const GoldenCase &c)
{
    return std::string(NOX_SNAPSHOT_GOLDEN_DIR) + "/" + c.name +
           ".snap";
}

std::vector<std::uint8_t>
capture(const Network &net)
{
    return snap::encodeSnapshotFile(snap::captureNetwork(net, "golden"));
}

class SnapshotGolden : public ::testing::TestWithParam<GoldenCase>
{
};

TEST_P(SnapshotGolden, RestoreRecapturesIdenticalBytes)
{
    const GoldenCase &c = GetParam();
    if (std::getenv("NOX_SNAPSHOT_GOLDEN_WRITE") != nullptr) {
        auto net = buildFullStateNetwork(c.arch, c.mode, c.vcCount);
        net->run(kFullStateMidChurn);
        const std::vector<std::uint8_t> bytes = capture(*net);
        std::ofstream out(goldenPath(c), std::ios::binary);
        out.write(reinterpret_cast<const char *>(bytes.data()),
                  static_cast<std::streamsize>(bytes.size()));
        ASSERT_TRUE(out.good()) << "cannot write " << goldenPath(c);
        GTEST_SKIP() << "rewrote " << goldenPath(c);
    }

    const std::vector<std::uint8_t> golden =
        snap::readFileBytes(goldenPath(c));
    auto net = buildFullStateNetwork(c.arch, c.mode, c.vcCount);
    const snap::SnapshotMeta meta = snap::restoreNetwork(
        *net, snap::decodeSnapshotFile(golden.data(), golden.size()));
    EXPECT_EQ(meta.cycle, kFullStateMidChurn);
    ASSERT_EQ(net->now(), kFullStateMidChurn);
    ASSERT_NE(net->transport(), nullptr);
    EXPECT_GT(net->faultMap().deadRouterCount() +
                  net->faultMap().explicitDeadLinkCount(),
              0)
        << "golden image is not mid-churn";

    const std::vector<std::uint8_t> again = capture(*net);
    ASSERT_EQ(again.size(), golden.size())
        << c.name << ": re-capture changed the image size";
    for (std::size_t i = 0; i < golden.size(); ++i) {
        ASSERT_EQ(again[i], golden[i])
            << c.name << ": re-capture differs at byte " << i;
    }

    // The restored network must also keep running.
    net->run(200);
}

TEST_P(SnapshotGolden, FreshRunReproducesImage)
{
    const GoldenCase &c = GetParam();
    if (std::getenv("NOX_SNAPSHOT_GOLDEN_WRITE") != nullptr)
        GTEST_SKIP() << "golden images are being rewritten";

    const std::vector<std::uint8_t> golden =
        snap::readFileBytes(goldenPath(c));
    auto net = buildFullStateNetwork(c.arch, c.mode, c.vcCount);
    net->run(kFullStateMidChurn);
    const std::vector<std::uint8_t> fresh = capture(*net);
    ASSERT_EQ(fresh.size(), golden.size())
        << c.name << ": a fresh run changed the image size";
    for (std::size_t i = 0; i < golden.size(); ++i) {
        ASSERT_EQ(fresh[i], golden[i])
            << c.name << ": a fresh run differs at byte " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(
    PerArch, SnapshotGolden, ::testing::ValuesIn(kCases),
    [](const ::testing::TestParamInfo<GoldenCase> &info) {
        return std::string(info.param.name);
    });

} // namespace
} // namespace nox
