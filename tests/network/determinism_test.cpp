/**
 * @file
 * Seeded determinism and scheduling-kernel equivalence.
 *
 * The guardrail for the activity-driven kernel: for every router
 * architecture and a representative pattern set, a seeded fig-8-style
 * run must produce bit-identical NetworkStats (a) across repeated
 * runs, (b) across scheduling kernels stepped in lockstep, and
 * (c) under the self-checking equivalence kernel, whose per-cycle
 * asserts verify every retired component is genuinely quiescent.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <memory>
#include <string>

#include "common/rng.hpp"
#include "noc/flit_arena.hpp"
#include "noc/network.hpp"
#include "obs/digest.hpp"
#include "routers/factory.hpp"
#include "snapshot/io.hpp"
#include "traffic/bernoulli_source.hpp"
#include "traffic/patterns.hpp"

namespace nox {
namespace {

constexpr Cycle kWarmup = 300;
constexpr Cycle kMeasure = 900;
constexpr Cycle kDrainLimit = 20000;
constexpr std::uint64_t kSeed = 0xF1683;

std::unique_ptr<Network>
buildNetwork(RouterArch arch, PatternKind pattern, SchedulingMode mode,
             double load, int packet_flits,
             const FaultParams &faults = {})
{
    NetworkParams params;
    params.width = 8;
    params.height = 8;
    params.schedulingMode = mode;
    params.faults = faults;
    auto net = makeNetwork(params, arch);

    // Sources are seeded per node from one seeder, as runSynthetic
    // does, so every kernel sees the same injection sequence.
    static const Mesh mesh(8, 8);
    static const DestinationPattern uniform(PatternKind::UniformRandom,
                                            mesh, 0.2);
    static const DestinationPattern transpose(PatternKind::Transpose,
                                              mesh, 0.2);
    const DestinationPattern &pat =
        pattern == PatternKind::Transpose ? transpose : uniform;
    Rng seeder(kSeed);
    for (NodeId n = 0; n < net->numNodes(); ++n) {
        net->addSource(std::make_unique<BernoulliSource>(
            n, pat, load, packet_flits, seeder.next()));
    }
    net->setMeasurementWindow(kWarmup, kWarmup + kMeasure);
    return net;
}

NetworkStats
runOnce(RouterArch arch, PatternKind pattern, SchedulingMode mode,
        double load = 0.05, int packet_flits = 1)
{
    auto net = buildNetwork(arch, pattern, mode, load, packet_flits);
    net->run(kWarmup + kMeasure);
    EXPECT_TRUE(net->drain(kDrainLimit));
    return net->stats();
}

struct Case
{
    RouterArch arch;
    PatternKind pattern;
};

class SchedulingEquivalence : public ::testing::TestWithParam<Case>
{
};

TEST_P(SchedulingEquivalence, RepeatedRunsBitIdentical)
{
    const auto [arch, pattern] = GetParam();
    for (SchedulingMode mode : {SchedulingMode::AlwaysTick,
                                SchedulingMode::ActivityDriven}) {
        const NetworkStats a = runOnce(arch, pattern, mode);
        const NetworkStats b = runOnce(arch, pattern, mode);
        EXPECT_TRUE(identicalStats(a, b))
            << archName(arch) << "/" << schedulingModeName(mode)
            << " diverged between identical seeded runs";
    }
}

TEST_P(SchedulingEquivalence, KernelsBitIdenticalInLockstep)
{
    const auto [arch, pattern] = GetParam();
    auto tick = buildNetwork(arch, pattern,
                             SchedulingMode::AlwaysTick, 0.05, 1);
    auto activity = buildNetwork(
        arch, pattern, SchedulingMode::ActivityDriven, 0.05, 1);

    // Lockstep: both kernels advance one cycle at a time and must
    // agree on every statistic — and on the full canonical state
    // digest, component by component — at every cycle boundary. The
    // digest check is strictly stronger than identicalStats: it
    // covers buffers, arbiter pointers, credits and source RNGs, so
    // a kernel bug that corrupts state without (yet) moving a
    // counter is caught at the first corrupt cycle.
    snap::Writer scratchTick, scratchActivity;
    for (Cycle t = 0; t < kWarmup + kMeasure; ++t) {
        tick->step();
        activity->step();
        ASSERT_TRUE(identicalStats(tick->stats(), activity->stats()))
            << archName(arch) << ": kernels diverged at cycle " << t;
        const DigestStride a =
            tick->computeDigestStride(scratchTick);
        const DigestStride b =
            activity->computeDigestStride(scratchActivity);
        ASSERT_EQ(a.fold(), b.fold())
            << archName(arch) << ": kernel state digests diverged at "
            << "cycle " << t << " in "
            << ::testing::PrintToString(divergentComponents(a, b));
    }
    EXPECT_TRUE(tick->drain(kDrainLimit));
    EXPECT_TRUE(activity->drain(kDrainLimit));
    EXPECT_EQ(tick->now(), activity->now())
        << "kernels drained in different cycle counts";
    EXPECT_TRUE(identicalStats(tick->stats(), activity->stats()));
    EXPECT_EQ(tick->computeDigestStride().fold(),
              activity->computeDigestStride().fold())
        << archName(arch) << ": kernels diverged in drained state";
}

TEST_P(SchedulingEquivalence, MultiFlitKernelsBitIdentical)
{
    // Multi-flit packets exercise the wormhole locks, NoX aborts and
    // the decode registers — the state the quiescence contract must
    // cover honestly.
    const auto [arch, pattern] = GetParam();
    const NetworkStats a = runOnce(arch, pattern,
                                   SchedulingMode::AlwaysTick,
                                   0.08, 5);
    const NetworkStats b = runOnce(arch, pattern,
                                   SchedulingMode::ActivityDriven,
                                   0.08, 5);
    EXPECT_TRUE(identicalStats(a, b))
        << archName(arch) << ": multi-flit kernels diverged";
}

TEST_P(SchedulingEquivalence, EquivalenceModeSelfChecksClean)
{
    // The equivalence kernel asserts per cycle that retired
    // components are quiescent, and must reproduce always-tick stats.
    const auto [arch, pattern] = GetParam();
    const NetworkStats always = runOnce(arch, pattern,
                                        SchedulingMode::AlwaysTick);
    const NetworkStats checked =
        runOnce(arch, pattern, SchedulingMode::EquivalenceCheck);
    EXPECT_TRUE(identicalStats(always, checked))
        << archName(arch) << ": equivalence mode diverged";
}

INSTANTIATE_TEST_SUITE_P(
    ArchesAndPatterns, SchedulingEquivalence,
    ::testing::Values(
        Case{RouterArch::NonSpeculative, PatternKind::UniformRandom},
        Case{RouterArch::SpecFast, PatternKind::UniformRandom},
        Case{RouterArch::SpecAccurate, PatternKind::UniformRandom},
        Case{RouterArch::Nox, PatternKind::UniformRandom},
        Case{RouterArch::NonSpeculative, PatternKind::Transpose},
        Case{RouterArch::SpecFast, PatternKind::Transpose},
        Case{RouterArch::SpecAccurate, PatternKind::Transpose},
        Case{RouterArch::Nox, PatternKind::Transpose}),
    [](const ::testing::TestParamInfo<Case> &info) {
        // archName() values contain '-', which gtest names reject.
        std::string name = std::string(archName(info.param.arch)) +
                           "_" + patternName(info.param.pattern);
        std::erase_if(name, [](char c) {
            return c != '_' && !std::isalnum(
                                   static_cast<unsigned char>(c));
        });
        return name;
    });

NetworkStats
runOnceFaulty(RouterArch arch, SchedulingMode mode)
{
    FaultParams faults;
    faults.enabled = true;
    faults.bitflipRate = 0.002;
    faults.dropRate = 0.001;
    faults.creditLossRate = 0.001;
    faults.seed = 0xD15EA5E;
    auto net = buildNetwork(arch, PatternKind::UniformRandom, mode,
                            0.05, 3, faults);
    net->run(kWarmup + kMeasure);
    EXPECT_TRUE(net->drain(kDrainLimit))
        << net->lastDrainReport().summary();
    return net->stats();
}

class FaultDeterminism : public ::testing::TestWithParam<RouterArch>
{
};

TEST_P(FaultDeterminism, SameFaultSeedBitIdenticalAcrossKernels)
{
    // The fault schedule is keyed by event identity, not draw order,
    // so the same seed must yield bit-identical NetworkStats —
    // including every fault counter — whichever scheduling kernel
    // evaluates the mesh, and the equivalence kernel's per-cycle
    // quiescence asserts must stay clean while faults and recovery
    // (retries, watchdog resyncs) are in flight.
    const RouterArch arch = GetParam();
    const NetworkStats always =
        runOnceFaulty(arch, SchedulingMode::AlwaysTick);
    const NetworkStats repeat =
        runOnceFaulty(arch, SchedulingMode::AlwaysTick);
    const NetworkStats activity =
        runOnceFaulty(arch, SchedulingMode::ActivityDriven);
    const NetworkStats checked =
        runOnceFaulty(arch, SchedulingMode::EquivalenceCheck);

    EXPECT_GT(always.faults.faultsInjected, 0u);
    EXPECT_TRUE(identicalStats(always, repeat))
        << archName(arch) << ": faulty runs diverged across repeats";
    EXPECT_TRUE(identicalStats(always, activity))
        << archName(arch)
        << ": fault schedule diverged under activity scheduling";
    EXPECT_TRUE(identicalStats(always, checked))
        << archName(arch)
        << ": fault schedule diverged under equivalence checking";
}

NetworkStats
runOnceHardFaulty(RouterArch arch, SchedulingMode mode)
{
    FaultParams faults;
    faults.enabled = true;
    faults.hardLinkFaults = 3;
    faults.hardRouterFaults = 1;
    faults.hardFaultCycle = kWarmup + kMeasure / 2;
    faults.seed = 0xD15EA5E;
    auto net = buildNetwork(arch, PatternKind::UniformRandom, mode,
                            0.05, 3, faults);
    net->run(kWarmup + kMeasure);
    EXPECT_TRUE(net->drain(kDrainLimit))
        << net->lastDrainReport().summary();
    return net->stats();
}

TEST_P(FaultDeterminism, HardFaultScheduleBitIdenticalAcrossKernels)
{
    // Fail-stop kills are planned from the fault seed and applied at
    // a fixed cycle, so a mid-run degradation — dead router, dead
    // links, write-offs, table rebuild, purge — must replay bit-
    // identically under every scheduling kernel, and the equivalence
    // kernel's quiescence asserts must stay clean throughout.
    const RouterArch arch = GetParam();
    const NetworkStats always =
        runOnceHardFaulty(arch, SchedulingMode::AlwaysTick);
    const NetworkStats repeat =
        runOnceHardFaulty(arch, SchedulingMode::AlwaysTick);
    const NetworkStats activity =
        runOnceHardFaulty(arch, SchedulingMode::ActivityDriven);
    const NetworkStats checked =
        runOnceHardFaulty(arch, SchedulingMode::EquivalenceCheck);

    EXPECT_EQ(always.faults.hardLinkFaults, 3u);
    EXPECT_EQ(always.faults.hardRouterFaults, 1u);
    EXPECT_GE(always.faults.tableRebuilds, 1u);
    EXPECT_EQ(always.packetsEjected + always.faults.packetsLostHard,
              always.packetsInjected);
    EXPECT_TRUE(identicalStats(always, repeat))
        << archName(arch)
        << ": hard-fault runs diverged across repeats";
    EXPECT_TRUE(identicalStats(always, activity))
        << archName(arch)
        << ": hard-fault degradation diverged under activity "
           "scheduling";
    EXPECT_TRUE(identicalStats(always, checked))
        << archName(arch)
        << ": hard-fault degradation diverged under equivalence "
           "checking";
}

INSTANTIATE_TEST_SUITE_P(
    Arches, FaultDeterminism,
    ::testing::Values(RouterArch::NonSpeculative, RouterArch::SpecFast,
                      RouterArch::SpecAccurate, RouterArch::Nox),
    [](const ::testing::TestParamInfo<RouterArch> &info) {
        std::string n = archName(info.param);
        std::erase_if(n, [](char c) {
            return !std::isalnum(static_cast<unsigned char>(c));
        });
        return n;
    });

TEST(ArenaGrowthPath, CollisionSpillBitIdenticalAcrossKernels)
{
    // High single-flit NoX load drives collision chains past the
    // PartsVec inline capacity, so WireFlits spill to arena blocks
    // and the freelist grows mid-run. The recycled-allocation path
    // must be invisible to simulation results: stats stay
    // bit-identical across kernels, and nothing leaks.
    FlitArena &arena = FlitArena::instance();
    const FlitArenaStats before = arena.stats();

    const NetworkStats always =
        runOnce(RouterArch::Nox, PatternKind::UniformRandom,
                SchedulingMode::AlwaysTick, 0.30, 1);
    const FlitArenaStats after = arena.stats();
    EXPECT_GT(after.growths + after.reuses,
              before.growths + before.reuses)
        << "workload never spilled a PartsVec: not an arena test";
    EXPECT_EQ(after.live(), before.live())
        << "drained network left arena blocks live";

    const NetworkStats activity =
        runOnce(RouterArch::Nox, PatternKind::UniformRandom,
                SchedulingMode::ActivityDriven, 0.30, 1);
    EXPECT_TRUE(identicalStats(always, activity))
        << "kernels diverged on the arena-growth path";
}

TEST(IdenticalStats, EveryWalkedFieldCounts)
{
    // The predicates compare snapshot-walk bytes: a difference in any
    // walked field — a fault counter, a latency accumulator, the
    // histogram — breaks equality.
    const NetworkStats base;
    EXPECT_TRUE(identicalStats(base, NetworkStats{}));
    NetworkStats a;
    a.faults.ageAlarms = 1;
    EXPECT_FALSE(a.faults.identicalTo(base.faults));
    EXPECT_FALSE(identicalStats(a, base));
    NetworkStats b;
    b.latencyByClass[2].add(3.0);
    EXPECT_FALSE(identicalStats(b, base));
    NetworkStats c;
    c.latencyHist.add(5.0);
    EXPECT_FALSE(identicalStats(c, base));
    NetworkStats d;
    d.maxSourceQueueFlits = 7;
    EXPECT_FALSE(identicalStats(d, base));
}

TEST(ActivityKernel, IdleNetworkRetiresEverything)
{
    NetworkParams params;
    params.width = 8;
    params.height = 8;
    params.schedulingMode = SchedulingMode::ActivityDriven;
    auto net = makeNetwork(params, RouterArch::Nox);

    // With no traffic, a few settle cycles retire the whole mesh.
    net->run(4);
    EXPECT_EQ(net->activeRouters(), 0);
    EXPECT_EQ(net->activeNics(), 0);

    // One packet re-arms only the touched corridor, and the network
    // goes fully idle again after it drains.
    net->injectPacket(0, 63, 1, net->now(), TrafficClass::Synthetic);
    EXPECT_GT(net->activeNics(), 0);
    EXPECT_TRUE(net->drain(200));
    net->run(4);
    EXPECT_EQ(net->activeRouters(), 0);
    EXPECT_EQ(net->activeNics(), 0);
}

// The one step loop keeps each kernel's clocking: always-tick pins
// the active set full, equivalence ticks everything but retires like
// the activity kernel, and only the activity kernel clock-gates.
class KernelClocking : public ::testing::TestWithParam<SchedulingMode>
{
};

TEST_P(KernelClocking, IdleMeshClockEnergy)
{
    const SchedulingMode mode = GetParam();
    NetworkParams params;
    params.width = 4;
    params.height = 4;
    params.schedulingMode = mode;
    auto net = makeNetwork(params, RouterArch::Nox);
    const auto routers = static_cast<std::uint64_t>(net->numRouters());

    constexpr Cycle kSettle = 100;
    for (Cycle c = 0; c < 2 * kSettle; ++c) {
        const std::uint64_t before = net->totalEnergyEvents().cycles;
        net->step();
        const std::uint64_t clocked =
            net->totalEnergyEvents().cycles - before;
        if (mode != SchedulingMode::ActivityDriven) {
            ASSERT_EQ(clocked, routers) << "cycle " << c;
        } else if (c >= kSettle) {
            // After the initial settle cycles no router is clocked.
            ASSERT_EQ(clocked, 0u) << "cycle " << c;
        }
    }
    if (mode == SchedulingMode::AlwaysTick) {
        EXPECT_EQ(net->activeRouters(), net->numRouters());
        EXPECT_EQ(net->activeNics(), net->numNodes());
    } else {
        EXPECT_EQ(net->activeRouters(), 0);
        EXPECT_EQ(net->activeNics(), 0);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Modes, KernelClocking,
    ::testing::Values(SchedulingMode::AlwaysTick,
                      SchedulingMode::ActivityDriven,
                      SchedulingMode::EquivalenceCheck),
    [](const ::testing::TestParamInfo<SchedulingMode> &info) {
        return std::string(schedulingModeName(info.param));
    });

} // namespace
} // namespace nox
