/** @file Tests for the Router base-class plumbing: wiring, staging,
 *  credits, two-phase commit discipline and the shared wormhole lock
 *  table. */

#include <gtest/gtest.h>

#include "noc/network.hpp"
#include "routers/factory.hpp"

namespace nox {
namespace {

std::unique_ptr<Network>
mesh2x2(RouterArch arch = RouterArch::NonSpeculative)
{
    NetworkParams params;
    params.width = 2;
    params.height = 2;
    return makeNetwork(params, arch);
}

FlitDesc
flitTo(NodeId dest, PacketId p = 1)
{
    FlitDesc d;
    d.uid = flitUid(p, 0);
    d.packet = p;
    d.packetSize = 1;
    d.src = 0;
    d.dest = dest;
    d.payload = expectedPayload(p, 0);
    return d;
}

TEST(RouterBase, MeshWiringConnectsInteriorPortsOnly)
{
    auto net = mesh2x2();
    // Node 0 = (0,0): East and South connected, North/West edges not.
    const Router &r = net->router(0);
    EXPECT_TRUE(r.outputConnected(kPortEast));
    EXPECT_TRUE(r.outputConnected(kPortSouth));
    EXPECT_FALSE(r.outputConnected(kPortNorth));
    EXPECT_FALSE(r.outputConnected(kPortWest));
    EXPECT_TRUE(r.outputConnected(kPortLocal));
}

TEST(RouterBase, InitialCreditsMatchDownstreamBufferDepth)
{
    NetworkParams params;
    params.width = 2;
    params.height = 2;
    params.router.bufferDepth = 7;
    params.sinkBufferDepth = 3;
    auto net = makeNetwork(params, RouterArch::NonSpeculative);
    EXPECT_EQ(net->router(0).outputCredits(kPortEast), 7);
    EXPECT_EQ(net->router(0).outputCredits(kPortLocal), 3);
}

TEST(RouterBase, StagedFlitInvisibleUntilCommit)
{
    auto net = mesh2x2();
    Router &r = net->router(0);
    r.stageFlit(kPortWest, WireFlit::fromDesc(flitTo(1)));
    EXPECT_TRUE(r.inputFifo(kPortWest).empty());
    r.commit();
    EXPECT_EQ(r.inputFifo(kPortWest).size(), 1u);
}

TEST(RouterBase, StagedCreditInvisibleUntilCommit)
{
    auto net = mesh2x2();
    Router &r = net->router(0);
    const int before = r.outputCredits(kPortEast);
    r.stageCredit(kPortEast, 2);
    EXPECT_EQ(r.outputCredits(kPortEast), before);
    r.commit();
    EXPECT_EQ(r.outputCredits(kPortEast), before + 2);
}

TEST(RouterBase, CreditFlowsBackAfterTraversal)
{
    auto net = mesh2x2();
    // 0 -> 3 goes East to 1, then South. Watch 0's East credits.
    net->injectPacket(0, 3, 1, net->now(), TrafficClass::Synthetic);
    const int before = net->router(0).outputCredits(kPortEast);
    ASSERT_TRUE(net->drain(100));
    EXPECT_EQ(net->router(0).outputCredits(kPortEast), before);
}

TEST(RouterBase, EnergyCountersMonotonic)
{
    auto net = mesh2x2(RouterArch::Nox);
    net->injectPacket(0, 3, 1, net->now(), TrafficClass::Synthetic);
    const EnergyEvents mid = net->totalEnergyEvents();
    net->run(3);
    net->injectPacket(0, 3, 1, net->now(), TrafficClass::Synthetic);
    ASSERT_TRUE(net->drain(100));
    const EnergyEvents end = net->totalEnergyEvents();
    EXPECT_GE(end.linkFlits, mid.linkFlits);
    EXPECT_GE(end.bufferWrites, mid.bufferWrites);
    EXPECT_GE(end.cycles, mid.cycles);
    // diff() must invert merge-like accumulation.
    const EnergyEvents d = diff(end, mid);
    EXPECT_EQ(d.linkFlits, end.linkFlits - mid.linkFlits);
    EXPECT_EQ(d.cycles, end.cycles - mid.cycles);
}

TEST(RouterBaseDeathTest, DoubleStageSameInputAborts)
{
    auto net = mesh2x2();
    Router &r = net->router(0);
    r.stageFlit(kPortWest, WireFlit::fromDesc(flitTo(1)));
    EXPECT_DEATH(
        r.stageFlit(kPortWest, WireFlit::fromDesc(flitTo(1, 2))),
        "two flits staged");
}

TEST(RouterBaseDeathTest, BadPortAborts)
{
    auto net = mesh2x2();
    EXPECT_DEATH(net->router(0).stageFlit(
                     9, WireFlit::fromDesc(flitTo(1))),
                 "bad port");
    EXPECT_DEATH(net->router(0).stageCredit(-1), "bad port");
}

TEST(RouterBase, ArbiterKindSelectable)
{
    for (ArbiterKind kind :
         {ArbiterKind::RoundRobin, ArbiterKind::FixedPriority,
          ArbiterKind::Matrix}) {
        NetworkParams params;
        params.width = 2;
        params.height = 2;
        params.router.arbiterKind = kind;
        auto net = makeNetwork(params, RouterArch::Nox);
        net->injectPacket(0, 3, 1, net->now(),
                          TrafficClass::Synthetic);
        EXPECT_TRUE(net->drain(100));
        EXPECT_EQ(net->stats().packetsEjected, 1u);
    }
}

TEST(RouterBase, EvaluationOrderIndependence)
{
    // The two-phase discipline means the Network's (fixed) iteration
    // order cannot matter; as a proxy, identical stimuli through two
    // separately constructed networks yield identical statistics.
    for (RouterArch arch : kAllArchs) {
        std::uint64_t flits[2];
        double lat[2];
        for (int i = 0; i < 2; ++i) {
            auto net = mesh2x2(arch);
            for (int k = 0; k < 8; ++k) {
                net->injectPacket(k % 4, 3 - (k % 4), 1 + (k % 2) * 2,
                                  net->now(),
                                  TrafficClass::Synthetic);
                net->step();
            }
            EXPECT_TRUE(net->drain(1000));
            flits[i] = net->stats().flitsEjected;
            lat[i] = net->stats().latency.mean();
        }
        EXPECT_EQ(flits[0], flits[1]);
        EXPECT_DOUBLE_EQ(lat[0], lat[1]);
    }
}

/** Flit @p seq of a @p size -flit packet @p p. */
FlitDesc
flitOf(PacketId p, int seq, int size, NodeId dest = 1)
{
    FlitDesc d = flitTo(dest, p);
    d.uid = flitUid(p, static_cast<std::uint32_t>(seq));
    d.seq = static_cast<std::uint32_t>(seq);
    d.packetSize = static_cast<std::uint32_t>(size);
    d.payload = expectedPayload(p, static_cast<std::uint32_t>(seq));
    return d;
}

TEST(WormholeLocks, HeadAcquiresBodyKeepsOwnTailReleases)
{
    WormholeLocks locks(5, 1);
    EXPECT_FALSE(locks.anyHeld());
    locks.update(kPortEast, kPortSouth, flitOf(7, 0, 3));
    EXPECT_TRUE(locks.held(kPortEast));
    EXPECT_EQ(locks.owner(kPortEast), kPortSouth);
    EXPECT_EQ(locks.packet(kPortEast), 7u);
    EXPECT_TRUE(locks.anyHeld());

    locks.update(kPortEast, kPortSouth, flitOf(7, 1, 3));
    EXPECT_EQ(locks.owner(kPortEast), kPortSouth) << "body keeps it";

    locks.update(kPortEast, kPortSouth, flitOf(7, 2, 3));
    EXPECT_FALSE(locks.held(kPortEast)) << "own tail releases it";
    EXPECT_EQ(locks.packet(kPortEast), kInvalidPacket);
    EXPECT_FALSE(locks.anyHeld());

    // A single-flit packet is head and tail at once: no lock.
    locks.update(kPortEast, kPortSouth, flitOf(8, 0, 1));
    EXPECT_FALSE(locks.held(kPortEast));
}

TEST(WormholeLocks, ForeignTailDoesNotRelease)
{
    // Degraded mode: a lock-free tail of another packet reaches the
    // locked output through a different input.
    WormholeLocks locks(5, 1);
    locks.update(kPortEast, kPortSouth, flitOf(7, 0, 3));
    locks.update(kPortEast, kPortWest, flitOf(9, 2, 3));
    EXPECT_EQ(locks.owner(kPortEast), kPortSouth);
    EXPECT_EQ(locks.packet(kPortEast), 7u);
}

TEST(WormholeLocks, SuppliesOnlyTheLockedPacketOnItsOutput)
{
    WormholeLocks locks(5, 1);
    locks.update(kPortEast, kPortSouth, flitOf(7, 0, 3));
    const FlitDesc body = flitOf(7, 1, 3);
    const FlitDesc other = flitOf(9, 0, 3);
    EXPECT_TRUE(locks.supplies(kPortEast, &body, kPortEast));
    EXPECT_FALSE(locks.supplies(kPortEast, &other, kPortEast))
        << "owner's head is a different packet";
    EXPECT_FALSE(locks.supplies(kPortEast, &body, kPortNorth))
        << "owner's head routes to another output";
    EXPECT_FALSE(locks.supplies(kPortEast, &body, -1))
        << "owner's head requests nothing";
    EXPECT_FALSE(locks.supplies(kPortEast, nullptr, -1))
        << "owner's input is empty";
}

TEST(WormholeLocks, LanesAreIndexedByOutputAndVc)
{
    WormholeLocks locks(5, 2);
    const int lane = kPortEast * 2 + 1;
    locks.update(lane, kPortSouth, flitOf(7, 0, 3));
    EXPECT_FALSE(locks.held(kPortEast * 2)) << "other VC untouched";
    const FlitDesc body = flitOf(7, 1, 3);
    EXPECT_TRUE(locks.supplies(lane, &body, kPortEast));
    locks.clearOutput(kPortNorth);
    EXPECT_TRUE(locks.held(lane)) << "other output untouched";
    locks.clearOutput(kPortEast);
    EXPECT_FALSE(locks.anyHeld());
}

TEST(RouterBase, HeldLockKeepsRouterLiveUntilRebuild)
{
    for (RouterArch arch : kAllArchs) {
        auto net = mesh2x2(arch);
        Router &r = net->router(0);
        // The head of a 3-flit packet 0 -> 1 crosses 0's East output
        // and locks it; the body flits never arrive.
        r.stageFlit(kPortLocal, WireFlit::fromDesc(flitOf(7, 0, 3)));
        r.commit();
        r.evaluate(0);
        EXPECT_EQ(r.lockOwner(kPortEast), kPortLocal)
            << archName(arch);
        r.commit();
        EXPECT_FALSE(r.quiescent()) << "a held lock keeps it live";
        r.onTableRebuild();
        EXPECT_EQ(r.lockOwner(kPortEast), -1) << "a rebuild clears it";
    }
}

} // namespace
} // namespace nox
