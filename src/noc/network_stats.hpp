/**
 * @file
 * Aggregated per-run network statistics.
 */

#ifndef NOX_NOC_NETWORK_STATS_HPP
#define NOX_NOC_NETWORK_STATS_HPP

#include <array>
#include <cstdint>

#include "common/stats.hpp"
#include "noc/types.hpp"

// Histogram is bucketed in cycles; 1-cycle buckets up to 4096 cover
// everything short of deep saturation (overflow bucket catches that).

namespace nox {

/**
 * Fault-injection and recovery counters. Injected counts are bumped by
 * the FaultInjector at the moment a fault perturbs the fabric;
 * detection/recovery counts are bumped by the link layer, decode
 * logic and sinks as faults are caught and healed. All counters are
 * part of the bit-identical cross-kernel equivalence contract.
 */
struct FaultStats
{
    /** Total injected faults (bit flips + drops + credit losses). */
    std::uint64_t faultsInjected = 0;
    std::uint64_t bitflipsInjected = 0;
    std::uint64_t dropsInjected = 0;
    std::uint64_t creditsLostInjected = 0;

    /** Faults caught by a defence layer: link CRC rejections,
     *  retry-timeout drop detections, XOR-decode payload mismatches
     *  and watchdog credit-divergence detections. */
    std::uint64_t faultsDetected = 0;

    /** Link-level retransmission attempts (includes re-faulted
     *  retries, so this can exceed dropsInjected+bitflipsInjected). */
    std::uint64_t retransmissions = 0;

    /** Credit-watchdog resynchronization events. */
    std::uint64_t creditResyncs = 0;

    /** Corrupted payloads that escaped the link layer and reached a
     *  destination sink (caught there by the end-to-end payload
     *  check; zero whenever recovery is enabled). */
    std::uint64_t corruptedEscapes = 0;

    /** XOR-decode payload mismatches observed mid-network (NoX input
     *  ports) or at ejection sinks — NoX's decode property acting as
     *  a free corruption detector. Also counted in faultsDetected. */
    std::uint64_t decodeMismatches = 0;

    // -- hard (fail-stop) faults and their fallout --

    /** Fail-stop kills applied (links / whole routers). */
    std::uint64_t hardLinkFaults = 0;
    std::uint64_t hardRouterFaults = 0;

    /** Routing-table rebuilds (1 for the initial build; +1 per batch
     *  of hard faults applied). */
    std::uint64_t tableRebuilds = 0;

    /** Flits / packets written off by hard faults (in flight on a
     *  dying link, buffered at a dying router, or stranded when their
     *  destination became unreachable). Without the E2E transport
     *  these are final, counted losses and conservation is
     *  `ejected + packetsLostHard == injected`; with the transport
     *  enabled every write-off is retried from the source window and
     *  the end-state identity is the exactly-once one:
     *  `ejected + deliveryFailures == injected`. */
    std::uint64_t flitsLostHard = 0;
    std::uint64_t packetsLostHard = 0;

    // -- E2E transport (source window / ack / retransmit) --

    /** Whole-packet retransmissions triggered by the source NIC's
     *  E2E timeout (each travels under a fresh attempt id). */
    std::uint64_t e2eRetransmits = 0;

    /** Duplicate flits suppressed at the destination door (late
     *  copies of an already-delivered flow sequence number). */
    std::uint64_t dupSuppressed = 0;

    /** Packets abandoned after exhausting the E2E retry budget —
     *  the only way an accepted packet is not delivered. */
    std::uint64_t deliveryFailures = 0;

    // -- healing --

    /** Heal events applied (revived links / routers). */
    std::uint64_t linkHeals = 0;
    std::uint64_t routerHeals = 0;

    /** Injection attempts rejected because the destination is
     *  unreachable in the current topology (never injected, never
     *  counted in packetsInjected). */
    std::uint64_t unreachableRejected = 0;

    /** Per-flow sequence inversions observed at delivery (adaptive
     *  rerouting after a mid-run kill can reorder flows; the NICs
     *  track per-(src,dst) sequence numbers to make this visible). */
    std::uint64_t flowReorders = 0;

    /** Packet-age watchdog alarms (packets older than the configured
     *  age limit; each also latches the flight recorder once). */
    std::uint64_t ageAlarms = 0;

    /** Bit-exact equality of every counter (see identicalStats). */
    bool identicalTo(const FaultStats &o) const;
};

/** Latency / throughput statistics gathered by the Network. */
struct NetworkStats
{
    // Totals over the whole simulation.
    std::uint64_t packetsInjected = 0;
    std::uint64_t flitsInjected = 0;
    std::uint64_t packetsEjected = 0;
    std::uint64_t flitsEjected = 0;

    // Measurement window [measureStart, measureEnd).
    Cycle measureStart = 0;
    Cycle measureEnd = ~Cycle{0};

    /** Packet latency in cycles (creation to last-flit delivery,
     *  including source-queue time), for packets created inside the
     *  measurement window. */
    SampleStats latency;

    /** Network latency in cycles (head-flit injection into the
     *  router to last-flit delivery), same population. */
    SampleStats netLatency;

    /** Total-latency histogram (cycles) for percentile queries.
     *  Auto-widening: deeply congested runs double the bucket width
     *  instead of silently piling tail latencies into overflow. */
    Histogram latencyHist{1.0, 4096, true};

    /** Per-class total latency (synthetic / request / reply). */
    std::array<SampleStats, 3> latencyByClass;

    /** Packets created in the window (for drain accounting). */
    std::uint64_t packetsMeasured = 0;
    std::uint64_t packetsMeasuredDone = 0;

    /** Flits delivered during the window (accepted throughput). */
    std::uint64_t flitsEjectedInWindow = 0;

    /** Flits created during the window (actual offered load; silent
     *  sources under deterministic patterns inject nothing). */
    std::uint64_t flitsCreatedInWindow = 0;

    /** Largest source-queue depth observed (saturation signal). */
    std::size_t maxSourceQueueFlits = 0;

    /** Fault-injection and recovery counters (all zero when fault
     *  injection is disabled). */
    FaultStats faults;

    /** Accepted throughput in flits/cycle/node over the window. */
    double
    acceptedFlitsPerNodeCycle(int num_nodes) const
    {
        const Cycle window = measureEnd - measureStart;
        if (window == 0 || num_nodes == 0)
            return 0.0;
        return static_cast<double>(flitsEjectedInWindow) /
               (static_cast<double>(window) *
                static_cast<double>(num_nodes));
    }
};

/**
 * Bit-exact equality across every field, including the floating-point
 * latency accumulators. This is the predicate behind the scheduling-
 * kernel equivalence guarantee: an always-tick run and an activity-
 * driven run of the same seeded configuration must satisfy it. Both
 * predicates compare the bytes of the snapshot walks in
 * noc/snapshot_codec.hpp, so a counter added to a walk joins the
 * check without a second field list.
 */
bool identicalStats(const NetworkStats &a, const NetworkStats &b);

} // namespace nox

#endif // NOX_NOC_NETWORK_STATS_HPP
