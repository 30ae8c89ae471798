/**
 * @file
 * The mesh network: routers, NICs, wiring and the cycle loop.
 *
 * The Network is architecture-agnostic — a router factory supplied at
 * construction builds each node's router, so the same substrate hosts
 * all four evaluated microarchitectures (and any future one).
 */

#ifndef NOX_NOC_NETWORK_HPP
#define NOX_NOC_NETWORK_HPP

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "noc/energy_events.hpp"
#include "noc/fault_injector.hpp"
#include "noc/network_stats.hpp"
#include "noc/nic.hpp"
#include "noc/obs_hub.hpp"
#include "noc/router.hpp"
#include "noc/routing_table.hpp"
#include "noc/traffic_source.hpp"
#include "noc/transport.hpp"

namespace nox {

/** Builds one router for a node. */
using RouterFactory = std::function<std::unique_ptr<Router>(
    NodeId, const Mesh &, const RoutingTable &, const RouterParams &)>;

/**
 * How Network::step() schedules component evaluation.
 *
 * All three modes run one cycle loop over an active set. AlwaysTick
 * is the classic kernel: the set is pinned full, so every router and
 * NIC is evaluated and committed every cycle. ActivityDriven ticks
 * only the active set — components are re-armed when a flit or
 * credit is staged to them and retired once they report quiescent()
 * at commit — so an idle mesh region costs nothing (and, as clock
 * gating, accrues no clock energy). EquivalenceCheck ticks everything
 * like always-tick while maintaining the active set and asserts,
 * every cycle, that each retired component is genuinely quiescent —
 * the in-situ validation mode for the activity kernel's contract.
 */
enum class SchedulingMode : std::uint8_t {
    AlwaysTick = 0,
    ActivityDriven = 1,
    EquivalenceCheck = 2,
};

/** Display name ("alwaystick", "activity", "equivalence"). */
const char *schedulingModeName(SchedulingMode mode);

/** Parse a scheduling-mode name (fatal on unknown names). */
SchedulingMode parseSchedulingMode(const char *name);

/** Network construction parameters. */
struct NetworkParams
{
    int width = 8;
    int height = 8;
    int concentration = 1; ///< terminals per router (>1 = CMesh, §8)
    RouterParams router;   ///< numPorts is derived from concentration
    int sinkBufferDepth = 4;
    RoutingAlgo routing = RoutingAlgo::DorXY;
    SchedulingMode schedulingMode = SchedulingMode::AlwaysTick;
    FaultParams faults; ///< link-fault injection (disabled by default)
    ObsParams obs;      ///< tracing + metrics (disabled by default)

    /**
     * Deliberate-divergence knob (test/debug only): at the end of the
     * step whose ending cycle equals @p debugPerturbCycle, corrupt one
     * arbiter decision in router @p debugPerturbRouter (see
     * Router::debugPerturb). Seeds a known, cycle-exact divergence for
     * exercising the digest ledger and `trace_tool bisect`; 0 =
     * disabled. Applied after the kernel commits and before the
     * digest stride is captured, so the first differing stride is
     * labeled with exactly this cycle.
     */
    Cycle debugPerturbCycle = 0;
    NodeId debugPerturbRouter = 0;
};

/**
 * Structured diagnosis of a drain attempt. When a drain times out —
 * typically only under fault injection with recovery off, where
 * dropped flits strand their packets — the report names the
 * non-quiescent components and the partially-delivered packets, so a
 * fault-induced livelock is debuggable instead of a bare `false`.
 */
struct DrainReport
{
    bool drained = true;
    Cycle stoppedAt = 0;
    std::uint64_t packetsInFlight = 0;

    /** Packets deliberately written off by the hard-fault machinery
     *  (in flight on a dying link or stranded unreachable; cumulative
     *  over the run). These are accounted losses, not stalls: they do
     *  not block drained. */
    std::uint64_t undeliverablePackets = 0;

    /** Packets still genuinely in flight at stop — the count that
     *  decides drained (0 = success). */
    std::uint64_t stalledPackets = 0;

    std::vector<NodeId> busyRouters; ///< non-quiescent routers
    std::vector<NodeId> busyNics;    ///< non-quiescent NICs

    /** Packets some of whose flits reached the destination NIC
     *  (node, packet id, flits arrived so far), sorted. */
    struct PartialPacket
    {
        NodeId node = kInvalidNode;
        PacketId packet = kInvalidPacket;
        std::uint32_t flitsArrived = 0;
    };
    std::vector<PartialPacket> partialPackets;

    /** One-paragraph human-readable rendering of the diagnosis. */
    std::string summary() const;
};

/** A width x height mesh of single-cycle routers plus per-node NICs. */
class Network : public PacketInjector,
                public SinkListener,
                public TransportListener
{
  public:
    Network(const NetworkParams &params, RouterFactory factory);

    /** Attach a per-node traffic source (at most one per node). */
    void addSource(std::unique_ptr<TrafficSource> source);

    /** Enable/disable source ticking (off while draining a run). */
    void setSourcesEnabled(bool enabled) { sourcesEnabled_ = enabled; }

    /** Advance one clock cycle. */
    void step();

    /** Advance @p cycles clock cycles. */
    void run(Cycle cycles);

    /**
     * Step until every injected packet has been delivered or @p limit
     * cycles elapse. @return true if fully drained. On timeout, a
     * structured diagnosis of the stuck components is available via
     * lastDrainReport().
     */
    bool drain(Cycle limit);

    /** Diagnosis of the most recent drain() call. */
    const DrainReport &lastDrainReport() const
    {
        return drainReport_;
    }

    /** Restrict latency measurement to packets created in
     *  [start, end); throughput is counted over the same window. */
    void setMeasurementWindow(Cycle start, Cycle end);

    Cycle now() const { return now_; }
    SchedulingMode schedulingMode() const
    {
        return params_.schedulingMode;
    }

    /** Routers currently in the active set (all of them under the
     *  always-tick kernel; introspection for tests and benches). */
    int activeRouters() const;

    /** NICs currently in the active set. */
    int activeNics() const;

    const Mesh &mesh() const { return mesh_; }
    int numNodes() const { return mesh_.numNodes(); }
    int numRouters() const { return mesh_.numRouters(); }

    /** The shared routing table (tests inspect rebuilds/reachability). */
    const RoutingTable &routingTable() const { return table_; }

    /** The applied hard-fault map. */
    const FaultMap &faultMap() const { return faultMap_; }
    Router &router(NodeId r) { return *routers_[r]; }
    const Router &router(NodeId r) const { return *routers_[r]; }
    Nic &nic(NodeId n) { return *nics_[n]; }
    const NetworkStats &stats() const { return stats_; }

    /** The fault injector, or nullptr when injection is disabled
     *  (tests use it to schedule targeted one-shot faults). */
    FaultInjector *faultInjector() { return faults_.get(); }
    const FaultInjector *faultInjector() const { return faults_.get(); }

    /** The six observers (see ObsHub), each nullptr when disabled. */
    TraceRecorder *tracer() { return obs_.tracer(); }
    const TraceRecorder *tracer() const { return obs_.tracer(); }
    MetricsSampler *metrics() { return obs_.metrics(); }
    const MetricsSampler *metrics() const { return obs_.metrics(); }
    LatencyProvenance *provenance() { return obs_.provenance(); }
    const LatencyProvenance *provenance() const
    {
        return obs_.provenance();
    }
    PhaseProfiler *profiler() { return obs_.profiler(); }
    const PhaseProfiler *profiler() const { return obs_.profiler(); }
    RunTelemetry *telemetry() { return obs_.telemetry(); }
    const RunTelemetry *telemetry() const { return obs_.telemetry(); }
    DigestLedger *digest() { return obs_.digest(); }
    const DigestLedger *digest() const { return obs_.digest(); }

    /**
     * Capture one digest stride of the current state: the canonical
     * Digest-scope serialize() bytes of every component, hashed
     * per-component (see obs/digest.hpp). Must be called between
     * steps, like serialize(). Usable with the ledger off — tests and
     * the bisector digest networks that were built without one.
     * @p scratch is reused across components and strides.
     */
    DigestStride computeDigestStride(snap::Writer &scratch) const;

    /** Convenience overload with a throwaway scratch buffer. */
    DigestStride
    computeDigestStride() const
    {
        snap::Writer scratch;
        return computeDigestStride(scratch);
    }

    /**
     * End-of-run observability flush: closes the final partial
     * metrics window and writes the configured exports (metrics
     * JSONL, Chrome trace JSON). Idempotent on the window flush;
     * call once after the last step()/drain().
     */
    void finishObservability() { obs_.finish(*this); }

    std::uint64_t packetsInFlight() const;

    /**
     * The network's counters as one heartbeat sample (traffic, fault
     * and healing totals, flit-arena and digest-ledger state). The
     * checkpoint age is left unset: it belongs to the heartbeat that
     * saw the checkpoints, not to the network.
     */
    TelemetrySample telemetrySample() const;

    /** Sum of all router + NIC energy-event counters. */
    EnergyEvents totalEnergyEvents() const;

    // -- checkpointing --

    /**
     * Arm periodic checkpointing: after every step() whose ending
     * cycle is a multiple of @p interval, @p hook is invoked with
     * this network. The hook's owner (runner or tool) decides what
     * to serialize around the network section and where to write it —
     * the Network itself never touches the filesystem.
     */
    void
    installCheckpoint(Cycle interval, std::function<void(Network &)> hook)
    {
        obs_.installCheckpoint(interval, std::move(hook));
    }

    /**
     * Construction-parameter fingerprint embedded in snapshots and
     * cross-checked at restore: two Networks with equal fingerprints
     * are structurally identical (same topology, microarchitecture,
     * fault plan and observability geometry), so restoring one's
     * dynamic state into the other is well-defined.
     */
    std::string fingerprint() const;

    /**
     * Capture / restore the complete dynamic state. Must be called
     * between steps (no staged effects in flight). restore() expects
     * a freshly constructed Network with the same construction
     * parameters (enforced upstream via fingerprint()); it replays
     * the snapshot's hard-fault topology onto this network before
     * overwriting any component state.
     */
    void serialize(snap::Writer &w) const { walk(w, *this); }
    void restore(snap::Reader &r) { walk(r, *this); }

    // -- PacketInjector --
    PacketId injectPacket(NodeId src, NodeId dst, int num_flits,
                          Cycle now, TrafficClass cls) override;
    std::size_t sourceQueueFlits(NodeId node) const override;

    // -- SinkListener --
    void onFlitDelivered(NodeId node, const FlitDesc &flit,
                         Cycle now) override;
    void onPacketCompleted(NodeId node, const FlitDesc &last_flit,
                           Cycle head_inject, Cycle now) override;

    // -- TransportListener --
    bool onE2eResend(PacketId base, const TransportEntry &e) override;
    void onE2eAck(PacketId base, const TransportEntry &e) override;
    void onE2eFail(PacketId base, const TransportEntry &e) override;

    /** The E2E transport layer, or nullptr when disabled. */
    const E2eTransport *transport() const { return transport_.get(); }

  private:
    friend class ObsHub; // reads routers, NICs and active-set flags

    /** Build one wire packet's flits (ids, payloads, VC by class)
     *  into the reused scratchInjectFlits_ buffer. */
    const std::vector<FlitDesc> &
    buildFlits(PacketId packet, std::uint32_t num_flits, NodeId src,
               NodeId dst, Cycle created, TrafficClass cls,
               std::uint32_t flow_seq);

    /** The snapshot walk behind serialize() and restore(). */
    template <class Ar, class Self>
    static void walk(Ar &ar, Self &self);

    /**
     * The network-global trajectory state: the subset of the
     * snapshot's globals that is deterministic across kernels and
     * observer configurations, hashed as the digest's global
     * component. walk() visits it first, then what is deliberately
     * excluded here: the age-dump latch (only ever set when a tracer
     * is attached), active-set and previous-active flags (kernel
     * bookkeeping) and metrics window baselines (observer-owned).
     */
    template <class Ar, class Self>
    static void walkDigestGlobals(Ar &ar, Self &self);

    /** Restore side of the hard-fault topology: heal this freshly
     *  built network back to the pristine mesh, then re-kill exactly
     *  the snapshot's lists and rebuild the routing table. */
    void replayFaultTopology(
        const std::vector<NodeId> &dead_routers,
        const std::vector<std::pair<NodeId, int>> &dead_links);

    /**
     * Apply every hard fault due at the current cycle: kill the
     * targeted links/routers (in-flight flits on them are lost),
     * rebuild the routing table, and — mid-run only — notify the
     * routers and purge every flit that the new topology can no
     * longer deliver. @p at_construction skips the notification and
     * purge: nothing is in flight yet, and the routers must not enter
     * degraded mode for faults that predate all traffic.
     */
    void applyDueHardFaults(bool at_construction);

    /** Sever the link out of @p router via @p port (both directions),
     *  collecting in-flight casualties. */
    void killLink(NodeId router, int port, std::vector<FlitDesc> &lost);

    /** Kill @p router, all its mesh links and its terminal NICs. */
    void killRouter(NodeId router, std::vector<FlitDesc> &lost);

    /** Wire the mesh link out of @p router via @p port in both
     *  directions and reset both endpoints' per-port state (used at
     *  construction and by heals). Both endpoint routers must be
     *  alive and the link unwired. */
    void wireLink(NodeId router, int port);

    /** Heal the explicit link fault on (@p router, @p port), re-wiring
     *  the channel when neither endpoint router remains dead.
     *  @p record counts the heal (false during snapshot replay, where
     *  the restored stats already include it). */
    void healLink(NodeId router, int port, bool record = true);

    /** Revive @p router: re-wire every mesh link not still explicitly
     *  dead and re-attach its terminal NICs (quiescent and empty). */
    void healRouter(NodeId router, bool record = true);

    /** True when traffic has fully settled: nothing in flight and —
     *  with the transport on — no open retransmission window and all
     *  components quiescent (stale attempt flits must reach the
     *  destination door and be suppressed there). */
    bool drainComplete() const;

    /** Age-watchdog sweep (packetAgeLimit > 0 only). */
    void checkPacketAges();

    /** Track the peak source-queue occupancy of NIC @p node. Runs in
     *  the cycle loop: direct Nic::enqueuePacket() calls bypass
     *  injectPacket()'s sampling and only this sweep can see them. */
    void sampleSourceQueue(NodeId node)
    {
        stats_.maxSourceQueueFlits =
            std::max(stats_.maxSourceQueueFlits,
                     nics_[static_cast<std::size_t>(node)]
                         ->sourceQueueFlits());
    }

    NetworkParams params_;
    Mesh mesh_;
    RoutingTable table_;  ///< shared by all routers (built first)
    FaultMap faultMap_;   ///< accumulated hard faults
    std::vector<std::unique_ptr<Router>> routers_;
    std::vector<std::unique_ptr<Nic>> nics_;
    std::vector<std::unique_ptr<TrafficSource>> sources_;
    std::unique_ptr<FaultInjector> faults_;
    std::unique_ptr<E2eTransport> transport_;
    ObsHub obs_;
    DrainReport drainReport_;

    /** Active-set flags, indexed by router / node id. Routers and
     *  NICs hold pointers into these (bindActivity) and set them on
     *  any staging; step() clears them on quiescent retirement. */
    std::vector<std::uint8_t> routerActive_;
    std::vector<std::uint8_t> nicActive_;
    std::vector<NodeId> scratchRouters_; ///< per-cycle snapshot
    std::vector<FlitDesc> scratchInjectFlits_; ///< injectPacket() reuse

    NetworkStats stats_;
    Cycle now_ = 0;
    PacketId nextPacket_ = 1;
    bool sourcesEnabled_ = true;

    /** Per-flow (src, dest) end-to-end sequence numbers, stamped at
     *  injection and checked at completion (faults enabled only). */
    std::unordered_map<std::uint64_t, std::uint32_t> flowNextSeq_;
    std::unordered_map<std::uint64_t, std::uint32_t> flowMaxDone_;

    /** Age-watchdog state (packetAgeLimit > 0 only). */
    std::deque<std::pair<PacketId, Cycle>> ageQueue_;
    std::unordered_set<PacketId> ageInFlight_;
    bool ageDumpLatched_ = false;
};

} // namespace nox

#endif // NOX_NOC_NETWORK_HPP
