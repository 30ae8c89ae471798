#include "noc/network.hpp"

#include <algorithm>
#include <cstring>
#include <sstream>
#include <string_view>

#include "common/log.hpp"
#include "noc/flit_arena.hpp"
#include "noc/snapshot_codec.hpp"

namespace nox {

std::string
DrainReport::summary() const
{
    std::ostringstream os;
    if (drained) {
        os << "drained by cycle " << stoppedAt;
        return os.str();
    }
    os << "drain timed out at cycle " << stoppedAt << " with "
       << stalledPackets << " stalled packet(s)";
    if (undeliverablePackets > 0) {
        os << " (plus " << undeliverablePackets
           << " written off as undeliverable after hard faults)";
    }
    os << "; ";
    os << busyRouters.size() << " busy router(s)";
    if (!busyRouters.empty()) {
        os << " [";
        for (std::size_t i = 0; i < busyRouters.size(); ++i)
            os << (i ? " " : "") << busyRouters[i];
        os << "]";
    }
    os << ", " << busyNics.size() << " busy NIC(s)";
    if (!busyNics.empty()) {
        os << " [";
        for (std::size_t i = 0; i < busyNics.size(); ++i)
            os << (i ? " " : "") << busyNics[i];
        os << "]";
    }
    if (!partialPackets.empty()) {
        os << "; partially delivered:";
        for (const auto &p : partialPackets)
            os << " packet " << p.packet << " (" << p.flitsArrived
               << " flits at node " << p.node << ")";
    }
    return os.str();
}

const char *
schedulingModeName(SchedulingMode mode)
{
    switch (mode) {
      case SchedulingMode::AlwaysTick:
        return "alwaystick";
      case SchedulingMode::ActivityDriven:
        return "activity";
      case SchedulingMode::EquivalenceCheck:
        return "equivalence";
    }
    panic("unknown scheduling mode");
}

SchedulingMode
parseSchedulingMode(const char *name)
{
    const std::string_view n(name);
    if (n == "alwaystick" || n == "always")
        return SchedulingMode::AlwaysTick;
    if (n == "activity" || n == "scheduled")
        return SchedulingMode::ActivityDriven;
    if (n == "equivalence" || n == "check")
        return SchedulingMode::EquivalenceCheck;
    fatal("unknown scheduling mode '", n,
          "' (alwaystick | activity | equivalence)");
}

Network::Network(const NetworkParams &params, RouterFactory factory)
    : params_(params),
      mesh_(params.width, params.height, params.concentration),
      table_(mesh_, params.routing), faultMap_(mesh_),
      obs_(params.obs, mesh_.numRouters())
{
    NOX_ASSERT(factory, "router factory required");

    // Router radix follows the topology's concentration factor.
    RouterParams rp = params.router;
    rp.numPorts = mesh_.radix();
    params_.router = rp;

    const int nr = mesh_.numRouters();
    const int nn = mesh_.numNodes();
    routers_.reserve(static_cast<std::size_t>(nr));
    nics_.reserve(static_cast<std::size_t>(nn));

    for (NodeId r = 0; r < nr; ++r)
        routers_.push_back(factory(r, mesh_, table_, rp));
    // Sinks hold one buffer's worth per VC (per-VC output credits
    // must all be backed by real sink capacity).
    const int sink_depth = params.sinkBufferDepth * rp.vcCount;
    for (NodeId node = 0; node < nn; ++node)
        nics_.push_back(std::make_unique<Nic>(node, sink_depth));

    // Wire every inter-router link once, from its south/east end:
    // wireLink connects both directions.
    for (NodeId r = 0; r < nr; ++r) {
        for (int port : {kPortNorth, kPortWest}) {
            if (mesh_.neighbor(r, port) != kInvalidNode)
                wireLink(r, port);
        }
    }
    // Attach each terminal's NIC to its router's local port.
    for (NodeId node = 0; node < nn; ++node) {
        nics_[node]->connectRouter(
            routers_[mesh_.routerOf(node)].get(),
            mesh_.localPortOf(node));
        nics_[node]->setListener(this);
    }

    // Fault injection: one shared injector, counters bound to this
    // network's stats so the fault schedule and its detection record
    // are part of the cross-kernel equivalence contract.
    if (params.faults.enabled) {
        faults_ = std::make_unique<FaultInjector>(params.faults);
        faults_->bindStats(&stats_.faults);
        for (auto &r : routers_)
            r->attachFaults(faults_.get());
        for (auto &nic : nics_)
            nic->attachFaults(faults_.get());
        faults_->planHardFaults(mesh_);
        // Config-time (cycle-0) kills apply before any traffic
        // exists: clean topology surgery, no losses, no degradation.
        if (faults_->hardFaultsPending())
            applyDueHardFaults(/*at_construction=*/true);
        // End-to-end transport: source-side retransmission windows at
        // the NICs plus destination-side duplicate suppression.
        if (params.faults.e2eTransport) {
            transport_ = std::make_unique<E2eTransport>(
                params.faults.e2eTimeout, params.faults.e2eRetryLimit,
                params.faults.e2eAckDelay);
            for (auto &nic : nics_)
                nic->attachTransport(transport_.get());
        }
    }

    // Active-set bookkeeping: everything starts armed (the first
    // cycles retire whatever is genuinely idle). The flag vectors are
    // sized once here and never reallocated, so the bound pointers
    // stay valid for the network's lifetime.
    routerActive_.assign(static_cast<std::size_t>(nr), 1);
    nicActive_.assign(static_cast<std::size_t>(nn), 1);
    scratchRouters_.reserve(static_cast<std::size_t>(nr));
    for (NodeId r = 0; r < nr; ++r)
        routers_[r]->bindActivity(&routerActive_[r]);
    for (NodeId node = 0; node < nn; ++node)
        nics_[node]->bindActivity(&nicActive_[node]);

    obs_.connect(*this);
}

void
Network::killLink(NodeId router, int port, std::vector<FlitDesc> &lost)
{
    if (!faultMap_.killLink(router, port))
        return; // no live link there (edge, or already dead)
    const NodeId nb = mesh_.neighbor(router, port);
    const int back = Mesh::oppositePort(port);
    // Both directions die at once: the forward flit wire and the
    // turnaround credit wire share the failed physical channel.
    routers_[router]->killOutput(port, lost);
    routers_[nb]->killInput(back, lost);
    routers_[nb]->killOutput(back, lost);
    routers_[router]->killInput(port, lost);
}

void
Network::killRouter(NodeId router, std::vector<FlitDesc> &lost)
{
    if (!faultMap_.killRouter(router))
        return; // already dead
    for (int port = kPortNorth; port <= kPortWest; ++port) {
        const NodeId nb = mesh_.neighbor(router, port);
        if (nb == kInvalidNode)
            continue;
        routers_[router]->killOutput(port, lost);
        routers_[router]->killInput(port, lost);
        const int back = Mesh::oppositePort(port);
        routers_[nb]->killOutput(back, lost);
        routers_[nb]->killInput(back, lost);
    }
    // Terminal connections and their NICs die with the router.
    for (int t = 0; t < mesh_.concentration(); ++t) {
        const int lp = kPortLocal + t;
        routers_[router]->killOutput(lp, lost);
        routers_[router]->killInput(lp, lost);
        nics_[mesh_.terminalAt(router, lp)]->killAttached(lost);
    }
}

void
Network::wireLink(NodeId router, int port)
{
    const NodeId nb = mesh_.neighbor(router, port);
    NOX_ASSERT(nb != kInvalidNode, "wiring a link off the mesh edge");
    const int back = Mesh::oppositePort(port);
    const RouterParams &rp = params_.router;

    // Both directions together: forward flit wire plus turnaround
    // credit wire (our input `port` is fed by nb's output `back`).
    Router::FlitTarget ft;
    ft.router = routers_[nb].get();
    ft.port = back;
    routers_[router]->connectOutput(port, ft, rp.bufferDepth);
    Router::CreditTarget ct;
    ct.router = routers_[nb].get();
    ct.port = back;
    routers_[router]->connectInputCredit(port, ct);

    ft.router = routers_[router].get();
    ft.port = port;
    routers_[nb]->connectOutput(back, ft, rp.bufferDepth);
    ct.router = routers_[router].get();
    ct.port = port;
    routers_[nb]->connectInputCredit(back, ct);

    // Per-port microarchitectural state (VC credit books, lane locks)
    // resets to the pristine post-construction value on both sides
    // (a no-op on a link being wired at construction).
    routers_[router]->onOutputRevived(port);
    routers_[nb]->onOutputRevived(back);
}

void
Network::healLink(NodeId router, int port, bool record)
{
    if (!faultMap_.healLink(router, port))
        return; // no explicit fault recorded there
    // The explicit fault is lifted either way, but the channel only
    // carries traffic again once neither endpoint router is dead —
    // a dead endpoint keeps the link implicitly down until its own
    // heal re-wires it.
    if (!faultMap_.linkDead(router, port))
        wireLink(router, port);
    if (record)
        faults_->recordHeal(FaultKind::LinkHeal, router, port);
}

void
Network::healRouter(NodeId router, bool record)
{
    if (!faultMap_.healRouter(router))
        return; // not dead
    for (int port = kPortNorth; port <= kPortWest; ++port) {
        const NodeId nb = mesh_.neighbor(router, port);
        if (nb == kInvalidNode)
            continue;
        // Re-wire every implicit casualty of the original kill; links
        // with their own explicit fault, or whose far endpoint is
        // still dead, stay down until their own heal.
        if (!faultMap_.linkDead(router, port))
            wireLink(router, port);
    }
    // Terminal NICs come back quiescent and empty: killAttached()
    // drained their queues, and connectRouter() rebuilds the credit
    // books against the (freshly constructed-state) local port.
    for (int t = 0; t < mesh_.concentration(); ++t) {
        const int lp = kPortLocal + t;
        const NodeId node = mesh_.terminalAt(router, lp);
        nics_[node]->revive();
        nics_[node]->connectRouter(routers_[router].get(), lp);
        routers_[router]->onOutputRevived(lp);
    }
    if (record)
        faults_->recordHeal(FaultKind::RouterHeal, router, -1);
}

void
Network::applyDueHardFaults(bool at_construction)
{
    std::vector<FaultInjector::HardFault> due =
        faults_->takeDueHardFaults(now_);
    if (due.empty())
        return;

    std::vector<FlitDesc> lost;
    for (const auto &h : due) {
        switch (h.kind) {
          case FaultKind::RouterDead:
            killRouter(h.router, lost);
            break;
          case FaultKind::LinkDead:
            killLink(h.router, h.port, lost);
            break;
          case FaultKind::RouterHeal:
            healRouter(h.router);
            break;
          case FaultKind::LinkHeal:
            healLink(h.router, h.port);
            break;
          default:
            panic("soft fault kind in the hard-fault schedule");
        }
    }

    // A heal changes the topology exactly like a kill: the table
    // rebuild below (toward DOR as the fault map empties) can orphan
    // in-flight flits on now-forbidden turns, so the purge fixpoint
    // runs for heal-only batches too.

    table_.rebuild(faultMap_);
    stats_.faults.tableRebuilds += 1;
    if (at_construction)
        return; // nothing in flight, nothing traced; routers pristine
    if (TraceRecorder *tracer = obs_.tracer()) {
        tracer->record(TraceEventKind::TableRebuild, kInvalidNode, -1,
                       table_.rebuilds(),
                       static_cast<std::uint32_t>(due.size()));
    }

    // Mid-run: every router drops wormhole/reservation state that the
    // new topology may have invalidated, and enters degraded mode.
    for (auto &r : routers_)
        r->onTableRebuild();

    // Purge fixpoint: a packet is condemned once any of its flits is
    // lost or its destination became unreachable from wherever the
    // flit currently sits; removing flits can condemn further packets
    // (NoX full-port drops take clean bystanders with them), so sweep
    // until no new casualties appear. Losses are deduplicated by flit
    // uid — the same flit can surface twice (e.g. once inside a
    // downstream decode chain and once in an upstream buffer copy).
    std::unordered_set<std::uint64_t> lostUids;
    std::unordered_map<PacketId, NodeId> lostPackets; // id -> dest
    // The first sweep must run even when the dying components held no
    // flits: live routers elsewhere can still hold traffic for
    // destinations the fault just disconnected.
    std::vector<FlitDesc> pending = std::move(lost);
    do {
        for (const FlitDesc &d : pending) {
            if (lostUids.insert(d.uid).second)
                lostPackets.emplace(d.packet, d.dest);
        }
        pending.clear();

        std::vector<FlitDesc> removed;
        auto condemned = [&](NodeId at, int in_port,
                             const FlitDesc &d) {
            if (lostPackets.count(d.packet) != 0)
                return true;
            const int out = table_.lookup(at, d.dest);
            if (out < 0)
                return true; // destination now unreachable from here
            // Stale-epoch guard: a flit already past this input when
            // the table changed may sit on a channel the new table
            // never routes through. If its next hop would be the
            // down-then-up turn up-down routing forbids, its wait
            // edge is outside the verified CDG and can deadlock the
            // mesh — write it off. Every surviving flit's future
            // waits are table edges, covered by the acyclicity check.
            if (in_port >= kPortNorth && in_port <= kPortWest &&
                out >= kPortNorth && out <= kPortWest) {
                const NodeId from = mesh_.neighbor(at, in_port);
                const NodeId to = mesh_.neighbor(at, out);
                if (from != kInvalidNode && to != kInvalidNode &&
                    table_.forbiddenTurn(from, at, to))
                    return true;
            }
            return false;
        };
        for (NodeId r = 0; r < numRouters(); ++r)
            routers_[r]->purgeFlits(condemned, removed);
        for (NodeId n = 0; n < numNodes(); ++n)
            nics_[n]->purgeCondemned(condemned, removed);
        for (const FlitDesc &d : removed) {
            if (!lostUids.count(d.uid))
                pending.push_back(d);
        }
    } while (!pending.empty());

    stats_.faults.flitsLostHard += lostUids.size();
    if (LatencyProvenance *prov = obs_.provenance()) {
        // Written-off flits will never be delivered: their open spans
        // are abandoned (they were never measured anyway).
        std::vector<std::uint64_t> uids(lostUids.begin(),
                                        lostUids.end());
        prov->forgetFlits(uids);
    }
    if (transport_) {
        // With the E2E transport on, a purged wire packet is a
        // recoverable loss, not a write-off: the source window still
        // holds the logical packet and will retransmit on timeout.
        // Only the destination's partial-arrival record of this
        // attempt is scrubbed (the attempt can never complete).
        for (const auto &[packet, dest] : lostPackets)
            nics_[dest]->forgetArrived(packet);
    } else {
        stats_.faults.packetsLostHard += lostPackets.size();
        for (const auto &[packet, dest] : lostPackets) {
            nics_[dest]->forgetArrived(packet);
            ageInFlight_.erase(packet);
        }
    }
}

void
Network::checkPacketAges()
{
    const Cycle limit = faults_->params().packetAgeLimit;
    while (!ageQueue_.empty()) {
        const auto &[packet, created] = ageQueue_.front();
        if (!ageInFlight_.count(packet)) {
            ageQueue_.pop_front(); // delivered or written off
            continue;
        }
        if (now_ - created <= limit)
            break; // everyone behind is younger still
        stats_.faults.ageAlarms += 1;
        if (obs_.tracer() && !ageDumpLatched_) {
            // Livelock alarm: latch the flight recorder exactly once.
            ageDumpLatched_ = true;
            obs_.tracer()->triggerFlightDump("age-limit", {});
        }
        ageQueue_.pop_front(); // alarm once per packet
    }
}

void
Network::addSource(std::unique_ptr<TrafficSource> source)
{
    NOX_ASSERT(source, "null traffic source");
    sources_.push_back(std::move(source));
}

void
Network::step()
{
    PhaseProfiler *const prof = obs_.profiler();
    TraceRecorder *const tracer = obs_.tracer();
    const int nr = numRouters();
    const int nn = numNodes();
    // One loop for every kernel: always-tick is the active set pinned
    // full (everything ticked, nothing retired, flags stay 1), and
    // equivalence mode ticks everything but retires like the activity
    // kernel, asserting its contract.
    const SchedulingMode mode = params_.schedulingMode;
    const bool tickAll = mode != SchedulingMode::ActivityDriven;
    const bool retire = mode != SchedulingMode::AlwaysTick;

    if (prof)
        prof->beginStep();

    // Equivalence mode: every retired component must still honour the
    // quiescence contract at the start of the cycle. Because a
    // retired component's flag is only re-set by staging, this also
    // proves (inductively) that ticking it last cycle was a no-op.
    if (mode == SchedulingMode::EquivalenceCheck) {
        ProfScope ps(prof, SimPhase::Scheduler);
        for (NodeId r = 0; r < nr; ++r) {
            NOX_ASSERT(routerActive_[r] || routers_[r]->quiescent(),
                       "retired router ", r, " is not quiescent");
        }
        for (NodeId n = 0; n < nn; ++n) {
            NOX_ASSERT(nicActive_[n] || nics_[n]->quiescent(),
                       "retired NIC ", n, " is not quiescent");
        }
    }

    // 0. Fault-injection clock: draws during this cycle key off now_.
    // Hard faults and the age sweep read and mutate committed state
    // only, before any evaluation.
    if (faults_) {
        ProfScope ps(prof, SimPhase::Scheduler);
        faults_->beginCycle(now_);
        if (faults_->hardFaultsPending())
            applyDueHardFaults(/*at_construction=*/false);
        if (faults_->params().packetAgeLimit > 0)
            checkPacketAges();
        if (transport_)
            transport_->sweep(now_, *this);
    }
    if (tracer) {
        ProfScope ps(prof, SimPhase::ObsFlush);
        obs_.beginCycle(*this, retire);
    }

    // 1. Traffic generation always runs: sources draw from their RNG
    // every cycle regardless of kernel, so every kernel sees the same
    // injection sequence. injectPacket() re-arms the target NIC.
    if (sourcesEnabled_) {
        ProfScope ps(prof, SimPhase::TrafficInject);
        for (auto &src : sources_)
            src->tick(now_, *this);
    }

    // 1b. Link-layer maintenance runs before any router reads its
    // committed state, so a retransmitted flit is staged like a first
    // transmission. Retired routers are a no-op here (quiescent()
    // covers retry entries and owed watchdog credits).
    if (faults_) {
        ProfScope ps(prof, SimPhase::LinkRetry);
        for (NodeId r = 0; r < nr; ++r) {
            if (tickAll || routerActive_[r])
                routers_[r]->evaluateLink(now_);
        }
    }

    // 2. NIC injection, staging flits into router local inputs (live
    // flags: a NIC armed by this cycle's traffic injects this cycle).
    {
        ProfScope ps(prof, SimPhase::TrafficInject);
        for (NodeId n = 0; n < nn; ++n) {
            if (tickAll || nicActive_[n])
                nics_[n]->evaluateInject(now_);
        }
    }

    // 3. Router evaluation (order-independent; staged effects only)
    // over a snapshot of the active set: a router woken mid-phase by
    // a staged flit starts evaluating next cycle — its staged arrival
    // is latched by this cycle's commit, and evaluation reads
    // committed state only.
    {
        ProfScope ps(prof, SimPhase::RouterEvaluate);
        scratchRouters_.clear();
        for (NodeId r = 0; r < nr; ++r) {
            if (tickAll || routerActive_[r])
                scratchRouters_.push_back(r);
        }
        for (NodeId r : scratchRouters_)
            routers_[r]->evaluate(now_);
    }
    if (prof) {
        for (NodeId r : scratchRouters_)
            prof->countEval(r);
    }

    // 4. NIC sinks drain their committed FIFOs (live flags; a sink
    // woken this cycle has an empty committed FIFO, so evaluating it
    // would be a no-op).
    {
        ProfScope ps(prof, SimPhase::NicEject);
        for (NodeId n = 0; n < nn; ++n) {
            if (tickAll || nicActive_[n])
                nics_[n]->evaluateSink(now_);
        }
    }

    // 5. Commit staged arrivals and credits on every ticked
    // component, then retire those that report quiescent. Clock
    // energy is only charged to committed routers — retired routers
    // are clock gated under the activity kernel.
    {
        ProfScope ps(prof, SimPhase::Scheduler);
        for (NodeId r = 0; r < nr; ++r) {
            if (!(tickAll || routerActive_[r]))
                continue;
            routers_[r]->energy().cycles += 1;
            routers_[r]->commit();
            if (retire && routerActive_[r] &&
                routers_[r]->quiescent()) {
                routerActive_[r] = 0;
                if (tracer)
                    tracer->record(TraceEventKind::SchedRetire, r, -1, 0);
            }
        }
        for (NodeId n = 0; n < nn; ++n) {
            if (!(tickAll || nicActive_[n]))
                continue;
            nics_[n]->commit();
            sampleSourceQueue(n);
            if (retire && nicActive_[n] && nics_[n]->quiescent()) {
                nicActive_[n] = 0;
                if (tracer) {
                    tracer->record(TraceEventKind::SchedRetire, n, -1,
                                   0, 0, true);
                }
            }
        }
        ++now_;
    }
    // Metrics window, checkpoint, divergence knob, digest stride and
    // heartbeat, each on its due cycle (see ObsHub::endStep).
    if (obs_.endStepArmed())
        obs_.endStep(*this);
    if (prof)
        prof->endStep();
}

TelemetrySample
Network::telemetrySample() const
{
    TelemetrySample s;
    s.cycle = now_;
    s.activeRouters = activeRouters();
    s.activeNics = activeNics();
    s.packetsInFlight = packetsInFlight();
    s.packetsInjected = stats_.packetsInjected;
    s.packetsEjected = stats_.packetsEjected;
    s.faultsInjected = stats_.faults.faultsInjected;
    s.retransmissions = stats_.faults.retransmissions;
    s.e2eRetransmits = stats_.faults.e2eRetransmits;
    s.dupSuppressed = stats_.faults.dupSuppressed;
    s.healsApplied =
        stats_.faults.linkHeals + stats_.faults.routerHeals;
    s.deadEntities = static_cast<std::uint64_t>(
        faultMap_.deadRouterCount() + faultMap_.explicitDeadLinkCount());
    const FlitArenaStats &arena = FlitArena::instance().stats();
    s.arenaLive = arena.live();
    s.arenaGrowths = arena.growths;
    if (const DigestLedger *digest = obs_.digest()) {
        s.digestStrides = static_cast<std::int64_t>(digest->strideCount());
        s.lastDigestCycle = digest->lastDigestCycle();
    }
    return s;
}

int
Network::activeRouters() const
{
    return static_cast<int>(std::count(routerActive_.begin(),
                                       routerActive_.end(), 1));
}

int
Network::activeNics() const
{
    return static_cast<int>(
        std::count(nicActive_.begin(), nicActive_.end(), 1));
}

void
Network::run(Cycle cycles)
{
    for (Cycle i = 0; i < cycles; ++i)
        step();
}

bool
Network::drain(Cycle limit)
{
    // Draining with live sources would keep injecting fresh packets
    // and burn the whole cycle limit; suspend them for the duration
    // and restore the caller's setting on exit.
    const bool sources_were_enabled = sourcesEnabled_;
    sourcesEnabled_ = false;
    const Cycle deadline = now_ + limit;
    while (!drainComplete() && now_ < deadline)
        step();
    sourcesEnabled_ = sources_were_enabled;

    drainReport_ = DrainReport{};
    drainReport_.drained = drainComplete();
    drainReport_.stoppedAt = now_;
    drainReport_.packetsInFlight = packetsInFlight();
    drainReport_.stalledPackets = packetsInFlight();
    drainReport_.undeliverablePackets = transport_
        ? stats_.faults.deliveryFailures
        : stats_.faults.packetsLostHard;
    if (!drainReport_.drained) {
        for (NodeId r = 0; r < numRouters(); ++r) {
            if (!routers_[r]->quiescent())
                drainReport_.busyRouters.push_back(r);
        }
        for (NodeId n = 0; n < numNodes(); ++n) {
            if (!nics_[n]->quiescent())
                drainReport_.busyNics.push_back(n);
            for (const auto &[packet, count] :
                 nics_[n]->partialPackets())
                drainReport_.partialPackets.push_back(
                    {n, packet, count});
        }
        // Flight recorder: a drain timeout is exactly the situation
        // the ring exists for — dump the recent event history around
        // the stuck components before anyone tears the network down.
        if (TraceRecorder *tracer = obs_.tracer()) {
            tracer->triggerFlightDump("drain-timeout",
                                      drainReport_.busyRouters);
        }
    }
    return drainReport_.drained;
}

void
Network::setMeasurementWindow(Cycle start, Cycle end)
{
    NOX_ASSERT(start < end, "empty measurement window");
    stats_.measureStart = start;
    stats_.measureEnd = end;
    if (LatencyProvenance *prov = obs_.provenance())
        prov->setMeasurementWindow(start, end);
}

std::uint64_t
Network::packetsInFlight() const
{
    // Hard-fault casualties are accounted losses, not in-flight
    // packets: conservation is ejected + lost == injected. With the
    // E2E transport on, purge casualties stay logically in flight in
    // the source window; only exhausted-retry abandonments count as
    // losses (ejected + deliveryFailures == injected).
    const std::uint64_t accounted = transport_
        ? stats_.faults.deliveryFailures
        : stats_.faults.packetsLostHard;
    return stats_.packetsInjected - stats_.packetsEjected - accounted;
}

bool
Network::drainComplete() const
{
    if (packetsInFlight() != 0)
        return false;
    if (!transport_)
        return true;
    // Exactly-once requires the stale attempts to finish too: every
    // straggler flit must reach its destination door and be dropped
    // there, and every window entry must be acked or abandoned —
    // otherwise a resumed run could deliver a duplicate later.
    if (transport_->windowSize() != 0)
        return false;
    for (const auto &r : routers_) {
        if (!r->quiescent())
            return false;
    }
    for (const auto &nic : nics_) {
        if (!nic->quiescent())
            return false;
    }
    return true;
}

EnergyEvents
Network::totalEnergyEvents() const
{
    EnergyEvents total;
    for (const auto &r : routers_)
        total.merge(r->energy());
    for (const auto &nic : nics_)
        total.merge(nic->energy());
    return total;
}

PacketId
Network::injectPacket(NodeId src, NodeId dst, int num_flits, Cycle now,
                      TrafficClass cls)
{
    NOX_ASSERT(src >= 0 && src < numNodes(), "bad source node ", src);
    NOX_ASSERT(dst >= 0 && dst < numNodes(), "bad dest node ", dst);
    NOX_ASSERT(src != dst, "self-addressed packet");
    NOX_ASSERT(num_flits >= 1, "packet needs at least one flit");

    // Unreachable-destination detection at the injection boundary:
    // the packet is refused and counted, never silently stranded.
    if (!table_.reachable(src, dst)) {
        stats_.faults.unreachableRejected += 1;
        if (TraceRecorder *tracer = obs_.tracer()) {
            tracer->record(TraceEventKind::UnreachableReject, src, -1,
                           static_cast<std::uint64_t>(dst), 0, true);
        }
        return kInvalidPacket;
    }

    const PacketId id = nextPacket_++;
    std::uint32_t flow_seq = 0;
    if (faults_) {
        const std::uint64_t flow =
            (static_cast<std::uint64_t>(src) << 32) |
            static_cast<std::uint64_t>(static_cast<std::uint32_t>(dst));
        flow_seq = flowNextSeq_[flow]++;
        if (faults_->params().packetAgeLimit > 0) {
            ageQueue_.emplace_back(id, now);
            ageInFlight_.insert(id);
        }
    }
    const std::vector<FlitDesc> &flits =
        buildFlits(id, static_cast<std::uint32_t>(num_flits), src, dst,
                   now, cls, flow_seq);
    if (LatencyProvenance *prov = obs_.provenance())
        prov->onPacketCreate(flits, now);
    if (transport_)
        transport_->onInject(flits.front(), now);
    nics_[src]->enqueuePacket(flits);

    if (TraceRecorder *tracer = obs_.tracer()) {
        tracer->record(TraceEventKind::PacketCreate, src, -1, id,
                       (static_cast<std::uint32_t>(dst) << 16) |
                           static_cast<std::uint32_t>(num_flits),
                       true);
    }
    stats_.packetsInjected += 1;
    stats_.flitsInjected += static_cast<std::uint64_t>(num_flits);
    if (now >= stats_.measureStart && now < stats_.measureEnd) {
        stats_.packetsMeasured += 1;
        stats_.flitsCreatedInWindow +=
            static_cast<std::uint64_t>(num_flits);
    }
    stats_.maxSourceQueueFlits =
        std::max(stats_.maxSourceQueueFlits,
                 nics_[src]->sourceQueueFlits());
    return id;
}

const std::vector<FlitDesc> &
Network::buildFlits(PacketId packet, std::uint32_t num_flits, NodeId src,
                    NodeId dst, Cycle created, TrafficClass cls,
                    std::uint32_t flow_seq)
{
    // Member scratch: one packet's flits are built here every
    // injection, and the NIC copies them into its source queue — no
    // per-packet vector allocation on the steady-state path.
    std::vector<FlitDesc> &flits = scratchInjectFlits_;
    flits.clear();
    flits.reserve(num_flits);
    for (std::uint32_t s = 0; s < num_flits; ++s) {
        FlitDesc d;
        d.uid = flitUid(packet, s);
        d.packet = packet;
        d.seq = s;
        d.packetSize = num_flits;
        d.src = src;
        d.dest = dst;
        d.payload = expectedPayload(packet, s);
        d.createCycle = created;
        d.cls = cls;
        d.flowSeq = flow_seq;
        // Static VC assignment by class (request/reply isolation).
        if (params_.router.vcCount > 1 && cls == TrafficClass::Reply)
            d.vc = 1;
        flits.push_back(d);
    }
    return flits;
}

std::size_t
Network::sourceQueueFlits(NodeId node) const
{
    return nics_[node]->sourceQueueFlits();
}

std::string
Network::fingerprint() const
{
    // Doubles are rendered as exact bit patterns: two fingerprints
    // must compare equal iff the constructions are identical, not
    // merely close.
    const auto bits = [](double v) {
        std::uint64_t b;
        std::memcpy(&b, &v, sizeof b);
        return b;
    };
    std::ostringstream os;
    os << "arch=" << archName(routers_[0]->arch()) << " mesh="
       << params_.width << "x" << params_.height << "x"
       << params_.concentration
       << " buf=" << params_.router.bufferDepth
       << " vcs=" << params_.router.vcCount
       << " sink=" << params_.sinkBufferDepth
       << " arb=" << static_cast<int>(params_.router.arbiterKind)
       << " routing=" << static_cast<int>(params_.routing)
       << " sched=" << schedulingModeName(params_.schedulingMode);
    const FaultParams &f = params_.faults;
    os << " faults=" << (f.enabled ? 1 : 0);
    if (f.enabled) {
        os << std::hex << " rates=" << bits(f.bitflipRate) << ","
           << bits(f.dropRate) << "," << bits(f.creditLossRate)
           << std::dec << " seed=" << f.seed
           << " protect=" << (f.protect ? 1 : 0)
           << " retry=" << f.retryTimeout << "," << f.nackDelay
           << " watchdog=" << f.watchdogPeriod
           << " hard=" << f.hardLinkFaults << ","
           << f.hardRouterFaults << "@" << f.hardFaultCycle
           << " age=" << f.packetAgeLimit;
        os << " e2e=" << (f.e2eTransport ? 1 : 0);
        if (f.e2eTransport) {
            os << "/" << f.e2eTimeout << "," << f.e2eRetryLimit << ","
               << f.e2eAckDelay;
        }
        os << " churn=" << f.churnWaves;
        if (f.churnWaves > 0) {
            os << "@" << f.churnStart << "/" << f.churnPeriod << "/"
               << f.churnHealAfter << ":" << f.churnLinks << ","
               << f.churnRouters;
        }
    }
    obs_.fingerprint(os);
    // The digest ledger is deliberately absent here (per-run output,
    // not construction geometry), but a deliberate perturbation is a
    // real behavioral difference: two networks that perturb
    // differently are *not* snapshot-compatible trajectories.
    if (params_.debugPerturbCycle != 0) {
        os << " perturb=" << params_.debugPerturbCycle << "@"
           << params_.debugPerturbRouter;
    }
    return os.str();
}

DigestStride
Network::computeDigestStride(snap::Writer &scratch) const
{
    const auto hash = [&scratch]() {
        const DigestHash h = digestBytes(scratch.data().data(),
                                         scratch.size());
        scratch.clear();
        return h;
    };

    DigestStride s;
    s.cycle = now_;
    scratch.clear();

    walkDigestGlobals(scratch, *this);
    s.global = hash();

    for (const auto &src : sources_)
        src->serialize(scratch);
    s.sources = hash();

    if (faults_) {
        faults_->serialize(scratch);
        s.faults = hash();
    }
    if (transport_) {
        transport_->serialize(scratch);
        s.transport = hash();
    }

    s.routers.reserve(routers_.size());
    for (const auto &r : routers_) {
        r->serialize(scratch, snap::Scope::Digest);
        s.routers.push_back(hash());
    }
    s.nics.reserve(nics_.size());
    for (const auto &nic : nics_) {
        nic->serialize(scratch, snap::Scope::Digest);
        s.nics.push_back(hash());
    }
    return s;
}

template <class Ar, class Self>
void
Network::walkDigestGlobals(Ar &ar, Self &self)
{
    ar.tag(snap::fourcc("NETW"));
    ar(self.now_, self.nextPacket_, self.sourcesEnabled_, self.stats_);

    // The hard-fault topology, as replayable kill lists: dead
    // routers, then every explicitly-failed link (canonical
    // direction) — including links whose endpoint router is also
    // dead, because a later heal of that router must not resurrect
    // the link's own fault.
    std::vector<NodeId> deadRouters;
    std::vector<std::pair<NodeId, int>> deadLinks;
    if constexpr (!Ar::kReading) {
        deadRouters = self.faultMap_.deadRouters();
        deadLinks = self.faultMap_.explicitDeadLinks();
    }
    const NodeId routers = self.numRouters();
    snap::sequence(ar, deadRouters, [&](auto &r) {
        ar(r);
        ar.check(r >= 0 && r < routers, "dead-router id out of range");
    });
    snap::sequence(ar, deadLinks, [&](auto &link) {
        ar(link);
        ar.check(link.first >= 0 && link.first < routers &&
                     link.second >= kPortNorth &&
                     link.second <= kPortWest,
                 "dead-link endpoint out of range");
    });
    if constexpr (Ar::kReading)
        self.replayFaultTopology(deadRouters, deadLinks);
    std::uint64_t rebuilds = self.table_.rebuilds();
    ar(rebuilds);
    if constexpr (Ar::kReading)
        self.table_.setRebuildCount(rebuilds);

    snap::sortedMap(ar, self.flowNextSeq_);
    snap::sortedMap(ar, self.flowMaxDone_);
    snap::sequence(ar, self.ageQueue_);
    snap::sortedSet(ar, self.ageInFlight_);
}

template <class Ar, class Self>
void
Network::walk(Ar &ar, Self &self)
{
    walkDigestGlobals(ar, self);

    // Snapshot-only globals: the kernel- and observer-owned state the
    // digest walk leaves out.
    ar(self.ageDumpLatched_);
    const auto flags = [&ar](auto &v) {
        for (auto &f : v)
            snap::as<bool>(ar, f);
    };
    flags(self.routerActive_);
    flags(self.nicActive_);
    ObsHub::walkBookkeeping(ar, self.obs_);

    for (auto &r : self.routers_)
        ar(*r);
    for (auto &nic : self.nics_)
        ar(*nic);
    ar.expect(std::uint64_t{self.sources_.size()},
              "traffic source count mismatch (wrong config)");
    for (auto &src : self.sources_)
        ar(*src);
    const auto optional = [&ar](auto &component, const char *why) {
        ar.expect(component != nullptr, why);
        if (component)
            ar(*component);
    };
    optional(self.faults_,
             "fault-injection presence mismatch (wrong config)");
    ObsHub::walkObservers(ar, self.obs_);
    optional(self.transport_,
             "E2E-transport presence mismatch (wrong config)");
}

template void Network::walk(snap::Writer &, const Network &);
template void Network::walk(snap::Reader &, Network &);

void
Network::replayFaultTopology(
    const std::vector<NodeId> &dead_routers,
    const std::vector<std::pair<NodeId, int>> &dead_links)
{
    // Replay the snapshot's hard-fault topology onto this (freshly
    // built) network before touching any component: Router::restore
    // cross-checks output wiring, and the routing table must describe
    // the faulted mesh when traffic resumes. With healing in the mix
    // the snapshot's dead set is no longer a superset of the
    // construction-time one, so replay in two moves that are always
    // legal on an empty network: heal every current fault back to the
    // pristine mesh (uncounted — the restored stats already include
    // any real heals), then re-kill exactly the snapshot's lists.
    // Explicit link kills replay before router kills because killLink
    // requires both endpoints alive.
    bool replayed = false;
    std::vector<FlitDesc> discard; // freshly built: nothing in flight
    for (const auto &[router, port] : faultMap_.explicitDeadLinks()) {
        healLink(router, port, /*record=*/false);
        replayed = true;
    }
    for (NodeId router : faultMap_.deadRouters()) {
        healRouter(router, /*record=*/false);
        replayed = true;
    }
    for (const auto &[router, port] : dead_links) {
        killLink(router, port, discard);
        replayed = true;
    }
    for (NodeId router : dead_routers) {
        killRouter(router, discard);
        replayed = true;
    }
    NOX_ASSERT(discard.empty(),
               "fault replay on a restore target with traffic");
    if (replayed)
        table_.rebuild(faultMap_);
}


void
Network::onFlitDelivered(NodeId, const FlitDesc &, Cycle now)
{
    stats_.flitsEjected += 1;
    const bool measured =
        now >= stats_.measureStart && now < stats_.measureEnd;
    if (measured)
        stats_.flitsEjectedInWindow += 1;
    if (MetricsSampler *metrics = obs_.metrics())
        metrics->onFlitEjected(measured);
}

bool
Network::onE2eResend(PacketId base, const TransportEntry &e)
{
    // An impossible resend leaves the entry armed: the next timeout
    // tries again, so the packet rides out any outage shorter than
    // its remaining retry budget.
    if (nics_[e.src]->dead() || !table_.reachable(e.src, e.dest))
        return false;

    const std::vector<FlitDesc> &flits =
        buildFlits(attemptPacket(base, e.attempt), e.numFlits, e.src,
                   e.dest, e.origCreate, e.cls, e.flowSeq);
    if (LatencyProvenance *prov = obs_.provenance())
        prov->onRetransmit(flits, now_);
    nics_[e.src]->enqueuePacket(flits);
    stats_.faults.e2eRetransmits += 1;
    if (TraceRecorder *tracer = obs_.tracer()) {
        tracer->record(TraceEventKind::E2eRetransmit, e.src, -1, base,
                       e.attempt, true);
    }
    return true;
}

void
Network::onE2eAck(PacketId base, const TransportEntry &e)
{
    if (TraceRecorder *tracer = obs_.tracer())
        tracer->record(TraceEventKind::E2eAck, e.src, -1, base, e.retries,
                       true);
}

void
Network::onE2eFail(PacketId base, const TransportEntry &e)
{
    stats_.faults.deliveryFailures += 1;
    // Every attempt's partial-arrival record at the destination is
    // stale; the flow filter (marked by the transport) suppresses any
    // straggler flits of the abandoned packet at the door.
    for (std::uint32_t a = 0; a <= e.attempt; ++a)
        nics_[e.dest]->forgetArrived(attemptPacket(base, a));
    ageInFlight_.erase(base);
}

void
Network::onPacketCompleted(NodeId node, const FlitDesc &last_flit,
                           Cycle head_inject, Cycle now)
{
    PacketId packet = last_flit.packet;
    if (transport_) {
        std::uint32_t attempts = 0;
        const bool first =
            transport_->onPacketDelivered(packet, now, attempts);
        NOX_ASSERT(first, "duplicate completion of packet ",
                   basePacket(packet), " at node ", node);
        packet = basePacket(last_flit.packet);
        // Any other attempt's flits still in flight are stale now:
        // scrub their partial-arrival records (the door filter drops
        // the flits themselves when they straggle in).
        for (std::uint32_t a = 0; a <= attempts; ++a) {
            const PacketId other = attemptPacket(packet, a);
            if (other != last_flit.packet)
                nics_[node]->forgetArrived(other);
        }
    }
    if (TraceRecorder *tracer = obs_.tracer()) {
        tracer->record(
            TraceEventKind::PacketDone, node, -1, packet,
            static_cast<std::uint32_t>(now - last_flit.createCycle),
            true);
    }
    stats_.packetsEjected += 1;
    if (faults_) {
        // Per-flow sequence check: adaptive rerouting after a mid-run
        // kill can legitimately reorder a flow; make it visible.
        const std::uint64_t flow =
            (static_cast<std::uint64_t>(last_flit.src) << 32) |
            static_cast<std::uint64_t>(
                static_cast<std::uint32_t>(last_flit.dest));
        auto [it, fresh] = flowMaxDone_.emplace(flow,
                                                last_flit.flowSeq);
        if (!fresh) {
            if (last_flit.flowSeq < it->second)
                stats_.faults.flowReorders += 1;
            else
                it->second = last_flit.flowSeq;
        }
        ageInFlight_.erase(packet);
    }
    const Cycle created = last_flit.createCycle;
    if (created >= stats_.measureStart && created < stats_.measureEnd) {
        const double lat = static_cast<double>(now - created) + 1.0;
        stats_.latency.add(lat);
        stats_.latencyHist.add(lat);
        stats_.netLatency.add(
            static_cast<double>(now - head_inject) + 1.0);
        stats_.latencyByClass[static_cast<int>(last_flit.cls)].add(lat);
        stats_.packetsMeasuredDone += 1;
    }
}

} // namespace nox
