#include "routers/nonspec_router.hpp"

#include <algorithm>

#include "common/log.hpp"
#include "snapshot/io.hpp"

namespace nox {

NonSpecRouter::NonSpecRouter(NodeId id, const Mesh &mesh,
                             const RoutingTable &table,
                             const RouterParams &params)
    : Router(id, mesh, table, params)
{
    const auto ports = static_cast<std::size_t>(params.numPorts);
    arb_.resize(ports);
    lockOwner_.assign(ports, -1);
    lockPacket_.assign(ports, kInvalidPacket);
    for (auto &a : arb_)
        a = makeArbiter();
}

void
NonSpecRouter::evaluate(Cycle now)
{
    // Combinational request gathering: each input's (uncoded) head
    // flit requests exactly one output via lookahead DOR.
    const int ports = numPorts();
    // Member scratch: evaluate() runs once per active router per
    // cycle, so per-call vector allocation dominates the idle-path
    // cost; reuse the buffers instead.
    auto &head = scratchHead_;
    auto &out_of = scratchOut_;
    head.assign(static_cast<std::size_t>(ports), std::nullopt);
    out_of.assign(static_cast<std::size_t>(ports), -1);
    for (int p = 0; p < ports; ++p) {
        head[p] = plainHead(p);
        out_of[p] = head[p] ? routeOf(*head[p]) : -1;
    }

    for (int o = 0; o < ports; ++o) {
        if (!outputConnected(o))
            continue;
        if (!haveCredit(o) || linkBusy(o, now)) {
            if (prov_) {
                // Everyone presenting for this output waits on the
                // downstream buffer (or on the link-retry protocol
                // holding the wire).
                const LatencyComponent c =
                    linkBusy(o, now) ? LatencyComponent::Retransmit
                                     : LatencyComponent::CreditStall;
                for (int p = 0; p < ports; ++p) {
                    if (out_of[p] == o)
                        provStall(*head[p], c, now);
                }
            }
            continue;
        }

        if (lockOwner_[o] >= 0) {
            // Wormhole: output reserved for an in-flight packet; body
            // flits pass without re-arbitration.
            const int p = lockOwner_[o];
            if (degraded_ &&
                !(head[p] && out_of[p] == o &&
                  head[p]->packet == lockPacket_[o])) {
                // After a mid-run table rebuild the locked packet may
                // have been purged, rerouted to a different input, or
                // had foreign flits interleaved into its stream.
                // Whenever the owner cannot supply the locked packet
                // this cycle, abandon the lock: the remaining flits
                // flow flit-wise (delivery is count-based, so intact
                // packets still complete).
                lockOwner_[o] = -1;
                lockPacket_[o] = kInvalidPacket;
                if (prov_) {
                    for (int q = 0; q < ports; ++q) {
                        if (out_of[q] == o)
                            provStall(*head[q],
                                      LatencyComponent::Reroute, now);
                    }
                }
                continue;
            }
            if (prov_) {
                for (int q = 0; q < ports; ++q) {
                    if (q != p && out_of[q] == o)
                        provStall(*head[q],
                                  LatencyComponent::ArbLoss, now);
                }
            }
            if (head[p] && out_of[p] == o) {
                NOX_ASSERT(head[p]->packet == lockPacket_[o],
                           "foreign flit inside locked wormhole");
                traverse(p, o);
                provSend(*head[p], o, now);
            }
            continue;
        }

        RequestMask requests = 0;
        for (int p = 0; p < ports; ++p) {
            if (out_of[p] == o)
                requests |= maskBit(p);
        }
        if (!requests)
            continue;

        const int winner = arb_[o]->grant(requests);
        energy_.arbDecisions += 1;
        NOX_ASSERT(winner >= 0, "arbiter returned no grant");
        trace(TraceEventKind::Arbitrate, o,
              static_cast<std::uint64_t>(winner),
              static_cast<std::uint32_t>(requests));
        if (prov_) {
            for (int p = 0; p < ports; ++p) {
                if (p != winner && (requests & maskBit(p)))
                    provStall(*head[p], LatencyComponent::ArbLoss,
                              now);
            }
        }
        traverse(winner, o);
        provSend(*head[winner], o, now);
    }
}

bool
NonSpecRouter::quiescent() const
{
    if (!Router::quiescent())
        return false;
    for (int owner : lockOwner_) {
        if (owner >= 0)
            return false; // multi-flit transfer in progress
    }
    return true;
}

void
NonSpecRouter::traverse(int in_port, int out_port)
{
    WireFlit w = in_[in_port].pop();
    const FlitDesc &d = w.parts.front();
    energy_.bufferReads += 1;
    energy_.xbarInputDrives += 1;
    returnCredit(in_port);

    if (d.isHead() && !d.isTail()) {
        lockOwner_[out_port] = in_port;
        lockPacket_[out_port] = d.packet;
    } else if (d.isTail() &&
               (lockOwner_[out_port] < 0 ||
                lockPacket_[out_port] == d.packet)) {
        // The packet-match guard only matters in degraded mode, where
        // a lock-free tail must not clear another packet's lock.
        lockOwner_[out_port] = -1;
        lockPacket_[out_port] = kInvalidPacket;
    }

    sendFlit(out_port, std::move(w));
}

void
NonSpecRouter::onTableRebuild()
{
    Router::onTableRebuild();
    std::fill(lockOwner_.begin(), lockOwner_.end(), -1);
    std::fill(lockPacket_.begin(), lockPacket_.end(), kInvalidPacket);
}

void
NonSpecRouter::debugPerturb()
{
    arb_[0]->perturb();
}

template <class Ar, class Self>
void
NonSpecRouter::walk(Ar &ar, Self &self, snap::Scope scope)
{
    Router::walk(ar, self, scope);
    for (auto &a : self.arb_)
        ar(*a);
    for (auto &o : self.lockOwner_) {
        ar(o);
        ar.check(o >= -1 && o < self.numPorts(),
                 "wormhole lock owner out of range");
    }
    for (auto &p : self.lockPacket_)
        ar(p);
}

template void NonSpecRouter::walk(snap::Writer &,
                                  const NonSpecRouter &, snap::Scope);
template void NonSpecRouter::walk(snap::Reader &,
                                  NonSpecRouter &, snap::Scope);

} // namespace nox
