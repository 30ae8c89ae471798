#include "routers/nonspec_router.hpp"

#include "common/log.hpp"
#include "snapshot/io.hpp"

namespace nox {

void
NonSpecRouter::evaluate(Cycle now)
{
    // Combinational request gathering: each input's (uncoded) head
    // flit requests exactly one output via lookahead DOR.
    const int ports = numPorts();
    gatherPlainHeads();
    const auto &head = heads_;
    const auto &out_of = headOut_;

    for (int o = 0; o < ports; ++o) {
        if (!outputConnected(o))
            continue;
        if (!haveCredit(o) || linkBusy(o, now)) {
            // Everyone presenting for this output waits on the
            // downstream buffer (or on the link-retry protocol holding
            // the wire).
            provStallRequesters(o,
                                linkBusy(o, now)
                                    ? LatencyComponent::Retransmit
                                    : LatencyComponent::CreditStall,
                                now);
            continue;
        }

        if (locks_.held(o)) {
            // Wormhole: output reserved for an in-flight packet; body
            // flits pass without re-arbitration.
            const int p = locks_.owner(o);
            if (degraded_ &&
                !locks_.supplies(o, head[p] ? &*head[p] : nullptr,
                                 out_of[p])) {
                // After a mid-run table rebuild the locked packet may
                // have been purged, rerouted to a different input, or
                // had foreign flits interleaved into its stream.
                // Whenever the owner cannot supply the locked packet
                // this cycle, abandon the lock: the remaining flits
                // flow flit-wise (delivery is count-based, so intact
                // packets still complete).
                locks_.release(o);
                provStallRequesters(o, LatencyComponent::Reroute, now);
                continue;
            }
            provStallRequesters(o, LatencyComponent::ArbLoss, now, p);
            if (head[p] && out_of[p] == o) {
                NOX_ASSERT(head[p]->packet == locks_.packet(o),
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
        provStallRequesters(o, LatencyComponent::ArbLoss, now, winner);
        traverse(winner, o);
        provSend(*head[winner], o, now);
    }
}

template <class Ar, class Self>
void
NonSpecRouter::walk(Ar &ar, Self &self, snap::Scope scope)
{
    Router::walk(ar, self, scope);
    for (auto &a : self.arb_)
        ar(*a);
    WormholeLocks::walk(ar, self.locks_);
}

template void NonSpecRouter::walk(snap::Writer &,
                                  const NonSpecRouter &, snap::Scope);
template void NonSpecRouter::walk(snap::Reader &,
                                  NonSpecRouter &, snap::Scope);

} // namespace nox
