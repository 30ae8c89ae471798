#include "routers/spec_router.hpp"

#include <algorithm>
#include <bit>

#include "common/log.hpp"
#include "snapshot/io.hpp"

namespace nox {

SpecRouter::SpecRouter(NodeId id, const Mesh &mesh,
                       const RoutingTable &table,
                       const RouterParams &params, Variant variant)
    : Router(id, mesh, table, params), variant_(variant)
{
    const auto ports = static_cast<std::size_t>(params.numPorts);
    reserved_.assign(ports, -1);
    prevHeadPacket_.assign(ports, kInvalidPacket);
}

void
SpecRouter::evaluate(Cycle now)
{
    const int ports = numPorts();
    gatherPlainHeads();
    const auto &head = heads_;
    auto &out_of = headOut_;
    for (int p = 0; p < ports; ++p) {
        // Spec-Fast fairness rule (§3.1.2): a packet newly exposed
        // behind a departing packet on the same input may not request
        // arbitration in its first cycle as head — its request wires
        // still carry the predecessor's state, so it neither rides
        // the stale reservation nor reaches the allocator. (A flit
        // arriving into an empty input registers normally.)
        if (variant_ == Variant::Fast && head[p] &&
            prevHeadPacket_[p] != kInvalidPacket &&
            prevHeadPacket_[p] != head[p]->packet) {
            out_of[p] = -1;
            // Fairness-rule blanking costs the new head one
            // arbitration cycle.
            provStall(*head[p], LatencyComponent::ArbLoss, now);
        }
    }

    for (int o = 0; o < ports; ++o) {
        if (!outputConnected(o))
            continue;

        RequestMask requests = 0;
        for (int p = 0; p < ports; ++p) {
            if (out_of[p] == o)
                requests |= maskBit(p);
        }

        if (!haveCredit(o) || linkBusy(o, now)) {
            // Switch requests are gated by credits (and by the link-
            // level retry protocol, which owns the wire until its
            // pending flit is acknowledged): nothing drives the
            // output, Switch-Next sees no requests, and any
            // pending reservation expires (the mask reopens). Letting
            // a reservation survive back-pressure would let one input
            // capture the output indefinitely under stop-and-go
            // credit flow — defeating the fairness the §3.1.2 rules
            // exist to protect.
            provStallRequesters(o,
                                linkBusy(o, now)
                                    ? LatencyComponent::Retransmit
                                    : LatencyComponent::CreditStall,
                                now);
            reserved_[o] = -1;
            continue;
        }

        if (degraded_ && locks_.held(o)) {
            // After a mid-run table rebuild the locked packet may have
            // been purged, rerouted, or interleaved with foreign
            // flits. If the owner cannot supply the locked packet this
            // cycle, abandon the lock and let the remaining flits flow
            // flit-wise (delivery is count-based).
            const int p = locks_.owner(o);
            if (!locks_.supplies(o, head[p] ? &*head[p] : nullptr,
                                 out_of[p]))
                locks_.release(o);
        }

        // Switch-Fast mask for this cycle: a wormhole lock pins the
        // mask to the owner; otherwise last cycle's reservation (if
        // any) selects a single input; otherwise fully open.
        RequestMask fast_mask;
        if (locks_.held(o))
            fast_mask = maskBit(locks_.owner(o));
        else if (reserved_[o] >= 0)
            fast_mask = maskBit(reserved_[o]);
        else
            fast_mask = allPortsMask();

        const RequestMask drivers = requests & fast_mask;
        const int fanin = std::popcount(drivers);

        if (prov_) {
            // Requests outside the Switch-Fast mask lost to the lock
            // or reservation holder; on misspeculation every driver
            // loses the cycle too.
            for (int p = 0; p < ports; ++p) {
                const RequestMask bit = maskBit(p);
                if ((requests & bit) &&
                    (!(fast_mask & bit) ||
                     (fanin > 1 && (drivers & bit))))
                    provStall(*head[p], LatencyComponent::ArbLoss,
                              now);
            }
        }

        int success = -1;
        if (fanin == 1) {
            success = std::countr_zero(drivers);
            if (locks_.held(o)) {
                NOX_ASSERT(head[success]->packet == locks_.packet(o),
                           "foreign flit inside locked wormhole");
            }
            traverse(success, o);
            provSend(*head[success], o, now);
        } else if (fanin > 1) {
            // Misspeculation: the switch drives the XOR^W an
            // indeterminate value; the cycle and link energy are lost.
            driveWasted(o);
            energy_.misspecCycles += 1;
            energy_.xbarInputDrives += static_cast<std::uint64_t>(fanin);
        }

        // Reservation is single-use; recomputed below by Switch Next.
        reserved_[o] = -1;

        if (locks_.held(o)) {
            // Multi-flit transmission in progress (the traverse above
            // may have just set or cleared the lock): all other
            // requests are masked from arbitration.
            continue;
        }

        // Switch Next: choose next cycle's reservation.
        RequestMask next_requests;
        if (variant_ == Variant::Fast) {
            // All requests not masked by Switch-Fast — including one
            // that succeeded this cycle (unnecessary reservations).
            // Newly exposed packets were already excluded above.
            next_requests = requests & fast_mask;
        } else {
            // Accurate: the same (post-mask) requests Switch-Fast saw,
            // minus the one that successfully traversed this cycle —
            // the only functional difference from Spec-Fast (§3.1.2),
            // eliminating its unnecessary reservations.
            next_requests = requests & fast_mask;
            if (success >= 0)
                next_requests &= ~maskBit(success);
        }

        if (next_requests) {
            energy_.allocEvals += 1;
            reserved_[o] = arb_[o]->grant(next_requests);
            energy_.arbDecisions += 1;
            trace(TraceEventKind::Arbitrate, o,
                  static_cast<std::uint64_t>(reserved_[o]),
                  static_cast<std::uint32_t>(next_requests));
        }
    }

    for (int p = 0; p < ports; ++p)
        prevHeadPacket_[p] = head[p] ? head[p]->packet : kInvalidPacket;
}

bool
SpecRouter::quiescent() const
{
    if (!Router::quiescent())
        return false;
    for (int r : reserved_) {
        if (r >= 0)
            return false;
    }
    for (PacketId p : prevHeadPacket_) {
        if (p != kInvalidPacket)
            return false;
    }
    return true;
}

void
SpecRouter::onTableRebuild()
{
    Router::onTableRebuild();
    std::fill(reserved_.begin(), reserved_.end(), -1);
}

template <class Ar, class Self>
void
SpecRouter::walk(Ar &ar, Self &self, snap::Scope scope)
{
    Router::walk(ar, self, scope);
    for (auto &a : self.arb_)
        ar(*a);
    for (auto &v : self.reserved_) {
        ar(v);
        ar.check(v >= -1 && v < self.numPorts(),
                 "switch reservation out of range");
    }
    WormholeLocks::walk(ar, self.locks_);
    for (auto &p : self.prevHeadPacket_)
        ar(p);
}

template void SpecRouter::walk(snap::Writer &,
                               const SpecRouter &, snap::Scope);
template void SpecRouter::walk(snap::Reader &, SpecRouter &, snap::Scope);

} // namespace nox
