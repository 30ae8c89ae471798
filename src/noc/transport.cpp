#include "noc/transport.hpp"

#include <algorithm>
#include <vector>

#include "common/log.hpp"

namespace nox {

E2eTransport::E2eTransport(Cycle timeout, std::uint32_t retry_limit,
                           Cycle ack_delay)
    : timeout_(timeout), retryLimit_(retry_limit), ackDelay_(ack_delay)
{
    NOX_ASSERT(timeout_ > 0, "E2E timeout must be positive");
}

void
E2eTransport::onInject(const FlitDesc &head, Cycle now)
{
    const PacketId base = basePacket(head.packet);
    NOX_ASSERT(packetAttempt(head.packet) == 0,
               "injected packet already carries attempt bits");
    NOX_ASSERT(window_.find(base) == window_.end(),
               "packet ", base, " already in the transport window");
    TransportEntry e;
    e.src = head.src;
    e.dest = head.dest;
    e.numFlits = head.packetSize;
    e.cls = head.cls;
    e.flowSeq = head.flowSeq;
    e.origCreate = head.createCycle;
    window_.emplace(base, e);
    timeouts_.emplace_back(now + timeout_, base);
}

bool
E2eTransport::duplicateFlit(const FlitDesc &d) const
{
    const auto it = flows_.find(flowKey(d.src, d.dest));
    return it != flows_.end() && it->second.contains(d.flowSeq);
}

bool
E2eTransport::onPacketDelivered(PacketId wire_packet, Cycle now,
                                std::uint32_t &attempts_out)
{
    const PacketId base = basePacket(wire_packet);
    const auto it = window_.find(base);
    // The door filter drops every flit of a retired packet before it
    // can reach arrival counting, so a completion always finds its
    // window entry, and finds it at most once.
    NOX_ASSERT(it != window_.end(),
               "completion for packet ", base,
               " without a transport window entry");
    TransportEntry &e = it->second;
    NOX_ASSERT(!e.delivered, "packet ", base, " completed twice");
    e.delivered = true;
    markFlowDone(e);
    acks_.emplace_back(now + ackDelay_, base);
    attempts_out = e.attempt;
    return true;
}

void
E2eTransport::sweep(Cycle now, TransportListener &listener)
{
    // Acks first: an entry whose ack and (stale) timeout are both due
    // retires cleanly instead of burning a retry.
    while (!acks_.empty() && acks_.front().first <= now) {
        const PacketId base = acks_.front().second;
        acks_.pop_front();
        const auto it = window_.find(base);
        NOX_ASSERT(it != window_.end() && it->second.delivered,
                   "ack due for retired packet ", base);
        const TransportEntry e = it->second;
        window_.erase(it);
        listener.onE2eAck(base, e);
    }

    while (!timeouts_.empty() && timeouts_.front().first <= now) {
        const PacketId base = timeouts_.front().second;
        timeouts_.pop_front();
        const auto it = window_.find(base);
        if (it == window_.end() || it->second.delivered)
            continue; // retired or awaiting its ack — stale wakeup
        TransportEntry &e = it->second;
        if (e.retries >= retryLimit_) {
            // Abandon: mark the flow so stragglers of any attempt are
            // dropped at the door, then surface the failure.
            markFlowDone(e);
            const TransportEntry dead = e;
            window_.erase(it);
            listener.onE2eFail(base, dead);
            continue;
        }
        e.retries += 1;
        e.attempt += 1;
        timeouts_.emplace_back(now + timeout_, base);
        // A false return means the resend could not be performed now
        // (dead source NIC, unreachable destination); the re-armed
        // timeout retries after the next heal window.
        (void)listener.onE2eResend(base, e);
    }
}

void
E2eTransport::markFlowDone(const TransportEntry &e)
{
    flows_[flowKey(e.src, e.dest)].insert(e.flowSeq);
}

template <class Ar, class Self>
void
E2eTransport::walk(Ar &ar, Self &self)
{
    ar.tag(snap::fourcc("TRNS"));
    snap::sortedMap(ar, self.window_, [&ar](auto &e) {
        ar(e.src, e.dest, e.numFlits);
        ar.enumeration(e.cls, TrafficClass::Reply);
        ar(e.flowSeq, e.origCreate, e.attempt, e.retries, e.delivered);
    });
    snap::sequence(ar, self.timeouts_);
    snap::sequence(ar, self.acks_);
    if constexpr (Ar::kReading) {
        const auto monotone = [](const auto &q) {
            return std::is_sorted(
                q.begin(), q.end(),
                [](const auto &a, const auto &b) {
                    return a.first < b.first;
                });
        };
        ar.check(monotone(self.timeouts_),
                 "transport timeout deque not monotone");
        ar.check(monotone(self.acks_),
                 "transport ack deque not monotone");
    }
    snap::sortedMap(ar, self.flows_, [&ar](auto &f) {
        ar(f.watermark);
        snap::sortedSet(ar, f.above);
        if constexpr (Ar::kReading) {
            for (const std::uint32_t seq : f.above)
                ar.check(seq >= f.watermark,
                         "flow filter entry below its watermark");
        }
    });
}

template void E2eTransport::walk(snap::Writer &, const E2eTransport &);
template void E2eTransport::walk(snap::Reader &, E2eTransport &);

} // namespace nox
