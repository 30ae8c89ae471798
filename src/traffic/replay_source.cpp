#include "traffic/replay_source.hpp"

#include <cmath>

#include "common/log.hpp"
#include "snapshot/io.hpp"

namespace nox {

ReplaySource::ReplaySource(std::vector<TraceRecord> records,
                           double clock_period_ns,
                           std::uint32_t link_bytes)
    : records_(std::move(records)), periodNs_(clock_period_ns),
      linkBytes_(link_bytes)
{
    NOX_ASSERT(clock_period_ns > 0.0, "invalid clock period");
    for (std::size_t i = 1; i < records_.size(); ++i) {
        NOX_ASSERT(records_[i - 1].timeNs <= records_[i].timeNs,
                   "replay trace must be time-sorted");
    }
}

void
ReplaySource::tick(Cycle now, PacketInjector &inj)
{
    while (next_ < records_.size()) {
        const TraceRecord &r = records_[next_];
        const Cycle due = static_cast<Cycle>(
            std::ceil(r.timeNs / periodNs_));
        if (due > now)
            break;
        if (r.src != r.dst) {
            inj.injectPacket(r.src, r.dst, r.flits(linkBytes_), now,
                             r.cls);
        }
        ++next_;
    }
}


template <class Ar, class Self>
void
ReplaySource::walk(Ar &ar, Self &self)
{
    ar(self.next_);
    ar.check(self.next_ <= self.records_.size(),
             "replay cursor past end of trace");
}

template void ReplaySource::walk(snap::Writer &, const ReplaySource &);
template void ReplaySource::walk(snap::Reader &, ReplaySource &);

} // namespace nox
