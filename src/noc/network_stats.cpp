#include "noc/network_stats.hpp"

#include "noc/snapshot_codec.hpp"

namespace nox {

namespace {

/** Equal snapshot-walk bytes (doubles compared bit for bit). */
template <class T>
bool
sameWalkBytes(const T &a, const T &b)
{
    snap::Writer wa;
    snap::Writer wb;
    wa(a);
    wb(b);
    return wa.data() == wb.data();
}

} // namespace

bool
FaultStats::identicalTo(const FaultStats &o) const
{
    return sameWalkBytes(*this, o);
}

bool
identicalStats(const NetworkStats &a, const NetworkStats &b)
{
    return sameWalkBytes(a, b);
}

} // namespace nox
