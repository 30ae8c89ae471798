/**
 * @file
 * The non-speculative baseline router (§3.1.1, Figure 5).
 *
 * A canonical wormhole router with lookahead route computation: switch
 * arbitration and switch traversal happen sequentially *within one
 * long clock cycle* (0.92 ns in Table 2), so every output can move a
 * flit every cycle regardless of contention — maximum efficiency, at
 * the price of the slowest clock of the four designs.
 */

#ifndef NOX_ROUTERS_NONSPEC_ROUTER_HPP
#define NOX_ROUTERS_NONSPEC_ROUTER_HPP

#include "noc/router.hpp"

namespace nox {

/** Non-speculative single-cycle wormhole router. */
class NonSpecRouter : public Router
{
  public:
    using Router::Router;

    RouterArch arch() const override
    {
        return RouterArch::NonSpeculative;
    }

    void evaluate(Cycle now) override;

    void
    serialize(snap::Writer &w, snap::Scope scope) const override
    {
        walk(w, *this, scope);
    }
    void restore(snap::Reader &r) override { walk(r, *this); }

  private:
    template <class Ar, class Self>
    static void walk(Ar &ar, Self &self,
                     snap::Scope scope = snap::Scope::Snapshot);
};

} // namespace nox

#endif // NOX_ROUTERS_NONSPEC_ROUTER_HPP
