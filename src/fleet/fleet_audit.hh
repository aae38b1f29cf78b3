/**
 * @file
 * Fleet extension of the invariant auditor (src/audit).
 *
 * The single-device Auditor closes the gap between a device's layers;
 * a fleet adds one more seam: the boundary between the fleet-level
 * accounting and the N member devices. FleetAuditor audits both sides
 * — it runs every member's full default catalog (audit::Auditor) and
 * then checks the conservation equations that span the members:
 *
 *  - sub-request conservation: every sub-request the fleet fanned
 *    out is either completed or pending in exactly one live
 *    fleet slot (staged == completed + pending);
 *  - device/fleet agreement: the members' summed in-flight request
 *    counts equal the fleet's pending sub-requests;
 *  - request conservation: submitted fleet requests == completed +
 *    open;
 *  - clock alignment: every member queue sits exactly on the fleet's
 *    epoch boundary (a device ahead of or behind it could be handed a
 *    sub-request in its past);
 *  - causality: no member queue ever counted a past-time schedule
 *    (under the default Panic policy the kernel dies before this
 *    check could see one; on a queue switched to Clamp this is where
 *    a clamped one becomes visible).
 *
 * Like the device auditor, this is a debug tool: O(devices * pages)
 * per run, touches nothing, and must only run between epochs.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "audit/auditor.hh"
#include "fleet/fleet.hh"

namespace ida::fleet {

/** Audits a Fleet: member catalogs plus fleet conservation. */
class FleetAuditor
{
  public:
    /** Attach to @p fleet; one audit::Auditor per member is created. */
    explicit FleetAuditor(Fleet &fleet);

    /**
     * Run every member's catalog and the fleet checks; returns
     * the number of new violations (member + fleet-level).
     */
    std::size_t runAll();

    /** Fleet-level violations only. */
    const std::vector<audit::Violation> &violations() const {
        return violations_;
    }

    /** Total violations across members and fleet-level checks. */
    std::uint64_t totalViolations() const;

    /** Completed runAll() passes. */
    std::uint64_t runs() const { return runs_; }

    /** One-line status plus leading violations, for loggers. */
    std::string summary() const;

    audit::Auditor &deviceAuditor(std::uint32_t d) { return *members_[d]; }

  private:
    void fail(const std::string &check, std::string detail);
    void checkConservation();

    Fleet &fleet_;
    std::vector<std::unique_ptr<audit::Auditor>> members_;
    std::vector<audit::Violation> violations_;
    std::uint64_t fleetViolations_ = 0;
    std::uint64_t runs_ = 0;
};

} // namespace ida::fleet
