#include "fleet/fleet_audit.hh"

#include <string>

namespace ida::fleet {

FleetAuditor::FleetAuditor(Fleet &fleet) : fleet_(fleet)
{
    members_.reserve(fleet.deviceCount());
    for (std::uint32_t d = 0; d < fleet.deviceCount(); ++d)
        members_.push_back(
            std::make_unique<audit::Auditor>(fleet.device(d)));
}

void
FleetAuditor::fail(const std::string &check, std::string detail)
{
    ++fleetViolations_;
    if (violations_.size() < 100)
        violations_.push_back({check, std::move(detail)});
}

void
FleetAuditor::checkConservation()
{
    const std::uint64_t staged = fleet_.stagedSubRequests();
    const std::uint64_t completed = fleet_.completedSubRequests();
    const std::uint64_t pending = fleet_.pendingSubRequests();
    if (staged != completed + pending) {
        fail("fleet-sub-conservation",
             "staged " + std::to_string(staged) + " != completed " +
                 std::to_string(completed) + " + pending " +
                 std::to_string(pending));
    }

    std::uint64_t deviceInflight = 0;
    for (std::uint32_t d = 0; d < fleet_.deviceCount(); ++d)
        deviceInflight += fleet_.device(d).inflightRequests();
    if (deviceInflight != pending) {
        fail("fleet-device-agreement",
             "members report " + std::to_string(deviceInflight) +
                 " in-flight sub-requests, fleet slots hold " +
                 std::to_string(pending));
    }

    if (fleet_.submittedRequests() !=
        fleet_.completedRequests() + fleet_.openRequests()) {
        fail("fleet-request-conservation",
             "submitted " + std::to_string(fleet_.submittedRequests()) +
                 " != completed " +
                 std::to_string(fleet_.completedRequests()) + " + open " +
                 std::to_string(fleet_.openRequests()));
    }

    for (std::uint32_t d = 0; d < fleet_.deviceCount(); ++d) {
        const sim::Time now = fleet_.device(d).events().now();
        if (now != fleet_.now()) {
            fail("fleet-clock-alignment",
                 "device " + std::to_string(d) + " clock " +
                     std::to_string(now.count()) +
                     " off the epoch boundary " +
                     std::to_string(fleet_.now().count()));
        }
        const std::uint64_t past =
            fleet_.device(d).events().pastSchedules();
        if (past != 0) {
            fail("fleet-causality",
                 "device " + std::to_string(d) + " counted " +
                     std::to_string(past) +
                     " past-time schedules (causality violation)");
        }
    }
}

std::size_t
FleetAuditor::runAll()
{
    std::size_t found = 0;
    for (auto &m : members_)
        found += m->runAll();
    const std::uint64_t before = fleetViolations_;
    checkConservation();
    ++runs_;
    return found + static_cast<std::size_t>(fleetViolations_ - before);
}

std::uint64_t
FleetAuditor::totalViolations() const
{
    std::uint64_t total = fleetViolations_;
    for (const auto &m : members_)
        total += m->totalViolations();
    return total;
}

std::string
FleetAuditor::summary() const
{
    std::string s = "fleet audit: " + std::to_string(runs_) +
                    " runs over " +
                    std::to_string(members_.size()) + " devices, " +
                    std::to_string(totalViolations()) + " violations";
    for (std::size_t i = 0; i < violations_.size() && i < 3; ++i)
        s += "\n  [" + violations_[i].check + "] " +
             violations_[i].detail;
    return s;
}

} // namespace ida::fleet
