/**
 * @file
 * Fixed-input legs for the layers a span around a public call cannot
 * isolate: the event kernel, the ECC model's draws and the read cache
 * all run inside EventQueue::runUntil. Each leg replays inputs taken
 * from the workload's own traced trial, so its cost is an estimate of
 * that layer's share until spans inside the program exist.
 */
#pragma once

#include <cstdint>

#include "drivers.hh"

namespace perfbench {

/**
 * CPU ns per event of an EventQueue held at the workload's mean pending
 * depth, with delays that advance simulated time at the workload's rate.
 */
double kernelNsPerEvent(const LegInputs &in, std::uint64_t seed);

/** CPU ns per page op replaying the workload's pages through ReadCache. */
double cacheLookupNs(const LegInputs &in);

/** CPU ns per ECC retry draw over the device's wear and retention mix. */
double eccDrawNs(const LegInputs &in, std::uint64_t seed);

} // namespace perfbench
