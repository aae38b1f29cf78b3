/**
 * @file
 * The host's speed, measured with fixed code that is not the simulator's.
 *
 * On a shared host the CPU time a fixed piece of work takes drifts by
 * tens of percent within a minute, with other tenants' load. The
 * benchmark runs this reference between its trials and expresses host
 * times in CPU-seconds of a host running the reference at its nominal
 * rate, so the drift largely cancels while a change to the simulator
 * still shows in full. The reference is built
 * as its own target without the simulator's headers or compile
 * options, so no change under src/ can move it.
 */
#pragma once

namespace perfbench {

/**
 * Run the reference once (about 0.2 CPU-s) and return the host's speed
 * relative to nominal: 1 at nominal, above 1 when the host is faster.
 */
double hostSpeed();

} // namespace perfbench
