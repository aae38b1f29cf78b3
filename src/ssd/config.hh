/**
 * @file
 * Whole-device configuration: geometry, timing, coding scheme, FTL
 * policy, and the stochastic device models. Factory presets mirror the
 * paper's evaluated systems (Table II baseline, IDA-E{0..80}, dTR
 * sweeps, MLC and QLC devices).
 *
 * Scale note: the paper's 512 GB device has 5472 blocks/plane (67M
 * pages); the default here keeps the full channel/chip/die/plane shape
 * and block geometry but scales blocksPerPlane so footprint *ratios*
 * (occupancy, GC pressure, refresh volume) are preserved on a laptop
 * (see DESIGN.md, substitution notes).
 */
#pragma once

#include <cstdint>
#include <string>

#include "flash/coding.hh"
#include "flash/geometry.hh"
#include "flash/timing.hh"
#include "ftl/ftl.hh"

namespace ida::ssd {

/** Which preset coding scheme the device uses. */
enum class CodingChoice { Tlc124, Tlc232, Mlc12, Qlc1248 };

/** Complete device configuration. */
struct SsdConfig
{
    flash::Geometry geometry;
    flash::FlashTiming timing;
    CodingChoice coding = CodingChoice::Tlc124;
    ftl::FtlConfig ftl;

    /** Voltage-adjust disturbance rate (the paper's E; Fig. 8). */
    double adjustErrorRate = 0.20;

    /**
     * Lifetime phase for the read-retry model: 0 = early life (no
     * retries), 1 = late life (Fig. 11's read-retry regime).
     */
    double retrySeverity = 0.0;

    /**
     * Use the physical RBER retry model instead of the severity ladder:
     * retry rounds then derive from each block's wear + retention age
     * plus this device-wide baseline P/E count (0 keeps the ladder).
     */
    std::uint32_t rberDeviceAgePe = 0;
    bool useRberRetry = false;

    /** Seed for all *device-side* randomness. */
    std::uint64_t seed = 42;

    /** Build the coding scheme selected by `coding`. */
    flash::CodingScheme makeCoding() const;

    /** Human-readable label of the evaluated system (for reports). */
    std::string systemLabel() const;

    /** Sanity-check cross-field consistency (fatal on error). */
    void validate() const;

    /**
     * The paper's baseline TLC SSD (Table II), capacity-scaled.
     * IDA disabled; enable with `cfg.ftl.enableIda = true` plus an
     * `adjustErrorRate` to get IDA-E20 etc.
     */
    static SsdConfig paperTlc();

    /** The paper's MLC device (Sec. V-G; 65/115 us reads). */
    static SsdConfig paperMlc();

    /** A QLC device for the Fig. 6 extension study. */
    static SsdConfig qlcDevice();

    /** A tiny configuration for fast unit tests. */
    static SsdConfig tiny();
};

} // namespace ida::ssd
