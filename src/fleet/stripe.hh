/**
 * @file
 * RAID-0-style striping arithmetic for the multi-device fleet layer.
 *
 * The fleet exports one flat host LBA space and scatters it over N
 * independent member SSDs in fixed-size stripes of S pages: fleet pages
 * [k*S, (k+1)*S) form stripe k, stripe k lives on device k % N, and the
 * stripes a device receives pack contiguously into its private LPN
 * space (stripe k occupies device pages [(k/N)*S, (k/N+1)*S)). Pure
 * integer arithmetic, no state beyond the two parameters — the same
 * request always lands on the same device pages, which the fleet
 * determinism contract (docs/FLEET.md) rests on.
 */
#pragma once

#include <cstdint>

#include "flash/geometry.hh"
#include "sim/log.hh"

namespace ida::fleet {

/** One contiguous piece of a fleet request on a single device. */
struct StripeRun
{
    std::uint32_t device = 0;
    flash::Lpn startPage = 0;     ///< device-local LPN
    std::uint32_t pageCount = 0;
};

/** The fleet's stripe geometry: N devices, S pages per stripe. */
class StripeMap
{
  public:
    StripeMap(std::uint32_t devices, std::uint64_t stripe_pages)
        : devices_(devices), stripePages_(stripe_pages)
    {
        if (devices_ == 0 || stripePages_ == 0)
            sim::fatal("StripeMap: devices and stripePages must be >= 1");
    }

    std::uint32_t devices() const { return devices_; }
    std::uint64_t stripePages() const { return stripePages_; }

    /** Member device holding fleet page @p lpn. */
    std::uint32_t
    deviceOf(flash::Lpn lpn) const
    {
        return static_cast<std::uint32_t>((lpn / stripePages_) % devices_);
    }

    /** Device-local page of fleet page @p lpn. */
    flash::Lpn
    deviceLpn(flash::Lpn lpn) const
    {
        const std::uint64_t stripe = lpn / stripePages_;
        return (stripe / devices_) * stripePages_ + lpn % stripePages_;
    }

    /**
     * Device pages device @p dev needs so that fleet pages
     * [0, fleet_pages) are all backed (its slice of a fleet preload).
     */
    std::uint64_t
    devicePages(std::uint64_t fleet_pages, std::uint32_t dev) const
    {
        const std::uint64_t group = stripePages_ * devices_;
        const std::uint64_t full = fleet_pages / group;
        const std::uint64_t rem = fleet_pages % group;
        const std::uint64_t start = std::uint64_t{dev} * stripePages_;
        std::uint64_t tail = 0;
        if (rem > start)
            tail = rem - start < stripePages_ ? rem - start : stripePages_;
        return full * stripePages_ + tail;
    }

    /**
     * Split fleet pages [start, start+count) into per-device contiguous
     * runs, emitted in fleet address order. Adjacent chunks that stay on
     * one device (always, with devices() == 1) are merged. @p emit is
     * called once per run: emit(const StripeRun &).
     */
    template <typename Fn>
    void
    split(flash::Lpn start, std::uint32_t count, Fn &&emit) const
    {
        StripeRun run;
        bool open = false;
        flash::Lpn lpn = start;
        std::uint32_t left = count;
        while (left > 0) {
            const std::uint64_t inStripe = lpn % stripePages_;
            const std::uint64_t room = stripePages_ - inStripe;
            const std::uint32_t take = static_cast<std::uint32_t>(
                room < left ? room : left);
            const std::uint32_t dev = deviceOf(lpn);
            const flash::Lpn dlpn = deviceLpn(lpn);
            if (open && run.device == dev &&
                run.startPage + run.pageCount == dlpn) {
                run.pageCount += take;
            } else {
                if (open)
                    emit(static_cast<const StripeRun &>(run));
                run.device = dev;
                run.startPage = dlpn;
                run.pageCount = take;
                open = true;
            }
            lpn += take;
            left -= take;
        }
        if (open)
            emit(static_cast<const StripeRun &>(run));
    }

  private:
    std::uint32_t devices_;
    std::uint64_t stripePages_;
};

} // namespace ida::fleet
