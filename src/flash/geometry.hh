/**
 * @file
 * Physical SSD geometry: channel -> chip -> die -> plane -> block -> page,
 * with flat physical-page-number (PPN) encoding helpers.
 *
 * The paper's baseline is a 512 GB SSD: 4 channels x 4 chips, 2 dies/chip,
 * 2 planes/die, 5472 blocks/plane, 192 pages/block, 8 KB pages (Table II).
 * The defaults here keep the full structural shape but scale blocksPerPlane
 * down so per-page metadata fits a laptop-scale simulation; every count is
 * a knob.
 */
#pragma once

#include <cstdint>
#include <string>

#include "sim/log.hh"

namespace ida::flash {

/** Flat physical page number. */
using Ppn = std::uint64_t;
/** Flat logical page number. */
using Lpn = std::uint64_t;
/** Flat block id (global across the device). */
using BlockId = std::uint64_t;
/** Flat die id (global across the device). */
using DieId = std::uint32_t;

inline constexpr Ppn kInvalidPpn = ~Ppn{0};
inline constexpr Lpn kInvalidLpn = ~Lpn{0};

/**
 * Most pages a device may have: the FTL's mapping stores 32-bit entries
 * and reserves ~0u as its unmapped sentinel. That is 64x the paper's
 * full-scale 512 GB device (67M pages).
 */
inline constexpr std::uint64_t kMaxPages = 0xFFFF'FFFEull;

/**
 * Per-page sector validity bitmap (bit i = sector i of the page is
 * valid). 16 bits bound sectorsPerPage, which the default geometry
 * fills (8 KB page / 512 B sectors). With sector granularity disabled
 * the whole page is driven through the full mask, so page-granular and
 * sector-granular code share one representation.
 */
using SectorMask = std::uint16_t;

/** Most sectors a page may hold: the width of SectorMask. */
inline constexpr std::uint32_t kMaxSectorsPerPage = 16;

/** Mask of the low @p n sectors of a page (all of them when n >= 16). */
inline constexpr SectorMask
lowSectorMask(std::uint32_t n)
{
    return static_cast<SectorMask>(n >= kMaxSectorsPerPage ? 0xFFFFu
                                                           : (1u << n) - 1);
}

/** Decomposed physical page address. */
struct PageAddr
{
    std::uint32_t channel = 0;
    std::uint32_t chip = 0;   // within channel
    std::uint32_t die = 0;    // within chip
    std::uint32_t plane = 0;  // within die
    std::uint32_t block = 0;  // within plane
    std::uint32_t page = 0;   // within block

    bool operator==(const PageAddr &) const = default;
};

/** Device geometry and address arithmetic. */
struct Geometry
{
    std::uint32_t channels = 4;
    std::uint32_t chipsPerChannel = 4;
    std::uint32_t diesPerChip = 2;
    std::uint32_t planesPerDie = 2;
    std::uint32_t blocksPerPlane = 128; // paper: 5472 (scaled, see DESIGN.md)
    std::uint32_t pagesPerBlock = 192;
    std::uint32_t pageSizeBytes = 8192;
    std::uint32_t sectorSizeBytes = 512;
    std::uint32_t bitsPerCell = 3;

    std::uint32_t chips() const { return channels * chipsPerChannel; }
    std::uint32_t dies() const { return chips() * diesPerChip; }
    std::uint32_t planes() const { return dies() * planesPerDie; }
    std::uint64_t blocks() const {
        return std::uint64_t{planes()} * blocksPerPlane;
    }
    std::uint64_t pages() const { return blocks() * pagesPerBlock; }
    std::uint64_t capacityBytes() const {
        return pages() * pageSizeBytes;
    }
    std::uint32_t wordlinesPerBlock() const {
        return pagesPerBlock / bitsPerCell;
    }
    std::uint32_t sectorsPerPage() const {
        return pageSizeBytes / sectorSizeBytes;
    }

    /** All-sectors-valid mask for this geometry. */
    SectorMask fullSectorMask() const {
        return lowSectorMask(sectorsPerPage());
    }

    /** Validate internal consistency; fatal() on a bad configuration. */
    void
    validate() const
    {
        if (channels == 0 || chipsPerChannel == 0 || diesPerChip == 0 ||
            planesPerDie == 0 || blocksPerPlane == 0 ||
            pagesPerBlock == 0 || pageSizeBytes == 0) {
            sim::fatal("Geometry: all dimensions must be nonzero");
        }
        if (bitsPerCell < 1 || bitsPerCell > 6)
            sim::fatal("Geometry: bitsPerCell must be in [1, 6]");
        if (pagesPerBlock % bitsPerCell != 0)
            sim::fatal("Geometry: pagesPerBlock must divide by bitsPerCell");
        if (sectorSizeBytes == 0 || pageSizeBytes % sectorSizeBytes != 0)
            sim::fatal("Geometry: sectorSizeBytes must divide pageSizeBytes");
        if (sectorsPerPage() > kMaxSectorsPerPage)
            sim::fatal("Geometry: pageSizeBytes / sectorSizeBytes = " +
                       std::to_string(pageSizeBytes) + " / " +
                       std::to_string(sectorSizeBytes) + " = " +
                       std::to_string(sectorsPerPage()) +
                       " sectors per page exceeds " +
                       std::to_string(kMaxSectorsPerPage) +
                       " (sector masks are 16 bits)");
        // Stop as soon as the product would pass kMaxPages: no overflow.
        std::uint64_t n = 1;
        for (const std::uint32_t d : {channels, chipsPerChannel, diesPerChip,
                                      planesPerDie, blocksPerPlane,
                                      pagesPerBlock}) {
            if (n > kMaxPages / d) {
                sim::fatal(
                    "Geometry: channels x chipsPerChannel x diesPerChip x "
                    "planesPerDie x blocksPerPlane x pagesPerBlock = " +
                    std::to_string(channels) + " x " +
                    std::to_string(chipsPerChannel) + " x " +
                    std::to_string(diesPerChip) + " x " +
                    std::to_string(planesPerDie) + " x " +
                    std::to_string(blocksPerPlane) + " x " +
                    std::to_string(pagesPerBlock) + " exceeds " +
                    std::to_string(kMaxPages) +
                    " pages (mapping entries are 32 bits)");
            }
            n *= d;
        }
    }

    /** Page level (0 = LSB) of in-block page index @p page. */
    std::uint32_t levelOfPage(std::uint32_t page) const {
        return page % bitsPerCell;
    }

    /** Wordline of in-block page index @p page. */
    std::uint32_t wordlineOfPage(std::uint32_t page) const {
        return page / bitsPerCell;
    }

    /** In-block page index of (@p wordline, @p level). */
    std::uint32_t pageOfWordline(std::uint32_t wordline,
                                 std::uint32_t level) const {
        return wordline * bitsPerCell + level;
    }

    // Flat encodings. PPN layout (most to least significant):
    // channel, chip, die, plane, block, page.

    Ppn
    encode(const PageAddr &a) const
    {
        Ppn p = a.channel;
        p = p * chipsPerChannel + a.chip;
        p = p * diesPerChip + a.die;
        p = p * planesPerDie + a.plane;
        p = p * blocksPerPlane + a.block;
        p = p * pagesPerBlock + a.page;
        return p;
    }

    PageAddr
    decode(Ppn p) const
    {
        PageAddr a;
        a.page = static_cast<std::uint32_t>(p % pagesPerBlock);
        p /= pagesPerBlock;
        a.block = static_cast<std::uint32_t>(p % blocksPerPlane);
        p /= blocksPerPlane;
        a.plane = static_cast<std::uint32_t>(p % planesPerDie);
        p /= planesPerDie;
        a.die = static_cast<std::uint32_t>(p % diesPerChip);
        p /= diesPerChip;
        a.chip = static_cast<std::uint32_t>(p % chipsPerChannel);
        p /= chipsPerChannel;
        a.channel = static_cast<std::uint32_t>(p);
        return a;
    }

    /** Global block id of the block containing @p p. */
    BlockId blockOf(Ppn p) const { return p / pagesPerBlock; }

    /** First PPN of global block @p b. */
    Ppn firstPpnOf(BlockId b) const { return b * pagesPerBlock; }

    /** Global die id of @p addr (channel-major). */
    DieId
    dieOf(const PageAddr &a) const
    {
        return (a.channel * chipsPerChannel + a.chip) * diesPerChip + a.die;
    }

    /** Global die id of the die containing global block @p b. */
    DieId
    dieOfBlock(BlockId b) const
    {
        return static_cast<DieId>(b / (std::uint64_t{planesPerDie} *
                                       blocksPerPlane));
    }

    /** Channel id of global die @p d. */
    std::uint32_t
    channelOfDie(DieId d) const
    {
        return d / (diesPerChip * chipsPerChannel);
    }

    /** Plane id (global) of global block @p b. */
    std::uint64_t planeOfBlock(BlockId b) const { return b / blocksPerPlane; }
};

/**
 * Division of a 32-bit value by a divisor fixed at construction, as one
 * multiply (Lemire, Kaser and Kurz, "Faster Remainder by Direct
 * Computation", 2019): with M = ceil(2^64 / d), n / d is the high word
 * of M * n for every n < 2^32. M does not fit 64 bits for d = 1, which
 * divides by passing n through.
 */
class Divider32
{
  public:
    explicit Divider32(std::uint32_t d)
        : m_(d == 1 ? 0 : ~std::uint64_t{0} / d + 1)
    {
    }

    std::uint32_t
    operator()(std::uint32_t n) const
    {
        __extension__ typedef unsigned __int128 U128;
        if (m_ == 0)
            return n;
        return static_cast<std::uint32_t>((U128{m_} * n) >> 64);
    }

  private:
    std::uint64_t m_;
};

/** Where one PPN sits, as PpnDecoder finds it. */
struct PageLocation
{
    Ppn ppn = 0;
    BlockId block = 0;
    DieId die = 0;
    std::uint32_t page = 0;     // within block
    std::uint32_t wordline = 0; // within block
    std::uint32_t level = 0;    // 0 = LSB
};

/**
 * Geometry::blockOf, dieOfBlock, wordlineOfPage and levelOfPage of one
 * PPN in a single pass of three reciprocal multiplies, with no 64-bit
 * division: PPNs are below kMaxPages < 2^32, so Divider32 applies.
 * Divides by bitsPerCell first, so the global wordline (PPN /
 * bitsPerCell) yields the block and the block the die.
 */
class PpnDecoder
{
  public:
    explicit PpnDecoder(const Geometry &g)
        : bits_(g.bitsPerCell), wordlinesPerBlock_(g.wordlinesPerBlock()),
          pagesPerBlock_(g.pagesPerBlock), byBits_(g.bitsPerCell),
          byWordlines_(g.wordlinesPerBlock()),
          byBlocksPerDie_(g.planesPerDie * g.blocksPerPlane)
    {
    }

    PageLocation
    operator()(Ppn ppn) const
    {
        const auto p = static_cast<std::uint32_t>(ppn);
        const std::uint32_t gwl = byBits_(p);
        const std::uint32_t block = byWordlines_(gwl);
        PageLocation at;
        at.ppn = ppn;
        at.block = block;
        at.die = byBlocksPerDie_(block);
        at.page = p - block * pagesPerBlock_;
        at.wordline = gwl - block * wordlinesPerBlock_;
        at.level = p - gwl * bits_;
        return at;
    }

  private:
    std::uint32_t bits_;
    std::uint32_t wordlinesPerBlock_;
    std::uint32_t pagesPerBlock_;
    Divider32 byBits_;
    Divider32 byWordlines_;
    Divider32 byBlocksPerDie_;
};

} // namespace ida::flash
