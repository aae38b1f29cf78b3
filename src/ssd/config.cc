#include "ssd/config.hh"

#include "sim/log.hh"

namespace ida::ssd {

flash::CodingScheme
SsdConfig::makeCoding() const
{
    switch (coding) {
      case CodingChoice::Tlc124:
        return flash::CodingScheme::tlc124();
      case CodingChoice::Tlc232:
        return flash::CodingScheme::tlc232();
      case CodingChoice::Mlc12:
        return flash::CodingScheme::mlc12();
      case CodingChoice::Qlc1248:
        return flash::CodingScheme::qlc1248();
    }
    sim::panic("SsdConfig::makeCoding: bad coding choice");
}

std::string
SsdConfig::systemLabel() const
{
    if (ftl.moveToLsbAlternative)
        return "Move-to-LSB";
    if (!ftl.enableIda)
        return "Baseline";
    const int e = static_cast<int>(adjustErrorRate * 100.0 + 0.5);
    return "IDA-E" + std::to_string(e);
}

void
SsdConfig::validate() const
{
    geometry.validate();
    if (adjustErrorRate < 0.0 || adjustErrorRate > 1.0)
        sim::fatal("SsdConfig: adjustErrorRate must be in [0, 1]");
    if (retrySeverity < 0.0 || retrySeverity > 1.0)
        sim::fatal("SsdConfig: retrySeverity must be in [0, 1]");
    const std::uint32_t bits = [&] {
        switch (coding) {
          case CodingChoice::Tlc124:
          case CodingChoice::Tlc232:
            return 3u;
          case CodingChoice::Mlc12:
            return 2u;
          case CodingChoice::Qlc1248:
            return 4u;
        }
        return 0u;
    }();
    if (bits != geometry.bitsPerCell)
        sim::fatal("SsdConfig: coding scheme bit density (" +
                   std::to_string(bits) + ") != geometry bitsPerCell (" +
                   std::to_string(geometry.bitsPerCell) + ")");
}

SsdConfig
SsdConfig::paperTlc()
{
    SsdConfig cfg;
    cfg.geometry = flash::Geometry{}; // Table II shape, scaled capacity
    cfg.timing = flash::FlashTiming{};
    cfg.coding = CodingChoice::Tlc124;
    cfg.ftl = ftl::FtlConfig{};
    return cfg;
}

SsdConfig
SsdConfig::paperMlc()
{
    SsdConfig cfg = paperTlc();
    cfg.coding = CodingChoice::Mlc12;
    cfg.timing = flash::FlashTiming::mlcDefaults();
    cfg.geometry.bitsPerCell = 2;
    cfg.geometry.pagesPerBlock = 128; // 64 wordlines x 2 bits
    cfg.geometry.blocksPerPlane = 192; // keep capacity comparable
    return cfg;
}

SsdConfig
SsdConfig::qlcDevice()
{
    SsdConfig cfg = paperTlc();
    cfg.coding = CodingChoice::Qlc1248;
    cfg.geometry.bitsPerCell = 4;
    cfg.geometry.pagesPerBlock = 256; // 64 wordlines x 4 bits
    cfg.geometry.blocksPerPlane = 96;
    return cfg;
}

SsdConfig
SsdConfig::tiny()
{
    SsdConfig cfg;
    cfg.geometry.channels = 2;
    cfg.geometry.chipsPerChannel = 1;
    cfg.geometry.diesPerChip = 1;
    cfg.geometry.planesPerDie = 2;
    cfg.geometry.blocksPerPlane = 24;
    cfg.geometry.pagesPerBlock = 24; // 8 wordlines x 3 bits
    cfg.ftl.gcFreeThreshold = 2;
    cfg.ftl.refreshPeriod = 10 * sim::kMin;
    cfg.ftl.refreshCheckInterval = sim::kMin;
    return cfg;
}

} // namespace ida::ssd
