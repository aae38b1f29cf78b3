/**
 * @file
 * Plain-text table printer used by the benchmark harnesses to emit the
 * paper's tables and figure series as aligned console output.
 */
#pragma once

#include <ostream>
#include <string>
#include <vector>

namespace ida::stats {

/** A simple column-aligned text table builder. */
class Table
{
  public:
    explicit Table(std::vector<std::string> header);

    /** Append a row; must have as many cells as the header. */
    void addRow(std::vector<std::string> row);

    /** Format a double with @p precision decimals. */
    static std::string num(double v, int precision = 2);

    /** Format a percentage (0.28 -> "28.0%"). */
    static std::string pct(double fraction, int precision = 1);

    /** Render with aligned columns. */
    void print(std::ostream &os) const;

    std::size_t rows() const { return rows_.size(); }

  private:
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

} // namespace ida::stats
