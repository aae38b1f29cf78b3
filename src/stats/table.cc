#include "stats/table.hh"

#include <algorithm>
#include <cstdio>

#include "sim/log.hh"

namespace ida::stats {

Table::Table(std::vector<std::string> header) : header_(std::move(header))
{
    if (header_.empty())
        sim::fatal("Table: header must not be empty");
}

void
Table::addRow(std::vector<std::string> row)
{
    if (row.size() != header_.size())
        sim::fatal("Table: row width does not match header");
    rows_.push_back(std::move(row));
}

std::string
Table::num(double v, int precision)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
    return buf;
}

std::string
Table::pct(double fraction, int precision)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f%%", precision, fraction * 100.0);
    return buf;
}

void
Table::print(std::ostream &os) const
{
    std::vector<std::size_t> width(header_.size());
    for (std::size_t c = 0; c < header_.size(); ++c)
        width[c] = header_[c].size();
    for (const auto &row : rows_) {
        for (std::size_t c = 0; c < row.size(); ++c)
            width[c] = std::max(width[c], row[c].size());
    }

    auto emit = [&](const std::vector<std::string> &row) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            os << row[c];
            if (c + 1 < row.size())
                os << std::string(width[c] - row[c].size() + 2, ' ');
        }
        os << '\n';
    };

    emit(header_);
    std::size_t total = 0;
    for (std::size_t c = 0; c < width.size(); ++c)
        total += width[c] + (c + 1 < width.size() ? 2 : 0);
    os << std::string(total, '-') << '\n';
    for (const auto &row : rows_)
        emit(row);
}

} // namespace ida::stats
