// Fixture: IDA009 no-transcendental-hot-path. Never compiled; scanned
// by tests/test_lint.cc. std::log and std::pow reached from the root
// fire; the std::log that only the constructor reaches stays silent
// without any allow().
#include <cmath>

namespace ida::ftl {

class Penalty
{
  public:
    explicit Penalty(double gain);
    double onRead(double rber, double pe) const;

  private:
    double wearCurve(double pe) const;
    double logGain_;
};

Penalty::Penalty(double gain) : logGain_(std::log(gain)) {}

// ida-lint: hot-path-root
double
Penalty::onRead(double rber, double pe) const
{
    return std::log(rber) / logGain_ + wearCurve(pe);
}

double
Penalty::wearCurve(double pe) const
{
    return std::pow(pe / 3000.0, 1.5);
}

} // namespace ida::ftl
