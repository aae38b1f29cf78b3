// IDA010 fixture: allocation, std::function and exception machinery
// two calls below the dispatch root each fire. The same three in a
// function no root reaches stay silent without any allow(): "hot"
// means reachable from a root, not a directory. The deleted copy
// constructor is not heap traffic and must not fire either.
#include <cstdlib>
#include <functional>
#include <stdexcept>

namespace fix {

class Pump
{
  public:
    Pump(const Pump &) = delete;
    void submitBatch(int n);
    void rebuild(int n);

  private:
    void stage(int n);
    void grow(int n);
    int *slab_ = nullptr;
    std::function<void()> onDrain_;
};

// ida-lint: hot-path-root
void
Pump::submitBatch(int n)
{
    stage(n);
}

void
Pump::stage(int n)
{
    if (n > 0)
        grow(n);
}

void
Pump::grow(int n)
{
    delete[] slab_;
    slab_ = new int[64];
    void *scratch = std::malloc(64);
    std::free(scratch);
    onDrain_ = std::function<void()>([] {});
    try {
        if (n > 64)
            throw std::length_error("batch too large");
    } catch (const std::length_error &) {
        slab_ = nullptr;
    }
}

// Set-up code: no root calls it.
void
Pump::rebuild(int n)
{
    slab_ = new int[n];
    onDrain_ = std::function<void()>([] {});
    if (n < 0)
        throw std::invalid_argument("negative size");
}

} // namespace fix
