// Suppression fixture for the graph rules: every IDA009/IDA010/IDA011/
// IDA012 site below carries its sanctioned escape hatch, so this file
// must scan completely clean. Exercises the same-line allow, the
// previous-comment-line allow, and the shared(<kind>) annotation.
#include <cmath>
#include <cstdint>

namespace fix {

// ida-lint: shared(mutex)
std::uint64_t gGuarded = 0;

class Pipe
{
  public:
    void submitBatch(int n);

  private:
    void refill();
    int *slab_ = nullptr;
    double scale_ = 0.0;
};

// ida-lint: hot-path-root
void
Pipe::submitBatch(int n)
{
    if (n > 0)
        refill();
}

void
Pipe::refill()
{
    slab_ = new int[8]; // ida-lint: allow(IDA010) one-time refill
    // ida-lint: allow(IDA010) paired teardown
    delete[] slab_;
    slab_ = nullptr;
    scale_ = std::log(8.0); // ida-lint: allow(IDA009) once per refill
}

// ida-lint: shard-root
void
shardMain(int shard)
{
    (void)shard;
    ++gGuarded;
    // ida-lint: allow(IDA011) scratch only; reset every epoch
    static std::uint64_t scratch = 0;
    ++scratch;
}

struct Rng
{
    explicit Rng(std::uint64_t seed);
};

std::uint64_t
seededProbe()
{
    Rng rng(7); // ida-lint: allow(IDA012) fixture-local probe stream
    (void)rng;
    return 0;
}

} // namespace fix
