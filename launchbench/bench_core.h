/**
 * @file
 * Pure helpers of the launch benchmark: the seeded RNG and open-loop
 * schedule, the percentile rule, and span self-time. They touch no
 * launch state, so selftest.cc checks them directly.
 */
#ifndef LAUNCHBENCH_BENCH_CORE_H_
#define LAUNCHBENCH_BENCH_CORE_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace launchbench {

using u64 = std::uint64_t;

/** splitmix64: a fixed, portable sequence for every seed. */
class SplitMix64
{
  public:
    explicit SplitMix64(u64 seed) : state_(seed) {}

    u64
    next()
    {
        u64 z = (state_ += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    /** Uniform in [0, n); n > 0. */
    u64 below(u64 n) { return next() % n; }

  private:
    u64 state_;
};

/** Fisher-Yates shuffle of @p items driven by @p rng. */
template <typename T>
void
shuffle(std::vector<T> &items, SplitMix64 &rng)
{
    for (std::size_t i = items.size(); i > 1; --i) {
        std::swap(items[i - 1], items[rng.below(i)]);
    }
}

/** Samples beyond the nearest-rank @p q quantile of @p n samples. */
inline std::size_t
samplesBeyond(std::size_t n, double q)
{
    auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
    return n - std::min(rank, n);
}

/** Fewest samples that leave @p min_beyond samples beyond quantile @p q. */
inline std::size_t
minSamplesFor(double q, std::size_t min_beyond = 10)
{
    std::size_t n = min_beyond;
    while (samplesBeyond(n, q) < min_beyond) {
        ++n;
    }
    return n;
}

/**
 * Nearest-rank quantile: the smallest sample with at least q*n samples
 * at or below it. 0 for an empty set.
 */
inline double
percentile(std::vector<double> samples, double q)
{
    if (samples.empty()) {
        return 0.0;
    }
    std::size_t rank = samples.size() - samplesBeyond(samples.size(), q);
    std::size_t index = rank == 0 ? 0 : rank - 1;
    std::nth_element(samples.begin(), samples.begin() + index, samples.end());
    return samples[index];
}

/** Half-open wall interval [start, end) in nanoseconds. */
struct Interval {
    u64 start = 0;
    u64 end = 0;
};

/**
 * Nanoseconds of @p parent covered by the union of @p children (each
 * clipped to the parent; overlapping children count once).
 */
inline u64
coveredNs(Interval parent, std::vector<Interval> children)
{
    std::sort(children.begin(), children.end(),
              [](const Interval &a, const Interval &b) {
                  return a.start < b.start;
              });
    u64 covered = 0;
    u64 cursor = parent.start;
    for (const Interval &c : children) {
        u64 s = std::max({c.start, cursor, parent.start});
        u64 e = std::min(c.end, parent.end);
        if (e > s) {
            covered += e - s;
            cursor = e;
        }
    }
    return covered;
}

/** A span's self time: its duration minus what its children cover. */
inline u64
selfTimeNs(Interval parent, std::vector<Interval> children)
{
    u64 dur = parent.end > parent.start ? parent.end - parent.start : 0;
    return dur - coveredNs(parent, std::move(children));
}

/** One open-loop arrival. */
struct Arrival {
    u64 due_ns = 0;     //!< offset from the schedule's start
    bool batch = false; //!< batch tenant (else interactive)
    unsigned function = 0;
};

/**
 * Open-loop schedule: one arrival every 1/@p rate seconds for
 * @p seconds, in blocks of @p batch_every arrivals. One arrival per
 * block, at the same seeded position in every block, is a batch launch
 * (so cold batch launches never bunch up); batch launches walk a
 * seeded permutation of the @p batch_functions population, so a batch
 * function recurs only after the whole population has gone by. Every
 * other arrival is an interactive launch of a uniformly drawn one of
 * @p hot_functions. Depends on nothing but its arguments.
 */
inline std::vector<Arrival>
makeSchedule(u64 seed, double rate, double seconds, unsigned batch_every,
             unsigned hot_functions, unsigned batch_functions)
{
    SplitMix64 rng(seed);
    std::vector<unsigned> batch_order(batch_functions);
    for (unsigned i = 0; i < batch_functions; ++i) {
        batch_order[i] = i;
    }
    shuffle(batch_order, rng);
    auto count = static_cast<std::size_t>(rate * seconds);
    std::vector<Arrival> out;
    out.reserve(count);
    u64 batch_phase = rng.below(batch_every);
    std::size_t batches = 0;
    for (std::size_t i = 0; i < count; ++i) {
        Arrival a;
        a.due_ns = static_cast<u64>(static_cast<double>(i) * 1e9 / rate);
        a.batch = i % batch_every == batch_phase;
        a.function = a.batch ? batch_order[batches++ % batch_functions]
                             : static_cast<unsigned>(rng.below(hot_functions));
        out.push_back(a);
    }
    return out;
}

} // namespace launchbench

#endif // LAUNCHBENCH_BENCH_CORE_H_
