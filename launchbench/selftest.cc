/**
 * @file
 * Self-tests of the benchmark's own arithmetic (bench_core.h): the
 * percentile rule, span self-time subtraction and the seeded schedule.
 * Exits 0 when every check passes; `python3 launchbench/run.py
 * --selftest` builds and runs it.
 */
#include <cstdio>
#include <vector>

#include "bench_core.h"

namespace launchbench {
namespace {

int failures = 0;

void
check(bool ok, const char *what)
{
    if (!ok) {
        std::fprintf(stderr, "FAIL: %s\n", what);
        ++failures;
    }
}

void
testPercentileRule()
{
    // Nearest rank: p95 of 200 samples is the 190th; 10 lie beyond it.
    check(samplesBeyond(200, 0.95) == 10, "200 samples leave 10 beyond p95");
    check(samplesBeyond(199, 0.95) == 9, "199 samples leave 9 beyond p95");
    check(minSamplesFor(0.95) == 200, "p95 needs 200 samples for 10 beyond");
    check(minSamplesFor(0.5) == 20, "p50 needs 20 samples for 10 beyond");
    check(samplesBeyond(0, 0.95) == 0, "no samples, none beyond");

    std::vector<double> v;
    for (int i = 200; i >= 1; --i) {
        v.push_back(i);
    }
    check(percentile(v, 0.95) == 190.0, "p95 of 1..200 is 190");
    check(percentile(v, 0.5) == 100.0, "p50 of 1..200 is 100");
    check(percentile({7.0}, 0.95) == 7.0, "single sample is every quantile");
    check(percentile({}, 0.5) == 0.0, "empty set reads 0");
}

void
testSelfTime()
{
    Interval parent{100, 200};
    check(selfTimeNs(parent, {}) == 100, "no children: all self");
    check(selfTimeNs(parent, {{110, 120}, {150, 170}}) == 70,
          "disjoint children subtract");
    check(selfTimeNs(parent, {{110, 150}, {140, 160}}) == 50,
          "overlapping children count once");
    check(selfTimeNs(parent, {{120, 130}, {110, 160}}) == 50,
          "nested child inside another counts once");
    check(selfTimeNs(parent, {{50, 120}, {190, 260}}) == 70,
          "children clipped to the parent");
    check(selfTimeNs(parent, {{90, 210}}) == 0, "fully covered parent");
}

void
testSchedule()
{
    auto a = makeSchedule(42, 30.0, 10.0, 10, 8, 20);
    auto b = makeSchedule(42, 30.0, 10.0, 10, 8, 20);
    auto c = makeSchedule(43, 30.0, 10.0, 10, 8, 20);
    check(a.size() == 300, "30/s for 10 s is 300 arrivals");
    bool same = a.size() == b.size();
    bool differs = false;
    unsigned batch = 0;
    std::vector<unsigned> batch_seen;
    for (std::size_t i = 0; i < a.size() && same; ++i) {
        same = a[i].due_ns == b[i].due_ns && a[i].batch == b[i].batch &&
               a[i].function == b[i].function;
        differs = differs || a[i].batch != c[i].batch ||
                  a[i].function != c[i].function;
        batch += a[i].batch ? 1 : 0;
        if (a[i].batch) {
            batch_seen.push_back(a[i].function);
        }
        check(a[i].function < (a[i].batch ? 20u : 8u),
              "function index within its population");
    }
    check(same, "one seed gives one schedule");
    check(differs, "another seed gives another schedule");
    check(batch == 30, "exactly one batch arrival per block of 10");
    bool whole_cycle = batch_seen.size() == 30;
    for (std::size_t i = 0; i < batch_seen.size() && whole_cycle; ++i) {
        for (std::size_t j = i + 1; j < batch_seen.size(); ++j) {
            // A batch function recurs only a full population later.
            if (batch_seen[i] == batch_seen[j] && j - i != 20) {
                whole_cycle = false;
            }
        }
    }
    check(whole_cycle, "batch functions walk a permutation of the pool");
    check(a[1].due_ns - a[0].due_ns == 33333333, "fixed 1/rate spacing");
}

} // namespace
} // namespace launchbench

int
main()
{
    launchbench::testPercentileRule();
    launchbench::testSelfTime();
    launchbench::testSchedule();
    if (launchbench::failures == 0) {
        std::printf("launchbench selftest: all checks passed\n");
    }
    return launchbench::failures == 0 ? 0 : 1;
}
