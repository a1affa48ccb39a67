/**
 * @file
 * Launch benchmark: one process runs one workload for a fixed time and
 * prints its metrics as one JSON line (run.py builds this binary, adds
 * set-up samples from extra processes and prints the final result).
 *
 *   launchbench --workload <cold-severifast|cold-preencrypt|serve-mixed>
 *               --seed N --seconds S --trace 0|1
 *               [--setup-only] [--trace-out FILE]
 *
 * The system is driven only through its public entry points
 * (workload::cachedKernelArtifacts/cachedInitrd, core::makeStrategy(kind)
 * ->launch, service::LaunchService::submit + LaunchTicket::take); every
 * timing is taken here, around those calls. Layer numbers come from the
 * spans and counters the program already records. README.md documents
 * the workloads and every metric.
 */
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_core.h"
#include "cache/template_cache.h"
#include "core/launch.h"
#include "core/platform.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "service/launch_service.h"
#include "service/tenant.h"
#include "sim/trace.h"
#include "vmm/vm_config.h"
#include "workload/kernel_spec.h"
#include "workload/synthetic.h"

#ifndef LAUNCHBENCH_BUILD_TYPE
#define LAUNCHBENCH_BUILD_TYPE "unknown"
#endif

namespace launchbench {
namespace {

using namespace sevf;
using core::StrategyKind;
using workload::KernelConfig;

// ---------------------------------------------------------------------
// Workload constants (README.md explains each choice).

constexpr double kScale = 0.25;
constexpr double kTailQuantile = 0.95;
/** Latency limit of a launch a client waits on, per workload. */
constexpr double kColdSloMs = 150.0;
constexpr double kServeSloMs = 50.0;
/** serve-mixed arrival rate, batch share and function populations. */
constexpr double kServeRate = 15.0;
/** One batch arrival per block of this many (a 10% batch share). */
constexpr unsigned kBatchEvery = 10;
constexpr unsigned kHotFunctions = 8;
constexpr unsigned kBatchFunctions = 24;
/**
 * Template-cache shares: the interactive share is the hot set's bytes
 * times this slack (the cache caps each shard at twice its fair slice,
 * and eight keys spread unevenly over eight shards); the batch share
 * holds this many templates, fewer than the batch population.
 */
constexpr double kHotCacheSlack = 2.0;
constexpr double kBatchCacheSlots = 8.0;
/** Template-cache budget while the hot set is prefilled. */
constexpr u64 kSetupCacheBytes = u64{4} << 30;
constexpr unsigned kServeWorkers = 2;
/** How often the open-loop generator polls outstanding tickets. */
constexpr auto kPollInterval = std::chrono::microseconds(100);
/** A closed loop may overrun --seconds (to this multiple) only to
 *  reach the percentile rule's sample count. */
constexpr double kMaxOverrun = 3.0;

const char *const kTenantInteractive = "interactive";
const char *const kTenantBatch = "batch";

const KernelConfig kKernels[] = {KernelConfig::kLupine, KernelConfig::kAws,
                                 KernelConfig::kUbuntu};
const char *const kSimPhases[] = {
    sim::phase::kVmm,         sim::phase::kPreEncryption,
    sim::phase::kFirmware,    sim::phase::kBootVerification,
    sim::phase::kBootstrapLoader, sim::phase::kLinuxBoot,
    sim::phase::kAttestation};

enum class Workload { kColdSeverifast, kColdPreencrypt, kServeMixed };

std::optional<Workload>
parseWorkload(const std::string &name)
{
    if (name == "cold-severifast") {
        return Workload::kColdSeverifast;
    }
    if (name == "cold-preencrypt") {
        return Workload::kColdPreencrypt;
    }
    if (name == "serve-mixed") {
        return Workload::kServeMixed;
    }
    return std::nullopt;
}

// ---------------------------------------------------------------------
// Clocks.

u64
nowNs()
{
    return obs::wallNowNs();
}

double
secondsSince(u64 start_ns)
{
    return static_cast<double>(nowNs() - start_ns) / 1e9;
}

struct CpuTimes {
    double user_s = 0;
    double sys_s = 0;
};

CpuTimes
cpuNow()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto sec = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) / 1e6;
    };
    return {sec(ru.ru_utime), sec(ru.ru_stime)};
}

double
peakRssMiB()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

// ---------------------------------------------------------------------
// Metric snapshots: the program's counters read before and after a
// timed region, so every layer number is a delta over that region.

struct MetricView {
    std::map<std::string, u64> counters; //!< "name{k=v,...}" -> value
    std::map<std::string, obs::HistogramSnapshot> histograms;
};

std::string
metricKey(const obs::MetricSnapshot &m)
{
    std::string key = m.name + "{";
    for (const auto &[k, v] : m.labels) {
        key += k + "=" + v + ",";
    }
    return key + "}";
}

MetricView
snapshotMetrics()
{
    MetricView view;
    for (const obs::MetricSnapshot &m :
         obs::Registry::instance().snapshot()) {
        if (m.kind == obs::MetricKind::kCounter) {
            view.counters[metricKey(m)] = m.counter_value;
        } else if (m.kind == obs::MetricKind::kHistogram) {
            view.histograms[metricKey(m)] = m.histogram;
        }
    }
    return view;
}

/** Sum over every label set of counter @p name, after minus before. */
double
counterDelta(const MetricView &before, const MetricView &after,
             const std::string &name, const std::string &label = "")
{
    std::string prefix = name + "{" + label;
    u64 total = 0;
    for (const auto &[key, value] : after.counters) {
        if (key.compare(0, prefix.size(), prefix) != 0) {
            continue;
        }
        auto it = before.counters.find(key);
        total += value - (it == before.counters.end() ? 0 : it->second);
    }
    return static_cast<double>(total);
}

/** Bucket-wise after minus before of histogram @p key. */
obs::HistogramSnapshot
histogramDelta(const MetricView &before, const MetricView &after,
               const std::string &key)
{
    obs::HistogramSnapshot out;
    auto a = after.histograms.find(key);
    if (a == after.histograms.end()) {
        return out;
    }
    out = a->second;
    auto b = before.histograms.find(key);
    if (b != before.histograms.end()) {
        for (std::size_t i = 0; i < out.counts.size(); ++i) {
            out.counts[i] -= b->second.counts[i];
        }
        out.count -= b->second.count;
        out.sum -= b->second.sum;
    }
    return out;
}

/** Quantile of a bucketed histogram, linear within the bucket. */
double
histogramQuantile(const obs::HistogramSnapshot &h, double q)
{
    if (h.count == 0) {
        return 0.0;
    }
    double target = q * static_cast<double>(h.count);
    double seen = 0;
    for (std::size_t i = 0; i < h.counts.size(); ++i) {
        double c = static_cast<double>(h.counts[i]);
        double lo = i == 0 ? 0.0 : static_cast<double>(h.bounds[i - 1]);
        if (seen + c >= target && c > 0) {
            if (i >= h.bounds.size()) {
                return lo; // +Inf bucket: its lower edge
            }
            double hi = static_cast<double>(h.bounds[i]);
            return lo + (hi - lo) * (target - seen) / c;
        }
        seen += c;
    }
    return static_cast<double>(h.bounds.back());
}

// ---------------------------------------------------------------------
// Launch configurations and the result check.

struct Config {
    StrategyKind kind = StrategyKind::kSeveriFastBz;
    KernelConfig kernel = KernelConfig::kAws;
    std::string cmdline{vmm::kDefaultCmdline};
    bool batch = false;
};

/** What the set-up cold boot of a configuration produced. */
struct Reference {
    crypto::Sha256Digest measurement{};
    i64 sim_ns = 0;
    bool attested = false;
};

core::LaunchRequest
makeRequest(const Config &config, bool use_cache, u64 seed)
{
    core::LaunchRequest request;
    request.kernel = config.kernel;
    request.scale = kScale;
    request.vm.cmdline = config.cmdline;
    request.attest = true;
    request.host_threads = 1;
    request.use_template_cache = use_cache;
    request.seed = seed;
    return request;
}

/** Everything the timed launches of one region add up to. */
struct Tally {
    std::vector<double> latency_ms; //!< completed launches only
    std::vector<double> sim_ms;
    u64 attempted = 0;
    u64 failed = 0;
    u64 interactive = 0;
    u64 interactive_within = 0;
    u64 attested = 0;
    double verifier_hashed = 0;
    double verifier_copied = 0;
    double verifier_pages = 0;
    std::map<std::string, double> phase_ns;
    double wall_s = 0;
    CpuTimes cpu;
    double gen_lag_ms_max = 0;
    double submit_busy_ns = 0;
    u64 submits = 0;

    u64 completed() const { return latency_ms.size(); }
};

/** Check one launch against its reference and account for it. */
void
record(Tally &tally, const Result<core::LaunchResult> &result,
       const Reference &ref, double latency_ms, bool interactive,
       double slo_ms)
{
    static int reported = 0;
    tally.attempted++;
    if (interactive) {
        tally.interactive++;
    }
    std::string why;
    if (!result.isOk()) {
        why = result.status().toString();
    } else if (result->measurement != ref.measurement) {
        why = "measurement differs from the set-up cold boot";
    } else if (result->totalTime().ns() != ref.sim_ns) {
        why = "simulated boot time differs from the set-up cold boot";
    } else if (result->attested != ref.attested) {
        why = "attestation outcome differs from the set-up cold boot";
    }
    if (!why.empty()) {
        tally.failed++;
        if (reported++ < 5) {
            std::fprintf(stderr, "launchbench: launch failed: %s\n",
                         why.c_str());
        }
        return;
    }
    const core::LaunchResult &r = *result;
    tally.latency_ms.push_back(latency_ms);
    tally.sim_ms.push_back(static_cast<double>(ref.sim_ns) / 1e6);
    if (interactive && latency_ms <= slo_ms) {
        tally.interactive_within++;
    }
    tally.attested += r.attested ? 1 : 0;
    tally.verifier_hashed += static_cast<double>(r.verifier_stats.bytes_hashed);
    tally.verifier_copied += static_cast<double>(r.verifier_stats.bytes_copied);
    tally.verifier_pages +=
        static_cast<double>(r.verifier_stats.pages_validated);
    for (const char *phase : kSimPhases) {
        tally.phase_ns[phase] +=
            static_cast<double>(r.trace.phaseTotal(phase).ns());
    }
}

/** Record a benchmark-side wall span whose interval is already known. */
void
recordSpan(const char *name, u64 start_ns, u64 end_ns, u64 request_id)
{
    if (!obs::tracingEnabled()) {
        return;
    }
    obs::TraceEvent ev;
    ev.kind = obs::TraceEventKind::kWallSpan;
    ev.name = name;
    ev.category = "wall";
    ev.start_ns = start_ns;
    ev.dur_ns = end_ns - start_ns;
    ev.args.emplace_back("req", std::to_string(request_id));
    obs::TraceLog::instance().record(std::move(ev));
}

// ---------------------------------------------------------------------
// The benchmark proper.

class Bench
{
  public:
    Bench(Workload workload, u64 seed)
        : workload_(workload), seed_(seed), order_rng_(seed)
    {
    }

    Bench(const Bench &) = delete;
    Bench &operator=(const Bench &) = delete;

    /** Synthesis, platform/service construction, reference boots and
     *  cache prefill. Returns false if a reference boot failed. */
    bool setup();

    /** One timed region of @p seconds. */
    Tally run(double seconds, bool tail_rule);

    double synthesizeSeconds() const { return synth_s_; }
    Interval synthesizeSpan() const { return synth_ns_; }
    double setupSeconds() const { return setup_s_; }
    core::Platform &platform() { return *platform_; }
    service::LaunchService *service() { return service_.get(); }

  private:
    bool serving() const { return workload_ == Workload::kServeMixed; }
    Tally runClosed(double seconds, bool tail_rule);
    Tally runOpen(double seconds);
    Result<core::LaunchResult> coldBoot(const Config &config);

    Workload workload_;
    u64 seed_;
    Interval synth_ns_;
    double synth_s_ = 0;
    double setup_s_ = 0;
    u64 next_request_ = 1;
    std::vector<Config> configs_;
    std::vector<Reference> refs_;
    /** Closed loops: the configuration order, a fresh seeded
     *  permutation every cycle (so no one order's after-effects, such
     *  as allocator state left by the previous launch, dominate). */
    std::vector<std::size_t> order_;
    SplitMix64 order_rng_;
    // Declared in construction order: the service (and its admission
    // workers) goes first on destruction, the platform last.
    std::unique_ptr<core::Platform> platform_;
    std::unique_ptr<service::TenantRegistry> registry_;
    std::unique_ptr<service::LaunchService> service_;
};

Result<core::LaunchResult>
Bench::coldBoot(const Config &config)
{
    return core::makeStrategy(config.kind)
        ->launch(*platform_, makeRequest(config, false, 1));
}

bool
Bench::setup()
{
    u64 t0 = nowNs();
    for (KernelConfig k : kKernels) {
        (void)workload::cachedKernelArtifacts(k, kScale);
    }
    (void)workload::cachedInitrd(kScale);
    synth_ns_ = {t0, nowNs()};
    synth_s_ = static_cast<double>(synth_ns_.end - synth_ns_.start) / 1e9;

    platform_ = std::make_unique<core::Platform>();
    switch (workload_) {
      case Workload::kColdSeverifast:
      case Workload::kColdPreencrypt: {
        const StrategyKind kinds[2] = {
            workload_ == Workload::kColdSeverifast
                ? StrategyKind::kSeveriFastBz
                : StrategyKind::kQemuOvmfSev,
            workload_ == Workload::kColdSeverifast
                ? StrategyKind::kSeveriFastVmlinux
                : StrategyKind::kSevDirectBoot};
        for (StrategyKind kind : kinds) {
            for (KernelConfig k : kKernels) {
                Config c;
                c.kind = kind;
                c.kernel = k;
                configs_.push_back(c);
            }
        }
        break;
      }
      case Workload::kServeMixed: {
        char buf[64];
        for (unsigned i = 0; i < kHotFunctions + kBatchFunctions; ++i) {
            Config c;
            c.batch = i >= kHotFunctions;
            unsigned fn = c.batch ? i - kHotFunctions : i;
            // The hot set spans the three kernels; the batch tail is one
            // runtime (AWS) running many distinct functions.
            c.kernel = c.batch ? KernelConfig::kAws : kKernels[fn % 3];
            std::snprintf(buf, sizeof(buf), " sevf.fn=%s-%03u",
                          c.batch ? kTenantBatch : kTenantInteractive, fn);
            c.cmdline += buf;
            configs_.push_back(c);
        }
        break;
      }
    }

    if (serving()) {
        registry_ = std::make_unique<service::TenantRegistry>();
        // Set-up budget: room for the whole hot set, so the prefill
        // evicts nothing; the final shares are set once it is sized.
        service::TenantQuota interactive;
        interactive.weight = 4;
        interactive.cache_share_bytes = kSetupCacheBytes;
        service::TenantQuota batch;
        batch.weight = 1;
        if (!registry_->registerTenant(kTenantInteractive, interactive)
                 .isOk() ||
            !registry_->registerTenant(kTenantBatch, batch).isOk()) {
            return false;
        }
        service::ServiceConfig sc;
        sc.workers = kServeWorkers;
        sc.queue_depth = 64;
        service_ = std::make_unique<service::LaunchService>(
            *platform_, *registry_, sc);
    }

    refs_.resize(configs_.size());
    for (std::size_t i = 0; i < configs_.size(); ++i) {
        const Config &c = configs_[i];
        // The hot set's cold boot is also its template-cache prefill: a
        // miss boots cold and publishes the template.
        Result<core::LaunchResult> r =
            serving() && !c.batch
                ? service_->submit(kTenantInteractive, c.kind,
                                   makeRequest(c, true, 1))
                      ->take()
                : coldBoot(c);
        if (!r.isOk()) {
            std::fprintf(stderr, "launchbench: set-up boot failed: %s\n",
                         r.status().toString().c_str());
            return false;
        }
        bool networked = c.kernel != KernelConfig::kLupine;
        if (r->attested != networked) {
            std::fprintf(stderr,
                         "launchbench: set-up boot attested=%d, expected %d\n",
                         r->attested ? 1 : 0, networked ? 1 : 0);
            return false;
        }
        refs_[i] = {r->measurement, r->totalTime().ns(), r->attested};
    }

    if (serving()) {
        // The hot set plus a few batch templates fit the budget; the
        // batch population does not, so batch launches evict.
        cache::TemplateCache &cache = platform_->templateCache();
        cache::TemplateCache::Stats prefilled = cache.stats();
        if (prefilled.entries != kHotFunctions || prefilled.evictions != 0) {
            std::fprintf(stderr, "launchbench: prefill left %llu of %u hot "
                                 "templates cached\n",
                         static_cast<unsigned long long>(prefilled.entries),
                         kHotFunctions);
            return false;
        }
        double hot_bytes = static_cast<double>(prefilled.bytes);
        double per_template = hot_bytes / kHotFunctions;
        service::TenantQuota interactive = *registry_->quota(kTenantInteractive);
        interactive.cache_share_bytes =
            static_cast<u64>(hot_bytes * kHotCacheSlack);
        service::TenantQuota batch = *registry_->quota(kTenantBatch);
        batch.cache_share_bytes =
            static_cast<u64>(per_template * kBatchCacheSlots);
        if (!service_->registerTenant(kTenantInteractive, interactive)
                 .isOk() ||
            !service_->registerTenant(kTenantBatch, batch).isOk()) {
            return false;
        }
    } else {
        order_.resize(configs_.size());
        for (std::size_t i = 0; i < order_.size(); ++i) {
            order_[i] = i;
        }
    }
    setup_s_ = secondsSince(t0);
    return true;
}

Tally
Bench::run(double seconds, bool tail_rule)
{
    return serving() ? runOpen(seconds) : runClosed(seconds, tail_rule);
}

Tally
Bench::runClosed(double seconds, bool tail_rule)
{
    Tally tally;
    std::size_t min_samples = tail_rule ? minSamplesFor(kTailQuantile) : 0;
    CpuTimes cpu0 = cpuNow();
    u64 start = nowNs();
    for (std::size_t i = 0;; ++i) {
        double elapsed = secondsSince(start);
        if ((elapsed >= seconds && tally.completed() >= min_samples) ||
            elapsed >= seconds * kMaxOverrun) {
            break;
        }
        if (i % order_.size() == 0) {
            shuffle(order_, order_rng_);
        }
        std::size_t ci = order_[i % order_.size()];
        u64 id = next_request_++;
        core::LaunchRequest request = makeRequest(configs_[ci], false, id);
        u64 t0 = nowNs();
        Result<core::LaunchResult> result = [&] {
            obs::Span span("bench.launch", "req", id);
            return core::makeStrategy(configs_[ci].kind)
                ->launch(*platform_, request);
        }();
        double ms = static_cast<double>(nowNs() - t0) / 1e6;
        record(tally, result, refs_[ci], ms, true, kColdSloMs);
    }
    tally.wall_s = secondsSince(start);
    CpuTimes cpu1 = cpuNow();
    tally.cpu = {cpu1.user_s - cpu0.user_s, cpu1.sys_s - cpu0.sys_s};
    // The virtual median is taken over whole cycles of the
    // configuration order, so it does not depend on where timing ended.
    std::size_t whole = tally.sim_ms.size() -
                        tally.sim_ms.size() % order_.size();
    if (whole > 0) {
        tally.sim_ms.resize(whole);
    }
    return tally;
}

Tally
Bench::runOpen(double seconds)
{
    struct Pending {
        std::size_t config = 0;
        u64 id = 0;
        u64 due_ns = 0;
        u64 submitted_ns = 0;
        std::shared_ptr<core::LaunchTicket> ticket;
    };
    std::vector<Arrival> schedule = makeSchedule(
        seed_, kServeRate, seconds, kBatchEvery, kHotFunctions,
        kBatchFunctions);
    Tally tally;
    std::vector<Pending> pending;
    u64 last_done = 0;
    auto poll = [&] {
        for (std::size_t i = 0; i < pending.size();) {
            Pending &p = pending[i];
            if (!p.ticket->ready()) {
                ++i;
                continue;
            }
            u64 done = nowNs();
            Result<core::LaunchResult> result = p.ticket->take();
            recordSpan("bench.ticket_wait", p.submitted_ns, done, p.id);
            last_done = std::max(last_done, done);
            const Config &c = configs_[p.config];
            record(tally, result, refs_[p.config],
                   static_cast<double>(done - p.due_ns) / 1e6, !c.batch,
                   kServeSloMs);
            pending[i] = std::move(pending.back());
            pending.pop_back();
        }
    };

    CpuTimes cpu0 = cpuNow();
    u64 start = nowNs();
    for (const Arrival &a : schedule) {
        u64 due = start + a.due_ns;
        for (u64 now = nowNs(); now < due; now = nowNs()) {
            poll();
            std::this_thread::sleep_for(std::min<std::chrono::nanoseconds>(
                kPollInterval, std::chrono::nanoseconds(due - now)));
        }
        std::size_t ci = a.batch ? kHotFunctions + a.function : a.function;
        const Config &c = configs_[ci];
        Pending p;
        p.config = ci;
        p.id = next_request_++;
        p.due_ns = due;
        u64 t0 = nowNs();
        tally.gen_lag_ms_max = std::max(
            tally.gen_lag_ms_max, static_cast<double>(t0 - due) / 1e6);
        {
            obs::Span span("bench.submit", "req", p.id);
            p.ticket = service_->submit(
                c.batch ? kTenantBatch : kTenantInteractive, c.kind,
                makeRequest(c, true, p.id));
        }
        p.submitted_ns = nowNs();
        tally.submit_busy_ns += static_cast<double>(p.submitted_ns - t0);
        tally.submits++;
        pending.push_back(std::move(p));
        poll();
    }
    while (!pending.empty()) {
        poll();
        std::this_thread::sleep_for(kPollInterval);
    }
    tally.wall_s = static_cast<double>(last_done - start) / 1e9;
    CpuTimes cpu1 = cpuNow();
    tally.cpu = {cpu1.user_s - cpu0.user_s, cpu1.sys_s - cpu0.sys_s};
    return tally;
}

// ---------------------------------------------------------------------
// Environment record.

/** Threads this process may run on (the affinity mask). */
unsigned
affinityThreads()
{
    cpu_set_t mask;
    CPU_ZERO(&mask);
    if (sched_getaffinity(0, sizeof(mask), &mask) != 0) {
        return 1;
    }
    return static_cast<unsigned>(CPU_COUNT(&mask));
}

/** Spin a fixed amount of integer work; returns a value to keep. */
u64
spinWork(u64 rounds)
{
    u64 x = 0x12345;
    for (u64 i = 0; i < rounds; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        x ^= x >> 29;
    }
    return x;
}

/**
 * Effective parallelism: how many threads' worth of work the box
 * completes when every allowed thread runs the same fixed work at once
 * (the affinity mask can promise more cores than the box delivers).
 */
double
effectiveParallelism(unsigned threads)
{
    constexpr u64 kRounds = 20'000'000;
    std::vector<u64> results(threads + 1);
    u64 t0 = nowNs();
    results[threads] = spinWork(kRounds);
    double one = static_cast<double>(nowNs() - t0);
    std::vector<std::thread> pool;
    t0 = nowNs();
    for (unsigned i = 0; i < threads; ++i) {
        pool.emplace_back([&results, i] { results[i] = spinWork(kRounds); });
    }
    for (std::thread &t : pool) {
        t.join();
    }
    double all = static_cast<double>(nowNs() - t0);
    // Every thread computed the same value; checking it keeps the work.
    for (u64 r : results) {
        if (r != results[threads]) {
            return 0.0;
        }
    }
    return all > 0 ? threads * one / all : 0.0;
}

unsigned
liveThreads()
{
    std::error_code ec;
    unsigned n = 0;
    for (auto it = std::filesystem::directory_iterator("/proc/self/task", ec);
         !ec && it != std::filesystem::directory_iterator(); it.increment(ec)) {
        ++n;
    }
    return n;
}

// ---------------------------------------------------------------------
// Output.

class MetricLine
{
  public:
    void
    add(const char *name, double value, const char *unit)
    {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g", value);
        body_ += body_.empty() ? "" : ", ";
        body_ += std::string("\"") + name + "\": {\"value\": " + buf +
                 ", \"unit\": \"" + unit + "\"}";
        std::fprintf(stdout, "  %-40s %16.6f %s\n", name, value, unit);
    }

    const std::string &body() const { return body_; }

  private:
    std::string body_;
};

double
perLaunch(double total, u64 launches)
{
    return launches == 0 ? 0.0 : total / static_cast<double>(launches);
}

void
addEndToEnd(MetricLine &out, const Tally &t, double setup_s)
{
    u64 n = t.completed();
    out.add("setup_s", setup_s, "s");
    out.add("launch_p50_ms", percentile(t.latency_ms, 0.5), "ms");
    out.add("launch_p95_ms", percentile(t.latency_ms, kTailQuantile), "ms");
    out.add("launches_per_s", t.wall_s > 0 ? n / t.wall_s : 0.0, "1/s");
    out.add("interactive_slo_frac",
            t.interactive == 0
                ? 0.0
                : static_cast<double>(t.interactive_within) / t.interactive,
            "ratio");
    out.add("cpu_ms_per_launch",
            perLaunch((t.cpu.user_s + t.cpu.sys_s) * 1e3, n), "ms");
    out.add("peak_rss_mb", peakRssMiB(), "MiB");
    out.add("sim_boot_p50_ms", percentile(t.sim_ms, 0.5), "sim_ms");
}

/** Every layer counter a traced region is measured between. */
struct LayerSnapshot {
    MetricView metrics;
    cache::TemplateCache::Stats cache;
    core::AdmissionPipeline::Stats admission;
};

LayerSnapshot
snapshotLayers(Bench &bench)
{
    LayerSnapshot s;
    s.metrics = snapshotMetrics();
    s.cache = bench.platform().templateCache().stats();
    if (bench.service() != nullptr) {
        s.admission = bench.service()->pipeline().stats();
    }
    return s;
}

/** Per-layer numbers of one traced region. */
void
addPerLayer(MetricLine &out, Bench &bench, const Tally &t,
            const LayerSnapshot &before, const LayerSnapshot &after,
            double lz4_compress, double overhead_ratio)
{
    const MetricView &m0 = before.metrics;
    const MetricView &m1 = after.metrics;
    const cache::TemplateCache::Stats &c0 = before.cache;
    const cache::TemplateCache::Stats &c1 = after.cache;
    const core::AdmissionPipeline::Stats &a0 = before.admission;
    const core::AdmissionPipeline::Stats &a1 = after.admission;
    u64 n = t.completed();
    std::vector<obs::TraceEvent> events = obs::TraceLog::instance().snapshot();
    std::map<std::string, double> busy_ns;
    std::map<u64, std::vector<Interval>> children;
    std::vector<std::pair<u64, Interval>> launches;
    double update_data_bytes = 0;
    for (const obs::TraceEvent &ev : events) {
        if (ev.kind != obs::TraceEventKind::kWallSpan) {
            continue;
        }
        busy_ns[ev.name] += static_cast<double>(ev.dur_ns);
        Interval iv{ev.start_ns, ev.start_ns + ev.dur_ns};
        if (ev.parent != 0) {
            children[ev.parent].push_back(iv);
        }
        if (ev.name == "launch") {
            launches.emplace_back(ev.id, iv);
        }
        if (ev.name == "psp.launch_update_data") {
            for (const auto &[k, v] : ev.args) {
                if (k == "bytes") {
                    update_data_bytes += std::strtod(v.c_str(), nullptr);
                }
            }
        }
    }
    double launch_self_ns = 0;
    for (const auto &[id, iv] : launches) {
        launch_self_ns += static_cast<double>(selfTimeNs(iv, children[id]));
    }
    auto busyMs = [&](const char *span) {
        return perLaunch(busy_ns[span] / 1e6, n);
    };
    auto kernel = [&](const char *k, bool ns) {
        return counterDelta(m0, m1,
                            ns ? "sevf_kernel_wall_ns_total"
                               : "sevf_kernel_bytes_total",
                            std::string("kernel=") + k + ",");
    };
    auto kernelPair = [&](const char *bytes_name, const char *ms_name,
                          const char *k) {
        out.add(bytes_name, perLaunch(kernel(k, false), n), "B/launch");
        out.add(ms_name, perLaunch(kernel(k, true) / 1e6, n), "ms/launch");
    };
    obs::HistogramSnapshot wait = histogramDelta(
        m0, m1, "sevf_admission_queue_wait_ns{}");

    out.add("workload.synthesize_s", bench.synthesizeSeconds(), "s");
    out.add("core.launch.count", static_cast<double>(launches.size()),
            "count");
    out.add("core.launch.busy_ms", busyMs("launch"), "ms/launch");
    out.add("core.launch.self_ms", perLaunch(launch_self_ns / 1e6, n),
            "ms/launch");
    out.add("core.admission.queue_wait_p50_ms",
            histogramQuantile(wait, 0.5) / 1e6, "ms");
    out.add("core.admission.queue_wait_p95_ms",
            histogramQuantile(wait, kTailQuantile) / 1e6, "ms");
    out.add("core.admission.queue_depth_peak",
            static_cast<double>(a1.peak_queue_depth), "count");
    out.add("core.admission.shed", static_cast<double>(a1.shed - a0.shed),
            "count");
    out.add("core.admission.rejected_quota",
            static_cast<double>(a1.rejected_quota - a0.rejected_quota),
            "count");
    out.add("service.submit.busy_ms",
            perLaunch(t.submit_busy_ns / 1e6, t.submits), "ms/launch");
    out.add("service.rejected",
            counterDelta(m0, m1, "sevf_service_rejected_total"), "count");
    out.add("service.gen_lag_ms_max", t.gen_lag_ms_max, "ms");
    out.add("psp.commands", counterDelta(m0, m1, "sevf_psp_commands_total"),
            "count");
    out.add("psp.errors",
            counterDelta(m0, m1, "sevf_psp_command_errors_total"), "count");
    out.add("psp.update_data.bytes", perLaunch(update_data_bytes, n),
            "B/launch");
    out.add("psp.update_data.busy_ms", busyMs("psp.launch_update_data"),
            "ms/launch");
    out.add("psp.gate_wait_ms",
            perLaunch(static_cast<double>(
                          histogramDelta(m0, m1, "sevf_psp_gate_wait_ns{}")
                              .sum) /
                          1e6,
                      n),
            "ms/launch");
    kernelPair("crypto.xex_encrypt.bytes", "crypto.xex_encrypt.busy_ms",
               "xex_encrypt");
    kernelPair("crypto.xex_decrypt.bytes", "crypto.xex_decrypt.busy_ms",
               "xex_decrypt");
    kernelPair("crypto.sha256.bytes", "crypto.sha256.busy_ms", "sha256");
    kernelPair("crypto.launch_digest.bytes", "crypto.launch_digest.busy_ms",
               "launch_digest");
    kernelPair("compress.lz4_decompress.bytes",
               "compress.lz4_decompress.busy_ms", "lz4_decompress");
    out.add("compress.lz4_compress.bytes", lz4_compress, "B");
    out.add("memory.host_write.bytes",
            perLaunch(counterDelta(m0, m1,
                                   "sevf_guest_memory_host_write_bytes_total"),
                      n),
            "B/launch");
    out.add("memory.host_write.busy_ms", busyMs("guest_memory.host_write"),
            "ms/launch");
    out.add("memory.psp_encrypt_in_place.busy_ms",
            busyMs("guest_memory.psp_encrypt_in_place"), "ms/launch");
    out.add("memory.capture_snapshot.busy_ms",
            busyMs("guest_memory.capture_snapshot"), "ms/launch");
    out.add("memory.instantiate_snapshot.busy_ms",
            busyMs("guest_memory.instantiate_snapshot"), "ms/launch");
    out.add("memory.cow_pages_materialized",
            counterDelta(m0, m1, "sevf_cow_pages_materialized_total"),
            "count");
    double hits = static_cast<double>(c1.hits - c0.hits);
    double misses = static_cast<double>(c1.misses - c0.misses);
    out.add("cache.hits", hits, "count");
    out.add("cache.misses", misses, "count");
    out.add("cache.hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0.0,
            "ratio");
    out.add("cache.inserts", static_cast<double>(c1.inserts - c0.inserts),
            "count");
    out.add("cache.evictions",
            static_cast<double>(c1.evictions - c0.evictions), "count");
    out.add("cache.single_flight_waits",
            static_cast<double>(c1.single_flight_waits -
                                c0.single_flight_waits),
            "count");
    out.add("cache.lookup.busy_ms", busyMs("cache.lookup"), "ms/launch");
    out.add("cache.replay.busy_ms", busyMs("launch_from_template"),
            "ms/launch");
    out.add("cache.capture.busy_ms", busyMs("cache.capture"), "ms/launch");
    out.add("cache.publish.busy_ms", busyMs("cache.publish"), "ms/launch");
    out.add("verifier.bytes_hashed", perLaunch(t.verifier_hashed, n),
            "B/launch");
    out.add("verifier.bytes_copied", perLaunch(t.verifier_copied, n),
            "B/launch");
    out.add("verifier.pages_validated", perLaunch(t.verifier_pages, n),
            "pages/launch");
    out.add("attest.attested_frac",
            perLaunch(static_cast<double>(t.attested), n), "ratio");
    for (const char *phase : kSimPhases) {
        std::string name = std::string("sim.phase.") + phase + "_ms";
        double ns = t.phase_ns.count(phase) ? t.phase_ns.at(phase) : 0.0;
        out.add(name.c_str(), perLaunch(ns / 1e6, n), "sim_ms");
    }
    out.add("host.cpu_user_s", t.cpu.user_s, "s");
    out.add("host.cpu_sys_s", t.cpu.sys_s, "s");
    out.add("obs.trace_overhead_ratio", overhead_ratio, "ratio");
}

struct Options {
    std::string workload;
    u64 seed = 1;
    double seconds = 10;
    bool trace = false;
    bool setup_only = false;
    std::string trace_out;
};

bool
parseNumber(const char *text, double &out)
{
    char *end = nullptr;
    out = std::strtod(text, &end);
    return end != text && *end == '\0';
}

std::optional<Options>
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (flag == "--setup-only") {
            o.setup_only = true;
            continue;
        }
        if (i + 1 >= argc) {
            return std::nullopt;
        }
        const char *value = argv[++i];
        double num = 0;
        if (flag == "--workload") {
            o.workload = value;
        } else if (flag == "--trace-out") {
            o.trace_out = value;
        } else if (flag == "--seed") {
            char *end = nullptr;
            o.seed = std::strtoull(value, &end, 10);
            if (end == value || *end != '\0' || *value == '-') {
                return std::nullopt;
            }
        } else if (!parseNumber(value, num) || num < 0) {
            return std::nullopt;
        } else if (flag == "--seconds" && num > 0) {
            o.seconds = num;
        } else if (flag == "--trace" && (num == 0 || num == 1)) {
            o.trace = num == 1;
        } else {
            return std::nullopt;
        }
    }
    if (o.workload.empty()) {
        return std::nullopt;
    }
    return o;
}

int
benchMain(int argc, char **argv)
{
    std::optional<Options> opts = parseArgs(argc, argv);
    std::optional<Workload> workload =
        opts ? parseWorkload(opts->workload) : std::nullopt;
    if (!opts || !workload) {
        std::fprintf(stderr,
                     "usage: launchbench --workload "
                     "<cold-severifast|cold-preencrypt|serve-mixed> "
                     "--seed N --seconds S --trace 0|1 [--setup-only] "
                     "[--trace-out FILE]\n");
        return 2;
    }
    // Metrics are on in every run: the lz4_compress byte counter proves
    // no synthesis runs inside a timed region. Spans only when traced.
    obs::setMetricsEnabled(true);
    obs::KernelMetrics &lz4c = obs::kernelMetrics("lz4_compress");

    Bench bench(*workload, opts->seed);
    if (!bench.setup()) {
        return 1;
    }
    if (opts->setup_only) {
        std::printf("{\"setup_s\": %.17g}\n", bench.setupSeconds());
        return 0;
    }

    unsigned affinity = affinityThreads();
    std::printf("{\"env\": {\"workload\": \"%s\", \"seed\": %llu, "
                "\"seconds\": %g, \"trace\": %d, \"affinity_threads\": %u, "
                "\"effective_parallelism\": %.3f, \"sha_ni\": %s, "
                "\"aes_ni\": %s, \"build_type\": \"%s\", "
                "\"compiler\": \"%s\"}}\n",
                opts->workload.c_str(),
                static_cast<unsigned long long>(opts->seed), opts->seconds,
                opts->trace ? 1 : 0, affinity,
                effectiveParallelism(affinity),
                __builtin_cpu_supports("sha") ? "true" : "false",
                __builtin_cpu_supports("aes") ? "true" : "false",
                LAUNCHBENCH_BUILD_TYPE, __VERSION__);

    MetricLine out;
    Tally total;
    double lz4_grew = 0;
    auto timed = [&](double seconds, bool tail_rule) {
        u64 before = lz4c.bytes_total.value();
        Tally t = bench.run(seconds, tail_rule);
        lz4_grew += static_cast<double>(lz4c.bytes_total.value() - before);
        total.attempted += t.attempted;
        total.failed += t.failed;
        return t;
    };

    if (!opts->trace) {
        Tally t = timed(opts->seconds, true);
        std::size_t beyond = samplesBeyond(t.completed(), kTailQuantile);
        std::printf("  samples %llu, beyond p95 %zu, failed_frac %.6f\n",
                    static_cast<unsigned long long>(t.completed()), beyond,
                    perLaunch(static_cast<double>(t.failed), t.attempted));
        if (beyond < 10) {
            std::fprintf(stderr, "launchbench: warning: only %zu samples "
                                 "beyond p95 (want 10)\n", beyond);
        }
        addEndToEnd(out, t, bench.setupSeconds());
    } else {
        // Half the time untraced (the overhead baseline), half traced.
        Tally plain = timed(opts->seconds / 2, false);
        LayerSnapshot before = snapshotLayers(bench);
        obs::TraceLog::instance().clear();
        obs::setTracingEnabled(true);
        Interval synth = bench.synthesizeSpan();
        recordSpan("bench.synthesize", synth.start, synth.end, 0);
        Tally traced = timed(opts->seconds / 2, false);
        obs::setTracingEnabled(false);
        LayerSnapshot after = snapshotLayers(bench);
        double plain_p50 = percentile(plain.latency_ms, 0.5);
        double ratio = plain_p50 > 0
                           ? percentile(traced.latency_ms, 0.5) / plain_p50
                           : 0.0;
        if (counterDelta(before.metrics, after.metrics,
                         "sevf_trace_events_dropped_total") > 0) {
            std::fprintf(stderr, "launchbench: warning: trace log dropped "
                                 "events; span totals are low\n");
        }
        addPerLayer(out, bench, traced, before, after, lz4_grew, ratio);
        if (!opts->trace_out.empty()) {
            std::ofstream f(opts->trace_out);
            f << obs::exportChromeTrace();
        }
    }
    std::printf("  threads alive at end: %u\n", liveThreads());

    bool correct = total.failed == 0 && lz4_grew == 0;
    if (lz4_grew != 0) {
        std::fprintf(stderr, "launchbench: lz4_compress ran inside a timed "
                             "region (%.0f bytes)\n", lz4_grew);
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(total.attempted),
                static_cast<unsigned long long>(total.failed),
                out.body().c_str());
    return correct ? 0 : 1;
}

} // namespace
} // namespace launchbench

int
main(int argc, char **argv)
{
    return launchbench::benchMain(argc, argv);
}
