// Shared machinery for the repo benchmark (see perfbench/README.md):
// wall-clock timing, spans recorded around calls into the simulator's
// public API, counter snapshots read from the platform's metric registry,
// output digests and the per-episode result every workload returns.
//
// Wall-clock reads live only here and in the workload files; nothing
// measured from the host ever feeds back into the simulation, so every
// `sim`-clock output is a pure function of the workload seed.
#ifndef XOAR_PERFBENCH_HARNESS_H_
#define XOAR_PERFBENCH_HARNESS_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/core/xoar_platform.h"

namespace xoar::perfbench {

using Clock = std::chrono::steady_clock;

inline double MicrosBetween(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double, std::micro>(end - start).count();
}

// Nearest-rank quantile (q in [0, 1]) of an unsorted sample; 0 if empty.
double Quantile(std::vector<double> values, double q);
double Median(const std::vector<double>& values);

// FNV-1a fold over the simulated outputs of one episode. Two episodes of
// the same seed must end with the same value.
class Digest {
 public:
  void Add(std::uint64_t value);
  void AddDouble(double value);
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 14695981039346656037ULL;
};

// Layer counters, read from the platform at span boundaries. Every entry
// is a monotone count, so the difference of two reads is the work done in
// between.
enum CounterId : std::size_t {
  kSimEvents,
  kHypercalls,
  kHypercallsDenied,
  kGrantMaps,
  kEvtchnSends,
  kDomainTableScans,
  kXsRequests,
  kXsLogicRestarts,
  kXsReads,
  kXsWrites,
  kXsWatchFires,
  kXsFanoutOps,
  kXsUnavailableRejects,
  kFrontRetries,
  kBackendConnects,
  kNetDropped,
  kNicTxBytes,
  kDiskBytes,
  kAuditRecords,
  kCounterCount,
};

struct Counters {
  std::array<std::uint64_t, kCounterCount> v{};

  std::uint64_t operator[](CounterId id) const { return v[id]; }
  Counters operator-(const Counters& other) const;
  Counters operator+(const Counters& other) const;
};

// Resolves the registry counters once per platform so a read is a handful
// of pointer loads.
class CounterProbe {
 public:
  explicit CounterProbe(XoarPlatform& platform);
  Counters Read() const;

 private:
  XoarPlatform& platform_;
  // Registry counters summed into each entry; entries with none are read
  // from the platform's own accessors.
  std::array<std::array<const Counter*, 2>, kCounterCount> registry_{};
};

// In-memory span log of one traced run, written out at exit as Chrome
// trace JSON. A span covers one call into the simulator (or a benchmark
// phase) and carries the counter deltas over the call.
class SpanLog {
 public:
  static constexpr int kNoParent = -1;

  // Opens a span; `probe` may be null for spans opened before a platform
  // exists. Returns the span's index, used as the parent of nested spans.
  int Begin(const char* name, int parent, const CounterProbe* probe);
  // Closes the span and returns its duration in microseconds.
  double End(int span, const CounterProbe* probe);

  bool WriteChromeTrace(const std::string& path) const;
  std::size_t size() const { return spans_.size(); }

 private:
  struct Span {
    const char* name;
    int parent;
    Clock::time_point start;
    Clock::time_point end;
    Counters at_start;
    Counters delta;
  };
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

// Times one call into the simulator. With a span log it also records a
// span (name, parent, counter deltas); without one it only reads the
// clock. Returns the call's wall time in microseconds.
template <typename F>
double TimedCall(SpanLog* spans, const CounterProbe* probe, const char* name,
                 int parent, F&& call) {
  if (spans != nullptr) {
    const int span = spans->Begin(name, parent, probe);
    call();
    return spans->End(span, probe);
  }
  const Clock::time_point start = Clock::now();
  call();
  return MicrosBetween(start, Clock::now());
}

// Everything one episode (set-up + fixed measured work) reports.
struct EpisodeResult {
  bool correct = true;
  std::string error;  // first broken invariant, if any
  double setup_s = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t ops = 0;  // completed ops (the ops_per_s numerator)
  // Wall time of each timed call of the measured phase, in call order;
  // together they cover all of the phase's work.
  std::vector<double> call_us;
  std::uint64_t digest = 0;
  // Results by metric name (BENCHMARK.json), split by clock. `sim` values
  // are simulated or counted, so every episode of a seed must report the
  // same ones; `wall` values are host time.
  std::map<std::string, double> sim;
  std::map<std::string, double> wall;

  void Fail(const std::string& why) {
    if (correct) {
      error = why;
    }
    correct = false;
  }
};

// Medians of repeated XenStoreService Write+Read and BlkBack
// CreateImage+DeleteImage calls at the platform's current population.
// Both leave the store and the image table as they found them. `error`
// names the first call that did not succeed.
struct ProbeResult {
  double xs_rw_us = 0;
  double image_us = 0;
  std::string error;
};
ProbeResult RunProbes(XoarPlatform& platform, DomainId guest, int repeats,
                      SpanLog* spans, const CounterProbe* probe, int parent);

// Accounts guest requests issued inside the simulation: each must
// complete exactly once, OK or with an error, or still be outstanding
// when the episode ends (then it counts as failed).
class RequestLog {
 public:
  // Reserves room for `expected` requests, so that growing the log never
  // lands inside a timed call.
  explicit RequestLog(std::size_t expected) {
    done_.reserve(expected);
    latency_us_.reserve(expected);
  }

  std::uint64_t Issue() {
    done_.push_back(0);
    return done_.size() - 1;
  }
  // `kind` and `guest` only feed the digest.
  void Complete(std::uint64_t id, std::uint64_t kind, std::uint64_t guest,
                SimTime sent, SimTime now, const Status& status);

  std::uint64_t attempted() const { return done_.size(); }
  std::uint64_t ok() const { return ok_; }
  std::uint64_t errors() const { return errors_; }
  std::uint64_t outstanding() const { return attempted() - ok_ - errors_; }
  std::uint64_t double_completions() const { return double_completions_; }
  // Simulated latency of each OK request, in microseconds.
  const std::vector<double>& latency_us() const { return latency_us_; }
  Digest& digest() { return digest_; }

 private:
  std::vector<std::uint8_t> done_;
  std::uint64_t ok_ = 0;
  std::uint64_t errors_ = 0;
  std::uint64_t double_completions_ = 0;
  std::vector<double> latency_us_;
  Digest digest_;
};

// A booted Xoar host with guests whose split-driver frontends have
// finished their handshakes.
struct IoHost {
  std::unique_ptr<XoarPlatform> platform;
  std::unique_ptr<CounterProbe> probe;
  std::vector<DomainId> guests;
  std::vector<NetFront*> net;
  std::vector<BlkFront*> blk;
  std::vector<double> create_us;
};

// Boots `config`, creates `count` guests from `spec_for(index)` (timing
// each CreateGuest) and settles the handshakes. A traced episode also
// runs the probes after kLowProbeAt guests and after the last one. Sets
// result.setup_s; on error fails `result` and returns false.
bool SetUpIoHost(const XoarPlatform::Config& config, int count,
                 const std::function<GuestSpec(int)>& spec_for,
                 SpanLog* spans, int parent, IoHost& host,
                 EpisodeResult& result);

// Simulated time set-up leaves for the frontend handshakes.
constexpr SimDuration kSettleTime = kSecond;

struct SliceStats {
  double runfor_us = 0;  // host time inside RunFor
  std::uint64_t events = 0;
  std::size_t pending_peak = 0;
};
// Runs the simulator in `slice` steps, timing each RunFor call, while
// `keep_going` returns true. `before_slice` runs ahead of each slice.
// Adds each call's wall time to result.call_us.
void RunSlices(XoarPlatform& platform, SimDuration slice,
               const std::function<bool()>& keep_going,
               const std::function<void()>& before_slice, SpanLog* spans,
               const CounterProbe* probe, int parent, EpisodeResult& result,
               SliceStats& stats);

// Guest count after which the low-population probes run.
constexpr int kLowProbeAt = 10;
constexpr int kProbeRepeats = 40;

// Invariants every workload checks at the end of an episode: the audit
// chain is intact and the measured phase never walked the domain table.
void CheckPlatformInvariants(XoarPlatform& platform,
                             const Counters& load_delta,
                             EpisodeResult& result);

// Per-layer values every workload derives the same way from its
// measured-phase counter delta.
void AddCounterLayers(const Counters& delta, std::uint64_t ops,
                      EpisodeResult& result);

// xs.probe.* and drv.probe.* per-layer values; fails `result` if a probe
// call did not succeed.
void AddProbeLayers(const ProbeResult& low, const ProbeResult& high,
                    EpisodeResult& result);

// ctl.* per-layer values from the timed CreateGuest/DestroyGuest calls.
// create_growth compares the last tenth of `fill_us` with its first tenth.
void AddControlLayers(const std::vector<double>& create_us,
                      const std::vector<double>& destroy_us,
                      const std::vector<double>& fill_us,
                      EpisodeResult& result);

// Per-guest control-plane footprint: sim_control_bytes_per_domain
// (control-shard memory plus the XenStore nodes, charged to the live
// guests, as in bench/ablation_density) and xs.nodes_per_live_domain.
void AddFootprint(XoarPlatform& platform, std::size_t live_guests,
                  EpisodeResult& result);

}  // namespace xoar::perfbench

#endif  // XOAR_PERFBENCH_HARNESS_H_
