// restart_io: an open loop in simulated time over kGuests guests while
// shards microreboot on a seeded rotation. Each guest sends one frame
// every kTick (seeded stagger) and a 4 KiB block write every
// kBlockEveryTicks-th tick. The load on drv and xs is reconnect
// handshakes and retry/backoff, not bulk rings; core (RestartEngine,
// watchdog) does real work only here.
//
// A request's latency counts from its scheduled send time, so a stall
// also charges the requests queued behind it. A request still incomplete
// after the final drain counts as failed.
#include <algorithm>
#include <string>
#include <vector>

#include "perfbench/workloads.h"
#include "src/base/rng.h"
#include "src/base/strings.h"

namespace xoar::perfbench {
namespace {

constexpr int kGuests = 256;
constexpr int kTenants = 16;
constexpr int kStateShards = 4;
constexpr std::uint32_t kFrameBytes = 1500;
constexpr std::uint64_t kBlockBytes = 4 * kKiB;
constexpr std::uint64_t kImageMb = 4;
constexpr SimDuration kTick = 10 * kMillisecond;
constexpr int kBlockEveryTicks = 240;
constexpr SimDuration kIssueTime = 8 * kSecond;
constexpr SimDuration kDrainTime = 2 * kSecond;
// Simulated time of one timed RunFor call. Each of the ten reconnect
// storms (every guest re-attaching after a backend restart, 40-80 ms of
// host time) falls in one slice. At 20 ms an episode makes about 520
// timed calls, so the 99th percentile lands inside the storms. With
// 10 ms slices it fell on the edge between the storms and the next
// calls of about 5 ms, and host noise moved it by a quarter.
constexpr SimDuration kSlice = 20 * kMillisecond;
// Seconds into the measured phase of the first State-shard restart.
constexpr double kStateRotationAt = 6.85;

constexpr std::uint64_t kFrameKind = 1;
constexpr std::uint64_t kBlockKind = 2;

struct PlannedRestart {
  SimDuration at;  // from the start of the measured phase
  std::string component;
  bool fast;
};

// The rotation: NetBack fast every second (the Fig 6.3 cliff), BlkBack
// slow every 2 s, XenStore-Logic every 4 s, the Toolstack once, and every
// XenStore-State shard once, in a seeded order, 100 ms apart from
// kStateRotationAt. Each restart lands on a seeded slice within 100 ms
// of its slot.
//
// A State-shard restart currently never completes (its shard stays
// down), and the shard holding NetBack's backend directory takes every
// guest's reconnect with it. Restarting all shards in one late burst
// makes the stranded share the same for every seed: every guest strands
// at the first NetBack restart after the burst.
std::vector<PlannedRestart> PlanRestarts(Rng& rng) {
  std::vector<std::string> state_shards = {"XenStore-State"};
  for (int i = 1; i < kStateShards; ++i) {
    state_shards.push_back(StrFormat("XenStore-State-%d", i));
  }
  for (std::size_t i = state_shards.size() - 1; i > 0; --i) {
    std::swap(state_shards[i], state_shards[rng.NextBelow(i + 1)]);
  }
  std::vector<PlannedRestart> plan;
  auto add = [&](double at_s, std::string component, bool fast) {
    const SimDuration jitter =
        static_cast<SimDuration>(rng.NextBelow(100 * kMillisecond / kSlice)) *
        kSlice;
    plan.push_back({FromSeconds(at_s) + jitter, std::move(component), fast});
  };
  const double issue_s = ToSeconds(kIssueTime);
  for (double t = 0.5; t < issue_s; t += 1.0) {
    add(t, "NetBack", true);
  }
  for (double t = 1.0; t < issue_s; t += 2.0) {
    add(t, "BlkBack", false);
  }
  for (double t = 2.25; t < issue_s; t += 4.0) {
    add(t, "XenStore-Logic", false);
  }
  add(4.25, "Toolstack", false);
  for (std::size_t i = 0; i < state_shards.size(); ++i) {
    add(kStateRotationAt + 0.1 * static_cast<double>(i), state_shards[i],
        false);
  }
  std::stable_sort(plan.begin(), plan.end(),
                   [](const PlannedRestart& a, const PlannedRestart& b) {
                     return a.at < b.at;
                   });
  return plan;
}

// The open-loop generator: one self-rescheduling simulator event per
// guest, fired at that guest's send times.
struct OpenLoop {
  Simulator* sim = nullptr;
  IoHost* host = nullptr;
  Rng rng{0};
  SimTime issue_end = 0;
  // One frame per tick per guest, plus a block write every
  // kBlockEveryTicks ticks.
  RequestLog requests{static_cast<std::size_t>(
      kGuests * (kIssueTime / kTick) * (kBlockEveryTicks + 1) /
      kBlockEveryTicks + kGuests)};

  void Tick(int guest, std::int64_t tick, int block_phase) {
    const SimTime sent = sim->Now();
    const std::uint64_t frame = requests.Issue();
    host->net[guest]->SendFrame(kFrameBytes, [this, frame, guest,
                                              sent](Status status) {
      requests.Complete(frame, kFrameKind, guest, sent, sim->Now(), status);
    });
    if ((tick + block_phase) % kBlockEveryTicks == 0) {
      const std::uint64_t block = requests.Issue();
      const std::uint64_t offset =
          rng.NextBelow(kImageMb * kMiB / kBlockBytes) * kBlockBytes;
      host->blk[guest]->WriteBytes(
          offset, kBlockBytes, [this, block, guest, sent](Status status) {
            requests.Complete(block, kBlockKind, guest, sent, sim->Now(),
                              status);
          });
    }
    if (sent + kTick < issue_end) {
      sim->ScheduleAfter(kTick, [this, guest, tick, block_phase] {
        Tick(guest, tick + 1, block_phase);
      });
    }
  }
};

}  // namespace

EpisodeResult RunRestartIo(std::uint64_t seed, SpanLog* spans) {
  EpisodeResult result;
  const int episode = spans != nullptr
                          ? spans->Begin("restart_io", SpanLog::kNoParent,
                                         nullptr)
                          : SpanLog::kNoParent;
  OpenLoop loop;
  loop.rng = Rng(seed);
  XoarPlatform::Config config;
  config.xenstore_state_shards = kStateShards;
  config.machine_memory_gb = 8;
  IoHost host;
  if (!SetUpIoHost(config, kGuests,
                   [](int i) {
                     GuestSpec spec;
                     spec.name = StrFormat("web-%d", i);
                     spec.memory_mb = 16;
                     spec.vcpus = 1;
                     spec.tenant = StrFormat("tenant-%d", i % kTenants);
                     spec.disk_image_mb = kImageMb;
                     return spec;
                   },
                   spans, episode, host, result)) {
    return result;
  }
  XoarPlatform& platform = *host.platform;
  const CounterProbe& probe = *host.probe;
  RestartEngine& engine = platform.restarts();
  loop.sim = &platform.sim();
  loop.host = &host;
  const std::vector<PlannedRestart> plan = PlanRestarts(loop.rng);
  std::vector<std::string> components;
  for (const PlannedRestart& r : plan) {
    if (std::find(components.begin(), components.end(), r.component) ==
        components.end()) {
      components.push_back(r.component);
    }
  }
  auto restarts_completed = [&] {
    int total = 0;
    for (const std::string& c : components) {
      total += engine.RestartCount(c);
    }
    return total;
  };

  const int load_span = spans != nullptr
                            ? spans->Begin("load", episode, &probe)
                            : SpanLog::kNoParent;
  const Counters load_start = probe.Read();
  const int restarts_before = restarts_completed();
  const SimTime sim_start = loop.sim->Now();
  loop.issue_end = sim_start + kIssueTime;
  for (int g = 0; g < kGuests; ++g) {
    const SimDuration stagger =
        static_cast<SimDuration>(loop.rng.NextBelow(kTick));
    const int block_phase =
        static_cast<int>(loop.rng.NextBelow(kBlockEveryTicks));
    loop.sim->ScheduleAfter(stagger, [&loop, g, block_phase] {
      loop.Tick(g, 0, block_phase);
    });
  }

  std::size_t next_restart = 0;
  std::vector<double> restart_call_us;
  std::vector<double> downtime_ms;
  int restarts_failed = 0;
  Digest& digest = loop.requests.digest();
  auto issue_due_restarts = [&] {
    while (next_restart < plan.size() &&
           sim_start + plan[next_restart].at <= loop.sim->Now()) {
      const PlannedRestart& r = plan[next_restart++];
      Status status;
      const double us =
          TimedCall(spans, &probe, "RestartNow", load_span,
                    [&] { status = engine.RestartNow(r.component, r.fast); });
      restart_call_us.push_back(us);
      result.call_us.push_back(us);
      digest.Add(static_cast<std::uint64_t>(status.code()));
      if (status.ok()) {
        downtime_ms.push_back(ToMilliseconds(engine.LastDowntime(r.component)));
      } else {
        ++restarts_failed;
      }
    }
  };
  SliceStats slices;
  const SimTime end = loop.issue_end + kDrainTime;
  RunSlices(
      platform, kSlice, [&] { return loop.sim->Now() < end; },
      issue_due_restarts, spans, &probe, load_span, result, slices);
  const Counters load = probe.Read() - load_start;
  const int restarts_done = restarts_completed() - restarts_before;
  if (spans != nullptr) {
    spans->End(load_span, &probe);
  }

  const RequestLog& requests = loop.requests;
  result.attempted = requests.attempted();
  result.ops = requests.ok();
  result.failed = requests.errors() + requests.outstanding();
  CheckPlatformInvariants(platform, load, result);
  if (requests.double_completions() != 0) {
    result.Fail("a guest request completed twice");
  }

  AddFootprint(platform, host.guests.size(), result);
  auto& sim = result.sim;
  sim["sim_io_p50_us"] = Quantile(requests.latency_us(), 0.5);
  sim["sim_io_p99_us"] = Quantile(requests.latency_us(), 0.99);
  sim["sim_restart_downtime_ms"] = Median(downtime_ms);
  digest.Add(requests.ok());
  digest.Add(requests.errors());
  digest.Add(static_cast<std::uint64_t>(restarts_done));
  result.digest = digest.value();

  AddCounterLayers(load, result.ops, result);
  result.wall["sim.host_ns_per_event"] =
      slices.events > 0 ? slices.runfor_us * 1e3 / slices.events : 0;
  result.wall["core.restart_call_us"] = Median(restart_call_us);
  sim["sim.pending_peak"] = static_cast<double>(slices.pending_peak);
  sim["dev.nic_utilisation"] =
      static_cast<double>(load[kNicTxBytes]) * 8 /
      (platform.nic().link_rate() * ToSeconds(loop.sim->Now() - sim_start));
  sim["drv.reconnects_per_restart"] =
      restarts_done > 0
          ? static_cast<double>(load[kBackendConnects]) / restarts_done
          : 0;
  sim["core.restarts_completed"] = restarts_done;
  sim["core.restarts_failed"] = restarts_failed;
  AddControlLayers(host.create_us, {}, host.create_us, result);
  if (spans != nullptr) {
    spans->End(episode, nullptr);
  }
  return result;
}

}  // namespace xoar::perfbench
