// guest_io: a closed loop over kGuests guests. Each keeps kFramesInFlight
// 1500 B frames outstanding on its NetFront and one 4 KiB request on its
// BlkFront (seeded offset, seeded read/write mix) for kIssueTime of
// simulated time. The data path (sim, hv grants and event channels, drv
// rings, dev models) does nearly all the work; xs and ctl appear only in
// set-up.
#include "perfbench/workloads.h"
#include "src/base/rng.h"
#include "src/base/strings.h"

namespace xoar::perfbench {
namespace {

constexpr int kGuests = 16;
constexpr int kFramesInFlight = 8;
constexpr std::uint32_t kFrameBytes = 1500;
constexpr std::uint64_t kBlockBytes = 4 * kKiB;
constexpr std::uint64_t kImageMb = 64;
constexpr double kWriteShare = 0.3;
constexpr SimDuration kIssueTime = 2 * kSecond;
constexpr SimDuration kDrainLimit = 2 * kSecond;
// Simulated time of one timed RunFor call.
constexpr SimDuration kSlice = 10 * kMillisecond;

constexpr std::uint64_t kFrameKind = 1;
constexpr std::uint64_t kBlockKind = 2;

// The closed loop: every completion issues the guest's next request
// until the issue window closes. Owned outside the platform so it
// outlives every callback the platform still holds.
struct ClosedLoop {
  Simulator* sim = nullptr;
  IoHost* host = nullptr;
  Rng rng{0};
  SimTime issue_end = 0;
  // The NIC caps frames at link rate; blocks and the drain add little.
  RequestLog requests{static_cast<std::size_t>(
      1.25 * ToSeconds(kIssueTime) * 1e9 / 8 / kFrameBytes)};
  std::uint64_t frames_in_window = 0;
  std::uint64_t blocks_in_window = 0;

  bool issuing() const { return sim->Now() < issue_end; }

  void SendFrame(int guest) {
    const std::uint64_t id = requests.Issue();
    const SimTime sent = sim->Now();
    host->net[guest]->SendFrame(kFrameBytes, [this, id, guest,
                                              sent](Status status) {
      requests.Complete(id, kFrameKind, guest, sent, sim->Now(), status);
      if (status.ok() && sim->Now() <= issue_end) {
        ++frames_in_window;
      }
      if (issuing()) {
        SendFrame(guest);
      }
    });
  }

  void SubmitBlock(int guest) {
    const std::uint64_t id = requests.Issue();
    const SimTime sent = sim->Now();
    const std::uint64_t offset =
        rng.NextBelow(kImageMb * kMiB / kBlockBytes) * kBlockBytes;
    auto done = [this, id, guest, sent](Status status) {
      requests.Complete(id, kBlockKind, guest, sent, sim->Now(), status);
      if (status.ok() && sim->Now() <= issue_end) {
        ++blocks_in_window;
      }
      if (issuing()) {
        SubmitBlock(guest);
      }
    };
    if (rng.NextBool(kWriteShare)) {
      host->blk[guest]->WriteBytes(offset, kBlockBytes, std::move(done));
    } else {
      host->blk[guest]->ReadBytes(offset, kBlockBytes, std::move(done));
    }
  }
};

}  // namespace

EpisodeResult RunGuestIo(std::uint64_t seed, SpanLog* spans) {
  EpisodeResult result;
  const int episode = spans != nullptr
                          ? spans->Begin("guest_io", SpanLog::kNoParent,
                                         nullptr)
                          : SpanLog::kNoParent;
  ClosedLoop loop;
  loop.rng = Rng(seed);
  IoHost host;
  if (!SetUpIoHost(XoarPlatform::Config(), kGuests,
                   [](int i) {
                     GuestSpec spec;
                     spec.name = StrFormat("io-%d", i);
                     spec.memory_mb = 128;
                     spec.vcpus = 1;
                     spec.disk_image_mb = kImageMb;
                     return spec;
                   },
                   spans, episode, host, result)) {
    return result;
  }
  XoarPlatform& platform = *host.platform;
  const CounterProbe& probe = *host.probe;
  loop.sim = &platform.sim();
  loop.host = &host;

  const int load_span = spans != nullptr
                            ? spans->Begin("load", episode, &probe)
                            : SpanLog::kNoParent;
  const Counters load_start = probe.Read();
  const SimTime sim_start = loop.sim->Now();
  loop.issue_end = sim_start + kIssueTime;
  for (int g = 0; g < kGuests; ++g) {
    for (int f = 0; f < kFramesInFlight; ++f) {
      loop.SendFrame(g);
    }
    loop.SubmitBlock(g);
  }
  SliceStats slices;
  const SimTime drain_end = loop.issue_end + kDrainLimit;
  RunSlices(
      platform, kSlice,
      [&] {
        return loop.issuing() || (loop.requests.outstanding() > 0 &&
                                  loop.sim->Now() < drain_end);
      },
      [] {}, spans, &probe, load_span, result, slices);
  const Counters load = probe.Read() - load_start;
  const SimDuration sim_elapsed = loop.sim->Now() - sim_start;
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

  const double window_s = ToSeconds(kIssueTime);
  AddFootprint(platform, host.guests.size(), result);
  auto& sim = result.sim;
  sim["sim_io_p50_us"] = Quantile(requests.latency_us(), 0.5);
  sim["sim_io_p99_us"] = Quantile(requests.latency_us(), 0.99);
  sim["sim_net_mbps"] = static_cast<double>(loop.frames_in_window) *
                        kFrameBytes * 8 / window_s / 1e6;
  sim["sim_blk_iops"] = static_cast<double>(loop.blocks_in_window) / window_s;
  Digest& digest = loop.requests.digest();
  digest.Add(static_cast<std::uint64_t>(loop.sim->Now()));
  result.digest = digest.value();

  AddCounterLayers(load, result.ops, result);
  result.wall["sim.host_ns_per_event"] =
      slices.events > 0 ? slices.runfor_us * 1e3 / slices.events : 0;
  sim["sim.pending_peak"] = static_cast<double>(slices.pending_peak);
  sim["dev.nic_utilisation"] =
      static_cast<double>(load[kNicTxBytes]) * 8 /
      (platform.nic().link_rate() * ToSeconds(sim_elapsed));
  AddControlLayers(host.create_us, {}, host.create_us, result);
  if (spans != nullptr) {
    spans->End(episode, nullptr);
  }
  return result;
}

}  // namespace xoar::perfbench
