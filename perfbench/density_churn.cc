// density_churn: one admin caller in a closed loop fills a Xoar host to
// kFillGuests small guests, then replaces seeded victims with
// destroy-then-create pairs at that population. The control plane (ctl,
// xs, the drv image allocator, the hv domain table) does all the work
// and the data path stays idle. Destroys sit beside creates, so a create
// speed-up that moves work into teardown still shows.
#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "perfbench/workloads.h"
#include "src/base/rng.h"
#include "src/base/strings.h"

namespace xoar::perfbench {
namespace {

constexpr int kFillGuests = 500;
constexpr int kChurnPairs = 250;
constexpr int kTenants = 64;
constexpr std::uint64_t kGuestMb = 16;
constexpr std::uint64_t kGuestDiskMb = 4;
constexpr int kStateShards = 16;
constexpr int kSetupRepeats = 5;

}  // namespace

EpisodeResult RunDensityChurn(std::uint64_t seed, SpanLog* spans) {
  EpisodeResult result;
  Rng rng(seed);
  Digest digest;
  const int episode =
      spans != nullptr ? spans->Begin("density_churn", SpanLog::kNoParent,
                                      nullptr)
                       : SpanLog::kNoParent;

  XoarPlatform::Config config;
  // Size the machine so memory never binds at kFillGuests.
  config.machine_memory_gb = 8 + kFillGuests * kGuestMb * 2 / 1024;
  config.xenstore_state_shards = kStateShards;
  config.console_manager_enabled = false;
  // A boot takes about a millisecond, so one sample per episode would be
  // noise: time kSetupRepeats boots and keep the last platform.
  std::unique_ptr<XoarPlatform> platform;
  Status boot;
  std::vector<double> setup_s;
  const int setup_span =
      spans != nullptr ? spans->Begin("setup", episode, nullptr)
                       : SpanLog::kNoParent;
  for (int i = 0; i < kSetupRepeats; ++i) {
    platform.reset();
    const Clock::time_point start = Clock::now();
    platform = std::make_unique<XoarPlatform>(config);
    boot = platform->Boot();
    setup_s.push_back(MicrosBetween(start, Clock::now()) / 1e6);
  }
  if (spans != nullptr) {
    spans->End(setup_span, nullptr);
  }
  result.setup_s = Median(setup_s);
  if (!boot.ok()) {
    result.Fail("boot failed: " + boot.ToString());
    return result;
  }
  const CounterProbe probe(*platform);

  std::vector<DomainId> live;
  live.reserve(kFillGuests);
  std::vector<double> create_us;
  std::vector<double> destroy_us;
  std::size_t pending_peak = 0;
  int serial = 0;
  const int load_span = spans != nullptr
                            ? spans->Begin("load", episode, &probe)
                            : SpanLog::kNoParent;

  auto create = [&] {
    GuestSpec spec;
    spec.name = StrFormat("vdi-%d", serial++);
    spec.memory_mb = kGuestMb;
    spec.vcpus = 1;
    spec.tenant = StrFormat(
        "tenant-%llu", static_cast<unsigned long long>(rng.NextBelow(kTenants)));
    spec.disk_image_mb = kGuestDiskMb;
    std::optional<StatusOr<DomainId>> guest;
    const double us = TimedCall(spans, &probe, "CreateGuest", load_span,
                                [&] { guest = platform->CreateGuest(spec); });
    ++result.attempted;
    create_us.push_back(us);
    result.call_us.push_back(us);
    digest.Add(1);
    if (guest->ok()) {
      live.push_back(**guest);
      ++result.ops;
      digest.Add((*guest)->value());
    } else {
      ++result.failed;
      digest.Add(static_cast<std::uint64_t>(guest->status().code()));
    }
  };
  auto destroy = [&] {
    const std::size_t index = rng.NextBelow(live.size());
    const DomainId victim = live[index];
    live[index] = live.back();
    live.pop_back();
    Status status;
    const double us = TimedCall(spans, &probe, "DestroyGuest", load_span,
                                [&] { status = platform->DestroyGuest(victim); });
    ++result.attempted;
    destroy_us.push_back(us);
    result.call_us.push_back(us);
    digest.Add(2);
    digest.Add(victim.value());
    digest.Add(static_cast<std::uint64_t>(status.code()));
    if (status.ok()) {
      ++result.ops;
    } else {
      ++result.failed;
    }
  };
  // Probes run only in traced episodes; their counters are taken out of
  // the measured phase's.
  Counters probe_counters;
  auto probe_at = [&]() -> ProbeResult {
    const Counters before = probe.Read();
    const ProbeResult r = RunProbes(*platform, live.front(), kProbeRepeats,
                                    spans, &probe, load_span);
    probe_counters = probe_counters + (probe.Read() - before);
    return r;
  };

  const Counters load_start = probe.Read();
  ProbeResult low;
  for (int i = 0; i < kFillGuests; ++i) {
    create();
    pending_peak = std::max(pending_peak, platform->sim().PendingEvents());
    if (spans != nullptr && i + 1 == kLowProbeAt && !live.empty()) {
      low = probe_at();
    }
  }
  ProbeResult high;
  if (spans != nullptr && !live.empty()) {
    high = probe_at();
  }
  for (int pair = 0; pair < kChurnPairs && !live.empty(); ++pair) {
    destroy();
    create();
    pending_peak = std::max(pending_peak, platform->sim().PendingEvents());
  }
  const Counters load = probe.Read() - load_start - probe_counters;
  if (spans != nullptr) {
    spans->End(load_span, &probe);
  }

  CheckPlatformInvariants(*platform, load, result);
  AddFootprint(*platform, live.size(), result);
  digest.Add(live.size());
  digest.Add(platform->hv().LiveDomainCount());
  digest.Add(static_cast<std::uint64_t>(platform->sim().Now()));
  digest.Add(platform->sim().PendingEvents());
  result.digest = digest.value();

  AddCounterLayers(load, result.ops, result);
  result.sim["sim.pending_peak"] = static_cast<double>(pending_peak);
  AddControlLayers(create_us, destroy_us,
                   std::vector<double>(create_us.begin(),
                                       create_us.begin() + kFillGuests),
                   result);
  if (spans != nullptr) {
    AddProbeLayers(low, high, result);
    spans->End(episode, nullptr);
  }
  return result;
}

}  // namespace xoar::perfbench
