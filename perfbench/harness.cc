#include "perfbench/harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <optional>

#include "src/base/strings.h"
#include "src/base/units.h"

namespace xoar::perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0;
  }
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  const std::size_t index = rank == 0 ? 0 : rank - 1;
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(index),
                   values.end());
  return values[index];
}

double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

void Digest::Add(std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash_ ^= (value >> (8 * i)) & 0xff;
    hash_ *= 1099511628211ULL;
  }
}

void Digest::AddDouble(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  Add(bits);
}

namespace {

// Names of the counter deltas in the Chrome trace, by CounterId.
constexpr const char* kCounterNames[kCounterCount] = {
    "sim_events",         "hypercalls",        "hypercalls_denied",
    "grant_maps",         "evtchn_sends",      "domain_table_scans",
    "xs_requests",        "xs_logic_restarts", "xs_reads",
    "xs_writes",          "xs_watch_fires",    "xs_fanout_ops",
    "xs_unavailable",     "front_retries",     "backend_connects",
    "net_dropped",        "nic_tx_bytes",      "disk_bytes",
    "audit_records",
};

}  // namespace

Counters Counters::operator-(const Counters& other) const {
  Counters d;
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    d.v[i] = v[i] - other.v[i];
  }
  return d;
}

Counters Counters::operator+(const Counters& other) const {
  Counters s;
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    s.v[i] = v[i] + other.v[i];
  }
  return s;
}

CounterProbe::CounterProbe(XoarPlatform& platform) : platform_(platform) {
  struct Source {
    CounterId id;
    const char* names[2];
  };
  static constexpr Source kSources[] = {
      {kHypercalls, {"hv.hypercall.total", nullptr}},
      {kHypercallsDenied, {"hv.hypercall.denied", nullptr}},
      {kGrantMaps, {"hv.grant.maps", nullptr}},
      {kEvtchnSends, {"hv.evtchn.sends", nullptr}},
      {kXsRequests, {"xenstore.service.requests", nullptr}},
      {kXsLogicRestarts, {"xenstore.service.logic_restarts", nullptr}},
      {kXsReads, {"xenstore.store.reads", nullptr}},
      {kXsWrites, {"xenstore.store.writes", nullptr}},
      {kXsWatchFires, {"xenstore.store.watch_fires", nullptr}},
      {kXsFanoutOps, {"xs.shard.fanout_ops", nullptr}},
      {kXsUnavailableRejects, {"xs.shard.unavailable_rejects", nullptr}},
      {kFrontRetries, {"NetFront.retry.attempts", "BlkFront.retry.attempts"}},
      {kBackendConnects, {"NetBack.vif.connects", "BlkBack.vbd.connects"}},
      {kNetDropped, {"NetBack.ring.dropped", nullptr}},
  };
  MetricRegistry& metrics = platform.obs().metrics();
  for (const Source& source : kSources) {
    for (int i = 0; i < 2; ++i) {
      if (source.names[i] != nullptr) {
        registry_[source.id][i] = metrics.GetCounter(source.names[i]);
      }
    }
  }
}

Counters CounterProbe::Read() const {
  Counters c;
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    for (const Counter* counter : registry_[i]) {
      if (counter != nullptr) {
        c.v[i] += counter->value();
      }
    }
  }
  c.v[kSimEvents] = platform_.sim().EventsExecuted();
  c.v[kDomainTableScans] = platform_.hv().domain_table_scans();
  c.v[kNicTxBytes] = platform_.nic().tx_bytes();
  c.v[kDiskBytes] =
      platform_.disk().bytes_read() + platform_.disk().bytes_written();
  c.v[kAuditRecords] = platform_.audit().size();
  return c;
}

int SpanLog::Begin(const char* name, int parent, const CounterProbe* probe) {
  Span span{name, parent, Clock::time_point(), Clock::time_point(),
            probe != nullptr ? probe->Read() : Counters(), Counters()};
  spans_.push_back(span);
  spans_.back().start = Clock::now();
  return static_cast<int>(spans_.size() - 1);
}

double SpanLog::End(int index, const CounterProbe* probe) {
  const Clock::time_point end = Clock::now();
  Span& span = spans_[static_cast<std::size_t>(index)];
  span.end = end;
  if (probe != nullptr) {
    span.delta = probe->Read() - span.at_start;
  }
  return MicrosBetween(span.start, span.end);
}

bool SpanLog::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fputs("{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                 "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                 "{\"id\": %zu, \"parent\": %d",
                 s.name, MicrosBetween(origin_, s.start),
                 MicrosBetween(s.start, s.end), i, s.parent);
    for (std::size_t c = 0; c < kCounterCount; ++c) {
      if (s.delta.v[c] != 0) {
        std::fprintf(f, ", \"%s\": %llu", kCounterNames[c],
                     static_cast<unsigned long long>(s.delta.v[c]));
      }
    }
    std::fprintf(f, "}}%s\n", i + 1 == spans_.size() ? "" : ",");
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

ProbeResult RunProbes(XoarPlatform& platform, DomainId guest, int repeats,
                      SpanLog* spans, const CounterProbe* probe, int parent) {
  XenStoreService& xs = platform.xenstore();
  BlkBack& blkback = platform.blkback();
  const std::string key =
      StrFormat("/local/domain/%u/perfbench-probe", guest.value());
  std::vector<double> xs_us;
  std::vector<double> image_us;
  std::string error;
  auto check = [&](const Status& status, const char* call) {
    if (!status.ok() && error.empty()) {
      error = StrFormat("probe %s failed: %s", call,
                        status.ToString().c_str());
    }
  };
  for (int i = 0; i < repeats; ++i) {
    xs_us.push_back(TimedCall(spans, probe, "probe.xs_write_read", parent, [&] {
      check(xs.Write(guest, key, "1"), "Write");
      check(xs.Read(guest, key).status(), "Read");
    }));
    image_us.push_back(
        TimedCall(spans, probe, "probe.image_create_delete", parent, [&] {
          check(blkback.CreateImage("perfbench-probe", 4 * kMiB),
                "CreateImage");
          check(blkback.DeleteImage("perfbench-probe"), "DeleteImage");
        }));
  }
  check(xs.Remove(guest, key), "Remove");
  return ProbeResult{Median(xs_us), Median(image_us), error};
}

void RequestLog::Complete(std::uint64_t id, std::uint64_t kind,
                          std::uint64_t guest, SimTime sent, SimTime now,
                          const Status& status) {
  if (done_[id] != 0) {
    ++double_completions_;
    return;
  }
  done_[id] = 1;
  digest_.Add(kind);
  digest_.Add(guest);
  digest_.Add(static_cast<std::uint64_t>(now - sent));
  digest_.Add(static_cast<std::uint64_t>(status.code()));
  if (status.ok()) {
    ++ok_;
    latency_us_.push_back(static_cast<double>(now - sent) / kMicrosecond);
  } else {
    ++errors_;
  }
}

bool SetUpIoHost(const XoarPlatform::Config& config, int count,
                 const std::function<GuestSpec(int)>& spec_for,
                 SpanLog* spans, int parent, IoHost& host,
                 EpisodeResult& result) {
  const Clock::time_point start = Clock::now();
  const int setup_span = spans != nullptr
                             ? spans->Begin("setup", parent, nullptr)
                             : SpanLog::kNoParent;
  host.platform = std::make_unique<XoarPlatform>(config);
  XoarPlatform& platform = *host.platform;
  const Status boot = platform.Boot();
  if (!boot.ok()) {
    result.Fail("boot failed: " + boot.ToString());
    return false;
  }
  host.probe = std::make_unique<CounterProbe>(platform);
  const CounterProbe* probe = host.probe.get();
  ProbeResult low;
  for (int i = 0; i < count; ++i) {
    const GuestSpec spec = spec_for(i);
    std::optional<StatusOr<DomainId>> guest;
    host.create_us.push_back(
        TimedCall(spans, probe, "CreateGuest", setup_span,
                  [&] { guest = platform.CreateGuest(spec); }));
    if (!guest->ok()) {
      result.Fail(StrFormat("create %d failed: %s", i,
                            guest->status().ToString().c_str()));
      return false;
    }
    host.guests.push_back(**guest);
    host.net.push_back(platform.netfront(**guest));
    host.blk.push_back(platform.blkfront(**guest));
    if (spans != nullptr && i + 1 == kLowProbeAt) {
      low = RunProbes(platform, host.guests.front(), kProbeRepeats, spans,
                      probe, setup_span);
    }
  }
  platform.Settle(kSettleTime);
  for (std::size_t i = 0; i < host.guests.size(); ++i) {
    if (host.net[i] == nullptr || !host.net[i]->connected() ||
        host.blk[i] == nullptr || !host.blk[i]->connected()) {
      result.Fail(StrFormat("guest %zu frontends not connected after set-up",
                            i));
      return false;
    }
  }
  if (spans != nullptr) {
    const ProbeResult high = RunProbes(platform, host.guests.front(),
                                       kProbeRepeats, spans, probe, setup_span);
    AddProbeLayers(low, high, result);
    spans->End(setup_span, probe);
  }
  result.setup_s = MicrosBetween(start, Clock::now()) / 1e6;
  return true;
}

void RunSlices(XoarPlatform& platform, SimDuration slice,
               const std::function<bool()>& keep_going,
               const std::function<void()>& before_slice, SpanLog* spans,
               const CounterProbe* probe, int parent, EpisodeResult& result,
               SliceStats& stats) {
  Simulator& sim = platform.sim();
  while (keep_going()) {
    before_slice();
    const std::uint64_t events_before = sim.EventsExecuted();
    const double us = TimedCall(spans, probe, "RunFor", parent,
                                [&] { sim.RunFor(slice); });
    stats.runfor_us += us;
    stats.events += sim.EventsExecuted() - events_before;
    stats.pending_peak = std::max(stats.pending_peak, sim.PendingEvents());
    result.call_us.push_back(us);
  }
}

void CheckPlatformInvariants(XoarPlatform& platform,
                             const Counters& load_delta,
                             EpisodeResult& result) {
  const long corrupted = platform.audit().FirstCorruptedRecord();
  if (corrupted != -1) {
    result.Fail(StrFormat("audit chain broken at record %ld", corrupted));
  }
  if (load_delta[kDomainTableScans] != 0) {
    result.Fail(StrFormat(
        "%llu domain-table scans during the measured phase",
        static_cast<unsigned long long>(load_delta[kDomainTableScans])));
  }
}

void AddCounterLayers(const Counters& d, std::uint64_t ops,
                      EpisodeResult& result) {
  const double n = ops > 0 ? static_cast<double>(ops) : 1.0;
  auto per_op = [&](CounterId id) { return static_cast<double>(d[id]) / n; };
  auto total = [&](CounterId id) { return static_cast<double>(d[id]); };
  auto& l = result.sim;
  l["sim.events_per_op"] = per_op(kSimEvents);
  l["hv.grant_maps_per_op"] = per_op(kGrantMaps);
  l["hv.evtchn_sends_per_op"] = per_op(kEvtchnSends);
  l["hv.hypercalls_per_op"] = per_op(kHypercalls);
  l["hv.domain_table_scans"] = total(kDomainTableScans);
  l["hv.hypercalls_denied"] = total(kHypercallsDenied);
  l["xs.requests_per_op"] = per_op(kXsRequests);
  l["xs.logic_restarts_per_op"] = per_op(kXsLogicRestarts);
  l["xs.writes_per_op"] = per_op(kXsWrites);
  l["xs.reads_per_op"] = per_op(kXsReads);
  l["xs.watch_fires_per_op"] = per_op(kXsWatchFires);
  l["xs.fanout_ops_per_op"] = per_op(kXsFanoutOps);
  l["xs.unavailable_rejects"] = total(kXsUnavailableRejects);
  l["drv.retries_per_op"] = per_op(kFrontRetries);
  l["drv.net_dropped"] = total(kNetDropped);
  l["dev.disk_bytes_per_op"] = per_op(kDiskBytes);
  l["core.audit_records_per_op"] = per_op(kAuditRecords);
}

void AddProbeLayers(const ProbeResult& low, const ProbeResult& high,
                    EpisodeResult& result) {
  for (const ProbeResult* probe : {&low, &high}) {
    if (!probe->error.empty()) {
      result.Fail(probe->error);
    }
  }
  auto& l = result.wall;
  l["xs.probe.rw_us_low"] = low.xs_rw_us;
  l["xs.probe.rw_us_high"] = high.xs_rw_us;
  l["xs.probe.growth"] = high.xs_rw_us / low.xs_rw_us;
  l["drv.probe.image_us_low"] = low.image_us;
  l["drv.probe.image_us_high"] = high.image_us;
  l["drv.probe.growth"] = high.image_us / low.image_us;
}

void AddControlLayers(const std::vector<double>& create_us,
                      const std::vector<double>& destroy_us,
                      const std::vector<double>& fill_us,
                      EpisodeResult& result) {
  auto& l = result.wall;
  l["ctl.create_p50_us"] = Quantile(create_us, 0.5);
  l["ctl.create_p99_us"] = Quantile(create_us, 0.99);
  if (!destroy_us.empty()) {
    l["ctl.destroy_p50_us"] = Quantile(destroy_us, 0.5);
    l["ctl.destroy_p99_us"] = Quantile(destroy_us, 0.99);
  }
  // Too few creates for a tenth to have a stable median: not reported.
  const std::size_t tenth = fill_us.size() / 10;
  if (tenth >= 10) {
    const std::vector<double> first(fill_us.begin(), fill_us.begin() + tenth);
    const std::vector<double> last(fill_us.end() - tenth, fill_us.end());
    l["ctl.create_growth"] = Median(last) / Median(first);
  }
}

void AddFootprint(XoarPlatform& platform, std::size_t live_guests,
                  EpisodeResult& result) {
  // Rough per-node heap cost of a XenStore entry, as in
  // bench/ablation_density.
  constexpr double kXsNodeBytes = 256.0;
  if (live_guests == 0) {
    return;
  }
  const double nodes =
      static_cast<double>(platform.xenstore().store().NodeCount());
  const double live = static_cast<double>(live_guests);
  result.sim["sim_control_bytes_per_domain"] =
      (static_cast<double>(platform.ControlPlaneMemoryMb()) * kMiB +
       nodes * kXsNodeBytes) /
      live;
  result.sim["xs.nodes_per_live_domain"] = nodes / live;
}

}  // namespace xoar::perfbench
