// Microbenchmarks (google-benchmark) for the platform's communication
// primitives: hypercall policy checks, grant lifecycle, event-channel
// signalling, I/O-ring round trips, and XenStore operations. These are the
// building blocks whose costs §5.1 argues must stay small for
// disaggregation to be viable.
//
// Besides the google-benchmark console output, every primitive records its
// per-op wall latency into the process-global metrics registry
// (`bench.micro.<primitive>_ns` histograms), and main() exports the
// registry as BENCH_micro_primitives.json — the same JSON family the
// platform itself emits (see OBSERVABILITY.md). The in-loop sampling costs
// two steady_clock reads per iteration, so the reported numbers carry a
// small constant inflation; the histogram shape is what matters here.
#include <benchmark/benchmark.h>

#include <array>
#include <chrono>
#include <cstdio>
#include <string_view>

#include "src/base/log.h"
#include "src/base/strings.h"
#include "src/hv/hypervisor.h"
#include "src/hv/io_ring.h"
#include "src/obs/obs.h"
#include "src/xs/store.h"

namespace xoar {
namespace {

// Per-op latency histogram in the process-global registry, 100ns..~100ms
// buckets. Stable pointer: resolve once per benchmark, observe per op.
Histogram* LatencyHist(std::string_view primitive) {
  return Obs::Global().metrics().GetHistogram(
      MetricName("bench", "micro", primitive),
      Histogram::DefaultLatencyBoundsNs());
}

class OpTimer {
 public:
  explicit OpTimer(Histogram* hist)
      : hist_(hist), start_(std::chrono::steady_clock::now()) {}
  ~OpTimer() {
    hist_->Observe(std::chrono::duration<double, std::nano>(
                       std::chrono::steady_clock::now() - start_)
                       .count());
  }

 private:
  Histogram* hist_;
  std::chrono::steady_clock::time_point start_;
};

struct HvFixture {
  HvFixture() {
    Logger::Get().set_level(LogLevel::kNone);
    Hypervisor::Options options;
    options.enforce_shard_sharing_policy = true;
    hv = std::make_unique<Hypervisor>(&sim, options);
    DomainConfig boot_config;
    boot_config.name = "boot";
    boot_config.memory_mb = 32;
    boot_config.is_shard = true;
    boot = *hv->CreateInitialDomain(boot_config, false);
    // xoar-lint: allow(privilege): stock-Xen Dom0 baseline deliberately holds the full privileged set
    hv->domain(boot)->hypercall_policy().PermitAll();
    shard = NewDomain("shard", true);
    DomainConfig guest_config;
    guest_config.name = "guest";
    guest_config.memory_mb = 64;
    guest = *hv->CreateDomain(boot, guest_config);
    (void)hv->FinishBuild(boot, guest);
    (void)hv->UnpauseDomain(boot, guest);
    (void)hv->AllowDelegation(boot, shard, boot);
    (void)hv->AuthorizeShardUse(boot, guest, shard);
  }

  // Adds `count` running guests that may use the shard, each with one
  // connected event channel to it, so a benchmark sees a populated host:
  // that many more domains in the domain table and that many more ports
  // on the shard.
  void Populate(int count) {
    for (int i = 0; i < count; ++i) {
      DomainConfig config;
      config.name = "filler";
      config.memory_mb = 1;
      DomainId filler = *hv->CreateDomain(boot, config);
      (void)hv->FinishBuild(boot, filler);
      (void)hv->UnpauseDomain(boot, filler);
      (void)hv->AuthorizeShardUse(boot, filler, shard);
      EvtchnPort port = *hv->EvtchnAllocUnbound(filler, shard);
      (void)hv->EvtchnBindInterdomain(shard, filler, port);
    }
  }

  DomainId NewDomain(const char* name, bool is_shard) {
    DomainConfig config;
    config.name = name;
    config.memory_mb = 32;
    config.is_shard = is_shard;
    DomainId id = *hv->CreateDomain(boot, config);
    (void)hv->FinishBuild(boot, id);
    (void)hv->UnpauseDomain(boot, id);
    return id;
  }

  Simulator sim;
  std::unique_ptr<Hypervisor> hv;
  DomainId boot, shard, guest;
};

// The hv benchmarks below take the number of extra populated guests as
// their argument (16 and 1024): with dense domid and port tables the
// per-op cost should not move between the two.
void BM_HypercallPolicyCheck(benchmark::State& state) {
  HvFixture fixture;
  fixture.Populate(static_cast<int>(state.range(0)));
  Histogram* hist = LatencyHist(StrFormat(
      "hypercall_check_%lddom_ns", static_cast<long>(state.range(0))));
  for (auto _ : state) {
    OpTimer timer(hist);
    benchmark::DoNotOptimize(
        fixture.hv->CheckHypercall(fixture.guest, Hypercall::kGrantTableOp));
  }
}
BENCHMARK(BM_HypercallPolicyCheck)->Arg(16)->Arg(1024);

void BM_IvcPolicyCheck(benchmark::State& state) {
  HvFixture fixture;
  Histogram* hist = LatencyHist("ivc_check_ns");
  for (auto _ : state) {
    OpTimer timer(hist);
    benchmark::DoNotOptimize(
        fixture.hv->CheckIvcAllowed(fixture.guest, fixture.shard));
  }
}
BENCHMARK(BM_IvcPolicyCheck);

void BM_GrantCreateMapUnmapEnd(benchmark::State& state) {
  HvFixture fixture;
  Pfn pfn = *fixture.hv->memory().AllocatePages(fixture.guest, 1);
  Histogram* hist = LatencyHist("grant_cycle_ns");
  for (auto _ : state) {
    OpTimer timer(hist);
    GrantRef ref =
        *fixture.hv->GrantAccess(fixture.guest, fixture.shard, pfn, true);
    benchmark::DoNotOptimize(
        fixture.hv->MapGrant(fixture.shard, fixture.guest, ref));
    (void)fixture.hv->UnmapGrant(fixture.shard, fixture.guest, ref);
    (void)fixture.hv->EndGrantAccess(fixture.guest, ref);
  }
}
BENCHMARK(BM_GrantCreateMapUnmapEnd);

void BM_EventChannelSendDeliver(benchmark::State& state) {
  HvFixture fixture;
  fixture.Populate(static_cast<int>(state.range(0)));
  EvtchnPort unbound =
      *fixture.hv->EvtchnAllocUnbound(fixture.guest, fixture.shard);
  EvtchnPort bound =
      *fixture.hv->EvtchnBindInterdomain(fixture.shard, fixture.guest,
                                         unbound);
  int delivered = 0;
  (void)fixture.hv->EvtchnSetHandler(fixture.guest, unbound,
                                     [&] { ++delivered; });
  Histogram* hist = LatencyHist(StrFormat(
      "evtchn_send_deliver_%lddom_ns", static_cast<long>(state.range(0))));
  for (auto _ : state) {
    OpTimer timer(hist);
    (void)fixture.hv->EvtchnSend(fixture.shard, bound);
    fixture.sim.Run();
  }
  benchmark::DoNotOptimize(delivered);
}
BENCHMARK(BM_EventChannelSendDeliver)->Arg(16)->Arg(1024);

struct RingReq {
  std::uint64_t id;
  std::uint32_t payload;
};
struct RingRsp {
  std::uint64_t id;
  std::int32_t status;
};

void BM_IoRingRoundTrip(benchmark::State& state) {
  alignas(64) std::array<std::byte, kPageSize> page{};
  auto front = IoRing<RingReq, RingRsp>::Create(page.data());
  auto back = IoRing<RingReq, RingRsp>::Attach(page.data());
  std::uint64_t id = 0;
  Histogram* hist = LatencyHist("io_ring_round_trip_ns");
  for (auto _ : state) {
    OpTimer timer(hist);
    front.PushRequest({id, 42});
    auto req = back.PopRequest();
    back.PushResponse({req->id, 0});
    benchmark::DoNotOptimize(front.PopResponse());
    ++id;
  }
}
BENCHMARK(BM_IoRingRoundTrip);

void BM_XenStoreWrite(benchmark::State& state) {
  XsStore store;
  store.AddManagerDomain(DomainId(0));
  std::uint64_t counter = 0;
  Histogram* hist = LatencyHist("xs_write_ns");
  for (auto _ : state) {
    OpTimer timer(hist);
    (void)store.Write(DomainId(0), "/bench/key",
                      std::to_string(counter++));
  }
}
BENCHMARK(BM_XenStoreWrite);

void BM_XenStoreReadDeepPath(benchmark::State& state) {
  XsStore store;
  store.AddManagerDomain(DomainId(0));
  (void)store.Write(DomainId(0), "/local/domain/7/device/vif/0/state", "4");
  Histogram* hist = LatencyHist("xs_read_deep_ns");
  for (auto _ : state) {
    OpTimer timer(hist);
    benchmark::DoNotOptimize(
        store.Read(DomainId(0), "/local/domain/7/device/vif/0/state"));
  }
}
BENCHMARK(BM_XenStoreReadDeepPath);

void BM_XenStoreWatchFire(benchmark::State& state) {
  XsStore store;
  store.AddManagerDomain(DomainId(0));
  int fires = 0;
  (void)store.Watch(DomainId(0), "/w", "tok",
                    [&](const XsWatchEvent&) { ++fires; });
  std::uint64_t counter = 0;
  Histogram* hist = LatencyHist("xs_watch_fire_ns");
  for (auto _ : state) {
    OpTimer timer(hist);
    (void)store.Write(DomainId(0), "/w/key", std::to_string(counter++));
  }
  benchmark::DoNotOptimize(fires);
}
BENCHMARK(BM_XenStoreWatchFire);

void BM_XenStoreTransaction(benchmark::State& state) {
  XsStore store;
  store.AddManagerDomain(DomainId(0));
  Histogram* hist = LatencyHist("xs_transaction_ns");
  for (auto _ : state) {
    OpTimer timer(hist);
    auto tx = store.TransactionStart(DomainId(0));
    (void)store.Write(DomainId(0), "/tx/a", "1", *tx);
    (void)store.TransactionEnd(DomainId(0), *tx, true);
  }
}
BENCHMARK(BM_XenStoreTransaction);

void BM_SimulatorScheduleRun(benchmark::State& state) {
  Simulator sim;
  Histogram* hist = LatencyHist("sim_schedule_run_ns");
  for (auto _ : state) {
    OpTimer timer(hist);
    sim.ScheduleAfter(1, [] {});
    sim.Run();
  }
}
BENCHMARK(BM_SimulatorScheduleRun);

}  // namespace
}  // namespace xoar

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  xoar::Status status = xoar::Obs::Global().metrics().WriteJsonFile(
      "BENCH_micro_primitives.json", "micro_primitives");
  if (!status.ok()) {
    std::fprintf(stderr, "failed to write BENCH_micro_primitives.json: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  std::printf("\nper-op latency histograms -> BENCH_micro_primitives.json\n");
  return 0;
}
