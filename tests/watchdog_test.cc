// Shard supervision (src/core/watchdog, RESILIENCE.md "Supervision"):
// heartbeat-driven failure detection, automatic microreboot escalation,
// and quarantine once the restart budget is exhausted. The contract under
// test: hangs and dead domains are detected within one heartbeat timeout,
// recovery is automatic and bounded, and everything replays byte for byte.
#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <string>

#include "src/core/snapshot.h"
#include "src/core/watchdog.h"
#include "src/core/xoar_platform.h"
#include "src/fault/fault.h"

// Sanitizer builds bring their own allocator, so only the plain build
// replaces operator new to count allocations.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define XOAR_COUNTS_ALLOCATIONS 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define XOAR_COUNTS_ALLOCATIONS 0
#endif
#endif
#ifndef XOAR_COUNTS_ALLOCATIONS
#define XOAR_COUNTS_ALLOCATIONS 1
#endif

#if XOAR_COUNTS_ALLOCATIONS
namespace {
// Heap allocations made while g_count_allocations is set.
bool g_count_allocations = false;
std::size_t g_allocations = 0;
}  // namespace

// Kept out of line: inlined into a delete-expression, GCC pairs the
// builtin operator new with this free() and warns of a mismatch.
[[gnu::noinline]] void* operator new(std::size_t size) {
  if (g_count_allocations) {
    ++g_allocations;
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
#endif

namespace xoar {
namespace {

class WatchdogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(platform_.Boot().ok());
    auto guest = platform_.CreateGuest(GuestSpec{});
    ASSERT_TRUE(guest.ok());
    guest_ = *guest;
    platform_.Settle();
    ASSERT_NE(platform_.watchdog(), nullptr);
  }

  Watchdog& wd() { return *platform_.watchdog(); }

  XoarPlatform platform_;
  DomainId guest_;
};

TEST_F(WatchdogTest, RestartableShardsAreSupervisedByDefault) {
  EXPECT_TRUE(wd().IsSupervised("NetBack"));
  EXPECT_TRUE(wd().IsSupervised("BlkBack"));
  EXPECT_TRUE(wd().IsSupervised("XenStore-Logic"));
  EXPECT_TRUE(wd().IsSupervised("Builder"));
  EXPECT_TRUE(wd().IsSupervised("Toolstack"));
  EXPECT_FALSE(wd().IsSupervised("NoSuchShard"));
}

TEST_F(WatchdogTest, HealthyShardsAreNeverRestarted) {
  platform_.Settle(2 * kSecond);
  EXPECT_EQ(wd().auto_restarts(), 0u);
  EXPECT_EQ(wd().hangs_detected(), 0u);
  EXPECT_EQ(wd().deaths_detected(), 0u);
  EXPECT_EQ(wd().quarantines(), 0u);
  // The heartbeat loops really are beating, not just silent.
  const auto snapshot = platform_.obs().metrics().Snapshot();
  const auto* beats = snapshot.FindCounter("NetBack.watchdog.beats");
  ASSERT_NE(beats, nullptr);
  EXPECT_GT(beats->value, 100u);
}

TEST_F(WatchdogTest, InjectedHangIsDetectedWithinOneTimeout) {
  ASSERT_TRUE(wd().InjectHang("NetBack", 300 * kMillisecond).ok());
  platform_.Settle(2 * kSecond);

  EXPECT_EQ(wd().hangs_detected(), 1u);
  EXPECT_EQ(wd().hangs_absorbed(), 0u);
  EXPECT_EQ(wd().auto_restarts(), 1u);
  // The acceptance bar: stall start to watchdog reaction never exceeds the
  // heartbeat timeout.
  EXPECT_GT(wd().max_hang_detection_latency(), 0u);
  EXPECT_LE(wd().max_hang_detection_latency(), wd().config().heartbeat_timeout);
  // And the shard actually came back.
  EXPECT_EQ(platform_.restarts().RestartCount("NetBack"), 1);
  EXPECT_TRUE(platform_.netback().IsVifConnected(guest_));
}

TEST_F(WatchdogTest, DeadShardIsDetectedAndResurrected) {
  const DomainId dom = platform_.shard_domain(ShardClass::kNetBack);
  platform_.hv().ReportCrash(dom);
  ASSERT_EQ(platform_.hv().domain(dom)->state(), DomainState::kDead);

  platform_.Settle(2 * kSecond);
  EXPECT_GE(wd().deaths_detected(), 1u);
  EXPECT_FALSE(platform_.hv().host_failed());
  EXPECT_EQ(platform_.hv().domain(dom)->state(), DomainState::kRunning);
  EXPECT_TRUE(platform_.netback().IsVifConnected(guest_));
}

TEST_F(WatchdogTest, RepeatedFailuresEscalateFastToSlow) {
  // First two detections in the window ride the fast (recovery-box) path.
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(wd().InjectHang("NetBack", 200 * kMillisecond).ok());
    platform_.Settle(kSecond);
    EXPECT_EQ(platform_.restarts().LastDowntime("NetBack"),
              kFastRestartDowntime);
  }
  // The third escalates to the slow full-renegotiation path.
  ASSERT_TRUE(wd().InjectHang("NetBack", 200 * kMillisecond).ok());
  platform_.Settle(kSecond);
  EXPECT_EQ(platform_.restarts().LastDowntime("NetBack"),
            kSlowRestartDowntime);
  EXPECT_EQ(wd().auto_restarts(), 3u);
  EXPECT_EQ(wd().quarantines(), 0u);
}

TEST_F(WatchdogTest, BudgetExhaustionQuarantinesInsteadOfStorming) {
  // Burn through the per-window budget (5 restarts in 10 s by default).
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(wd().InjectHang("NetBack", 200 * kMillisecond).ok());
    platform_.Settle(kSecond);
  }
  EXPECT_FALSE(wd().IsQuarantined("NetBack"));
  EXPECT_EQ(wd().auto_restarts(), 5u);

  // The sixth failure exceeds the budget: quarantine, not another restart.
  ASSERT_TRUE(wd().InjectHang("NetBack", 200 * kMillisecond).ok());
  platform_.Settle(kSecond);
  EXPECT_TRUE(wd().IsQuarantined("NetBack"));
  EXPECT_EQ(wd().quarantines(), 1u);
  EXPECT_EQ(wd().auto_restarts(), 5u);  // bounded: no restart storm
  // Degraded mode: the backend is suspended, so peers see a deterministic
  // outage rather than a half-alive shard.
  EXPECT_FALSE(platform_.netback().IsVifConnected(guest_));
  EXPECT_EQ(wd().InjectHang("NetBack", kMillisecond).code(),
            StatusCode::kFailedPrecondition);

  bool quarantine_audited = false;
  for (const auto& event : platform_.audit().events()) {
    if (event.kind == AuditEventKind::kShardQuarantined &&
        event.detail.find("NetBack") != std::string::npos) {
      quarantine_audited = true;
    }
  }
  EXPECT_TRUE(quarantine_audited);

  // Operator recovery: one slow restart, history cleared, supervision
  // re-armed.
  ASSERT_TRUE(wd().Unquarantine("NetBack").ok());
  platform_.Settle(kSecond);
  EXPECT_FALSE(wd().IsQuarantined("NetBack"));
  EXPECT_TRUE(platform_.netback().IsVifConnected(guest_));
  const auto snapshot = platform_.obs().metrics().Snapshot();
  const auto* quarantined =
      snapshot.FindGauge("NetBack.watchdog.quarantined");
  ASSERT_NE(quarantined, nullptr);
  EXPECT_EQ(quarantined->value, 0.0);
}

TEST_F(WatchdogTest, UnquarantineRequiresQuarantine) {
  EXPECT_EQ(wd().Unquarantine("NetBack").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(wd().Unquarantine("NoSuchShard").code(), StatusCode::kNotFound);
  EXPECT_EQ(wd().InjectHang("NoSuchShard", kMillisecond).code(),
            StatusCode::kNotFound);
}

TEST_F(WatchdogTest, WatchdogMetricsAreExported) {
  ASSERT_TRUE(wd().InjectHang("BlkBack", 200 * kMillisecond).ok());
  platform_.Settle(kSecond);

  const auto snapshot = platform_.obs().metrics().Snapshot();
  const auto* hangs = snapshot.FindCounter("BlkBack.watchdog.hangs");
  ASSERT_NE(hangs, nullptr);
  EXPECT_EQ(hangs->value, 1u);
  const auto* restarts = snapshot.FindCounter("BlkBack.watchdog.restarts");
  ASSERT_NE(restarts, nullptr);
  EXPECT_EQ(restarts->value, 1u);
  EXPECT_NE(snapshot.FindCounter("BlkBack.watchdog.beats"), nullptr);
  EXPECT_NE(snapshot.FindCounter("BlkBack.watchdog.deaths"), nullptr);
  const auto* quarantined =
      snapshot.FindGauge("BlkBack.watchdog.quarantined");
  ASSERT_NE(quarantined, nullptr);
  EXPECT_EQ(quarantined->value, 0.0);
}

TEST(WatchdogConfigTest, SupervisionCanBeDisabled) {
  XoarPlatform::Config config;
  config.supervision_enabled = false;
  XoarPlatform platform(config);
  ASSERT_TRUE(platform.Boot().ok());
  EXPECT_EQ(platform.watchdog(), nullptr);

  // Without supervision a crashed shard stays dead — the PR 3 behaviour.
  const DomainId dom = platform.shard_domain(ShardClass::kNetBack);
  platform.hv().ReportCrash(dom);
  platform.Settle(2 * kSecond);
  EXPECT_EQ(platform.hv().domain(dom)->state(), DomainState::kDead);
}

#if XOAR_COUNTS_ALLOCATIONS
// Heartbeats and deadline checks are most of a busy host's simulator
// events (DESIGN.md §5d), so supervising a component must cost no heap
// allocation per event: the callbacks hold their Entry, not a copy of the
// component's name.
TEST(WatchdogAllocationTest, BeatsAndDeadlinesAllocateNothing) {
  Simulator sim;
  Obs obs;
  Hypervisor hv(&sim, Hypervisor::Options{}, &obs);
  StatusOr<DomainId> dom =
      hv.CreateInitialDomain(DomainConfig{.name = "state"}, true);
  ASSERT_TRUE(dom.ok());
  SnapshotManager snapshots;
  RestartEngine engine(&hv, &sim, &snapshots, *dom, nullptr, &obs);
  // Longer than std::string's inline buffer, so any copy would allocate.
  const std::string name = "XenStore-State-1";
  ASSERT_TRUE(engine.Register(name, *dom, {}).ok());
  Watchdog watchdog(&sim, &hv, &engine, nullptr, &obs);
  ASSERT_TRUE(watchdog.Supervise(name).ok());
  sim.RunFor(200 * kMillisecond);  // warm-up: event slab and heap storage

  const std::uint64_t events_before = sim.EventsExecuted();
  g_allocations = 0;
  g_count_allocations = true;
  sim.RunFor(kSecond);
  g_count_allocations = false;
  EXPECT_EQ(g_allocations, 0u);
  // 100 beats (one per 10 ms) and 25 deadline checks (each re-armed for
  // 50 ms after the latest beat, so one per 40 ms); nothing failed.
  EXPECT_EQ(sim.EventsExecuted() - events_before, 125u);
  EXPECT_EQ(watchdog.auto_restarts(), 0u);
  EXPECT_FALSE(watchdog.IsQuarantined(name));
}
#endif

// Same seed, same plan, two independent worlds: the supervision loop must
// not disturb the simulator's replay guarantee. This is the unit-level
// version of the bench.fault_campaign byte-determinism bar.
TEST(WatchdogDeterminismTest, IdenticalSeededRunsProduceIdenticalMetrics) {
  auto run = []() -> std::string {
    XoarPlatform platform;
    EXPECT_TRUE(platform.Boot().ok());
    auto guest = platform.CreateGuest(GuestSpec{});
    EXPECT_TRUE(guest.ok());
    platform.Settle();

    FaultInjector injector(&platform);
    CampaignConfig config;
    config.seed = 21;
    config.fault_count = 6;
    config.crash_count = 1;
    config.hang_count = 2;
    config.box_corrupt_count = 1;
    config.start = platform.sim().Now();
    config.end = config.start + 2 * kSecond;
    injector.Arm(FaultPlan::Randomized(config));
    platform.Settle(3 * kSecond);

    // Every injected hang was either detected or absorbed by an
    // overlapping restart — none lost.
    Watchdog* watchdog = platform.watchdog();
    EXPECT_NE(watchdog, nullptr);
    EXPECT_EQ(watchdog->hangs_detected() + watchdog->hangs_absorbed(),
              injector.injected_count(FaultType::kShardHang));
    EXPECT_LE(watchdog->max_hang_detection_latency(),
              watchdog->config().heartbeat_timeout);
    return MetricRegistry::ToJson(
        platform.obs().metrics().Snapshot(platform.sim().Now()),
        "watchdog_test");
  };
  const std::string first = run();
  const std::string second = run();
  EXPECT_EQ(first, second);
  EXPECT_NE(first.find("watchdog"), std::string::npos);
}

}  // namespace
}  // namespace xoar
