#include <gtest/gtest.h>

#include "src/core/xoar_platform.h"
#include "src/ctl/monolithic_platform.h"

namespace xoar {
namespace {

class StockDriverTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(platform_.Boot().ok());
    auto guest = platform_.CreateGuest(GuestSpec{});
    ASSERT_TRUE(guest.ok());
    guest_ = *guest;
  }

  MonolithicPlatform platform_;
  DomainId guest_;
};

class XoarDriverTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(platform_.Boot().ok());
    auto guest = platform_.CreateGuest(GuestSpec{});
    ASSERT_TRUE(guest.ok());
    guest_ = *guest;
  }

  XoarPlatform platform_;
  DomainId guest_;
};

// --- Block path ---

TEST_F(StockDriverTest, BlkHandshakeCompletes) {
  BlkFront* blk = platform_.blkfront(guest_);
  ASSERT_NE(blk, nullptr);
  EXPECT_TRUE(blk->connected());
  EXPECT_TRUE(platform_.blkback_of(guest_)->IsVbdConnected(guest_));
}

TEST_F(StockDriverTest, BlkIoRoundTrip) {
  BlkFront* blk = platform_.blkfront(guest_);
  int completions = 0;
  Status last = InternalError("never");
  blk->WriteBytes(0, 64 * kKiB, [&](Status s) {
    ++completions;
    last = s;
  });
  platform_.Settle();
  EXPECT_EQ(completions, 1);
  EXPECT_TRUE(last.ok());
  EXPECT_GT(platform_.blkback_of(guest_)->requests_served(), 0u);
  EXPECT_GT(platform_.disk().bytes_written(), 0u);
}

TEST_F(StockDriverTest, BlkReadAfterWrite) {
  BlkFront* blk = platform_.blkfront(guest_);
  bool read_done = false;
  blk->WriteBytes(4096, 16 * kKiB, [&](Status s) {
    ASSERT_TRUE(s.ok());
    blk->ReadBytes(4096, 16 * kKiB, [&](Status s2) {
      ASSERT_TRUE(s2.ok());
      read_done = true;
    });
  });
  platform_.Settle();
  EXPECT_TRUE(read_done);
  EXPECT_GT(platform_.disk().bytes_read(), 0u);
}

TEST_F(StockDriverTest, BlkOutOfRangeIoFails) {
  BlkFront* blk = platform_.blkfront(guest_);
  Status result = Status::Ok();
  // The guest's VBD is 15 GiB; address far beyond it.
  blk->WriteBytes(40ull * kGiB, 4096, [&](Status s) { result = s; });
  platform_.Settle();
  EXPECT_FALSE(result.ok());
  // The backend caught it before touching the disk for that request.
}

TEST_F(StockDriverTest, BlkQueueDeeperThanRingDrains) {
  BlkFront* blk = platform_.blkfront(guest_);
  int completions = 0;
  // 128 small IOs: 4x the ring capacity.
  for (int i = 0; i < 128; ++i) {
    blk->WriteBytes(static_cast<std::uint64_t>(i) * 8192, 4096,
                    [&](Status s) {
                      ASSERT_TRUE(s.ok());
                      ++completions;
                    });
  }
  platform_.Settle(2 * kSecond);
  EXPECT_EQ(completions, 128);
  EXPECT_EQ(blk->outstanding_ios(), 0u);
}

TEST_F(StockDriverTest, TwoGuestsIsolatedVbds) {
  auto guest2 = platform_.CreateGuest(GuestSpec{.name = "guest2"});
  ASSERT_TRUE(guest2.ok());
  BlkFront* blk1 = platform_.blkfront(guest_);
  BlkFront* blk2 = platform_.blkfront(*guest2);
  ASSERT_NE(blk2, nullptr);
  EXPECT_TRUE(blk2->connected());
  int done = 0;
  blk1->WriteBytes(0, 4096, [&](Status) { ++done; });
  blk2->WriteBytes(0, 4096, [&](Status) { ++done; });
  platform_.Settle();
  EXPECT_EQ(done, 2);
}

// --- Network path ---

TEST_F(StockDriverTest, NetHandshakeCompletes) {
  NetFront* net = platform_.netfront(guest_);
  ASSERT_NE(net, nullptr);
  EXPECT_TRUE(net->connected());
  EXPECT_TRUE(platform_.netback_of(guest_)->IsVifConnected(guest_));
}

TEST_F(StockDriverTest, NetTxReachesTheWire) {
  NetFront* net = platform_.netfront(guest_);
  int sent = 0;
  for (int i = 0; i < 10; ++i) {
    net->SendFrame(1500, [&](Status s) {
      ASSERT_TRUE(s.ok());
      ++sent;
    });
  }
  platform_.Settle();
  EXPECT_EQ(sent, 10);
  EXPECT_EQ(platform_.nic().tx_frames(), 10u);
  EXPECT_EQ(platform_.nic().tx_bytes(), 15'000u);
}

TEST_F(StockDriverTest, NetRxDeliveredToGuest) {
  NetFront* net = platform_.netfront(guest_);
  std::uint64_t received_bytes = 0;
  net->set_rx_handler([&](std::uint32_t bytes) { received_bytes += bytes; });
  EXPECT_TRUE(platform_.netback_of(guest_)->InjectRx(guest_, 1500));
  EXPECT_TRUE(platform_.netback_of(guest_)->InjectRx(guest_, 900));
  platform_.Settle();
  EXPECT_EQ(received_bytes, 2400u);
  EXPECT_EQ(net->rx_frames(), 2u);
}

TEST_F(StockDriverTest, RxToUnknownGuestDropped) {
  EXPECT_FALSE(platform_.netback_of(guest_)->InjectRx(DomainId(999), 1500));
  EXPECT_GT(platform_.netback_of(guest_)->frames_dropped(), 0u);
}

// --- Xoar: driver domains, suspension, renegotiation ---

TEST_F(XoarDriverTest, DriverDomainsAreSeparateShards) {
  EXPECT_NE(platform_.netback().self(), platform_.blkback().self());
  EXPECT_TRUE(platform_.hv().domain(platform_.netback().self())->is_shard());
  EXPECT_TRUE(platform_.hv().domain(platform_.blkback().self())->is_shard());
}

TEST_F(XoarDriverTest, SuspendBreaksPathResumeReconnects) {
  NetBack& netback = platform_.netback();
  ASSERT_TRUE(netback.IsVifConnected(guest_));
  netback.Suspend();
  EXPECT_FALSE(netback.IsVifConnected(guest_));
  EXPECT_FALSE(netback.InjectRx(guest_, 1500));  // frames dropped
  netback.Resume();
  platform_.Settle();
  // Frontend renegotiated via XenStore.
  EXPECT_TRUE(netback.IsVifConnected(guest_));
  EXPECT_TRUE(platform_.netfront(guest_)->connected());
}

TEST_F(XoarDriverTest, FramesQueuedDuringOutageAreRetransmitted) {
  NetBack& netback = platform_.netback();
  NetFront* net = platform_.netfront(guest_);
  netback.Suspend();
  platform_.Settle(50 * kMillisecond);
  int sent = 0;
  for (int i = 0; i < 5; ++i) {
    net->SendFrame(1500, [&](Status s) {
      if (s.ok()) {
        ++sent;
      }
    });
  }
  platform_.Settle(50 * kMillisecond);
  EXPECT_EQ(sent, 0);  // path down
  netback.Resume();
  platform_.Settle();
  EXPECT_EQ(sent, 5);  // flushed after reconnect
}

TEST_F(XoarDriverTest, OutstandingBlkIoRetransmittedAcrossRestart) {
  BlkBack& blkback = platform_.blkback();
  BlkFront* blk = platform_.blkfront(guest_);
  int completions = 0;
  for (int i = 0; i < 16; ++i) {
    blk->WriteBytes(static_cast<std::uint64_t>(i) * kMiB, 256 * kKiB,
                    [&](Status s) {
                      if (s.ok()) {
                        ++completions;
                      }
                    });
  }
  // Interrupt the backend while requests are in flight.
  blkback.Suspend();
  platform_.Settle(100 * kMillisecond);
  blkback.Resume();
  platform_.Settle(2 * kSecond);
  EXPECT_EQ(completions, 16);
  EXPECT_GT(blk->retransmitted_ios(), 0u);
}

TEST_F(XoarDriverTest, RepeatedRestartCyclesStayHealthy) {
  NetBack& netback = platform_.netback();
  for (int cycle = 0; cycle < 5; ++cycle) {
    netback.Suspend();
    platform_.Settle(20 * kMillisecond);
    netback.Resume();
    platform_.Settle();
    ASSERT_TRUE(netback.IsVifConnected(guest_)) << "cycle " << cycle;
  }
  // Data still flows after five reconnect generations.
  std::uint64_t received = 0;
  platform_.netfront(guest_)->set_rx_handler(
      [&](std::uint32_t bytes) { received += bytes; });
  EXPECT_TRUE(netback.InjectRx(guest_, 1000));
  platform_.Settle();
  EXPECT_EQ(received, 1000u);
}

// --- Detach with work in flight; lookups of unknown domids ---
//
// The backends find a guest's vif/VBD by domid on every drain and device
// completion. A detach while one is queued must leave it a no-op that
// pushes no response, and a lookup of a domid with no entry must not grow
// the domid-indexed tables.

TEST_F(XoarDriverTest, VifDetachedWithTxDrainInFlightPushesNothing) {
  platform_.Settle();
  NetBack& netback = platform_.netback();
  NetFront* net = platform_.netfront(guest_);
  const std::uint64_t forwarded = netback.frames_forwarded();
  const std::uint64_t on_wire = netback.nic()->tx_frames();
  int done = 0;
  net->SendFrame(1500, [&](Status) { ++done; });
  // The kick is delivered; its drain is still queued behind the per-frame
  // overhead.
  platform_.sim().RunFor(kEventDeliveryLatency);
  ASSERT_EQ(netback.frames_forwarded(), forwarded);
  ASSERT_TRUE(netback.DetachVif(guest_).ok());
  platform_.sim().RunFor(kMillisecond);
  EXPECT_EQ(netback.frames_forwarded(), forwarded);
  EXPECT_EQ(netback.nic()->tx_frames(), on_wire);
  EXPECT_EQ(net->tx_completed(), 0u);
  EXPECT_EQ(done, 0);
}

TEST_F(XoarDriverTest, VifDetachedWithNicCompletionInFlightPushesNothing) {
  platform_.Settle();
  NetBack& netback = platform_.netback();
  NetFront* net = platform_.netfront(guest_);
  const std::uint64_t forwarded = netback.frames_forwarded();
  int done = 0;
  net->SendFrame(1500, [&](Status) { ++done; });
  // The drain has handed the frame to the NIC; its wire time has not
  // elapsed.
  platform_.sim().RunFor(kEventDeliveryLatency + kNetBackPerFrameOverhead);
  ASSERT_EQ(netback.frames_forwarded(), forwarded + 1);
  ASSERT_EQ(net->tx_completed(), 0u);
  ASSERT_TRUE(netback.DetachVif(guest_).ok());
  platform_.sim().RunFor(kMillisecond);
  EXPECT_EQ(net->tx_completed(), 0u);
  EXPECT_EQ(done, 0);
}

TEST_F(XoarDriverTest, VbdDetachedWithDrainInFlightPushesNothing) {
  platform_.Settle();
  BlkBack& blkback = platform_.blkback();
  BlkFront* blk = platform_.blkfront(guest_);
  const std::uint64_t served = blkback.requests_served();
  int done = 0;
  blk->WriteBytes(0, 4 * kKiB, [&](Status) { ++done; });
  platform_.sim().RunFor(kEventDeliveryLatency);
  ASSERT_EQ(blkback.requests_served(), served);
  ASSERT_TRUE(blkback.DetachVbd(guest_).ok());
  platform_.sim().RunFor(100 * kMillisecond);
  EXPECT_EQ(blkback.requests_served(), served);
  EXPECT_EQ(blk->completed_ios(), 0u);
  EXPECT_EQ(done, 0);
}

TEST_F(XoarDriverTest, VbdDetachedWithDiskCompletionInFlightPushesNothing) {
  platform_.Settle();
  BlkBack& blkback = platform_.blkback();
  BlkFront* blk = platform_.blkfront(guest_);
  const std::uint64_t served = blkback.requests_served();
  int done = 0;
  blk->WriteBytes(0, 4 * kKiB, [&](Status) { ++done; });
  // The drain has submitted the request to the disk; its service time has
  // not elapsed.
  platform_.sim().RunFor(kEventDeliveryLatency + kBlkBackPerOpOverhead);
  ASSERT_EQ(blkback.requests_served(), served + 1);
  ASSERT_EQ(blk->completed_ios(), 0u);
  ASSERT_TRUE(blkback.DetachVbd(guest_).ok());
  platform_.sim().RunFor(100 * kMillisecond);
  EXPECT_EQ(blk->completed_ios(), 0u);
  EXPECT_EQ(done, 0);
}

TEST_F(XoarDriverTest, UnknownDomidLookupsNeverGrowTheBackendTables) {
  NetBack& netback = platform_.netback();
  BlkBack& blkback = platform_.blkback();
  const std::size_t vif_slots = netback.vif_table_slots();
  const std::size_t vbd_slots = blkback.vbd_table_slots();
  ASSERT_GT(vif_slots, guest_.value());
  ASSERT_GT(vbd_slots, guest_.value());
  for (const DomainId unknown :
       {DomainId(0), DomainId(guest_.value() + 1),
        DomainId(guest_.value() + 100000), DomainId(1u << 31),
        DomainId::Invalid()}) {
    SCOPED_TRACE(unknown.value());
    EXPECT_FALSE(netback.InjectRx(unknown, 1500));
    EXPECT_FALSE(netback.IsVifConnected(unknown));
    EXPECT_FALSE(blkback.IsVbdConnected(unknown));
    EXPECT_EQ(netback.DetachVif(unknown).code(), StatusCode::kNotFound);
    EXPECT_EQ(blkback.DetachVbd(unknown).code(), StatusCode::kNotFound);
  }
  EXPECT_EQ(netback.vif_table_slots(), vif_slots);
  EXPECT_EQ(blkback.vbd_table_slots(), vbd_slots);
  // The guest's own entries are still there.
  EXPECT_TRUE(netback.IsVifConnected(guest_));
  EXPECT_TRUE(blkback.IsVbdConnected(guest_));
}

}  // namespace
}  // namespace xoar
