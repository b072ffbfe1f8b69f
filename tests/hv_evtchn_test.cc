#include <gtest/gtest.h>

#include "src/hv/event_channel.h"
#include "src/sim/simulator.h"

namespace xoar {
namespace {

class EvtchnTest : public ::testing::Test {
 protected:
  Simulator sim_;
  EventChannelManager evtchn_{&sim_};
  DomainId a_{1};
  DomainId b_{2};
  DomainId c_{3};
};

TEST_F(EvtchnTest, AllocAndBindConnectsBothEnds) {
  auto unbound = evtchn_.AllocUnbound(a_, b_);
  ASSERT_TRUE(unbound.ok());
  auto bound = evtchn_.BindInterdomain(b_, a_, *unbound);
  ASSERT_TRUE(bound.ok());
  EXPECT_TRUE(evtchn_.IsConnected(a_, *unbound));
  EXPECT_TRUE(evtchn_.IsConnected(b_, *bound));
}

TEST_F(EvtchnTest, BindByWrongDomainDenied) {
  auto unbound = evtchn_.AllocUnbound(a_, b_);
  ASSERT_TRUE(unbound.ok());
  EXPECT_EQ(evtchn_.BindInterdomain(c_, a_, *unbound).status().code(),
            StatusCode::kPermissionDenied);
}

TEST_F(EvtchnTest, BindNonexistentPortFails) {
  EXPECT_EQ(evtchn_.BindInterdomain(b_, a_, EvtchnPort(99)).status().code(),
            StatusCode::kNotFound);
}

TEST_F(EvtchnTest, DoubleBindFails) {
  auto unbound = evtchn_.AllocUnbound(a_, b_);
  ASSERT_TRUE(evtchn_.BindInterdomain(b_, a_, *unbound).ok());
  EXPECT_EQ(evtchn_.BindInterdomain(b_, a_, *unbound).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(EvtchnTest, SendDeliversToPeerHandlerAsync) {
  auto unbound = evtchn_.AllocUnbound(a_, b_);
  auto bound = evtchn_.BindInterdomain(b_, a_, *unbound);
  int delivered = 0;
  ASSERT_TRUE(evtchn_.SetHandler(a_, *unbound, [&] { ++delivered; }).ok());
  ASSERT_TRUE(evtchn_.Send(b_, *bound).ok());
  EXPECT_EQ(delivered, 0);  // not synchronous
  sim_.Run();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(evtchn_.sends(), 1u);
  EXPECT_EQ(evtchn_.deliveries(), 1u);
}

TEST_F(EvtchnTest, SendOnUnboundFails) {
  auto unbound = evtchn_.AllocUnbound(a_, b_);
  EXPECT_EQ(evtchn_.Send(a_, *unbound).code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(EvtchnTest, CloseBreaksPeer) {
  auto unbound = evtchn_.AllocUnbound(a_, b_);
  auto bound = evtchn_.BindInterdomain(b_, a_, *unbound);
  ASSERT_TRUE(evtchn_.Close(a_, *unbound).ok());
  // The surviving end observes UNAVAILABLE — the signal frontends use to
  // begin renegotiation after a backend microreboot.
  EXPECT_EQ(evtchn_.Send(b_, *bound).code(), StatusCode::kUnavailable);
  EXPECT_FALSE(evtchn_.IsConnected(b_, *bound));
}

TEST_F(EvtchnTest, CloseAllBreaksEverything) {
  auto u1 = evtchn_.AllocUnbound(a_, b_);
  auto b1 = evtchn_.BindInterdomain(b_, a_, *u1);
  auto u2 = evtchn_.AllocUnbound(a_, c_);
  auto b2 = evtchn_.BindInterdomain(c_, a_, *u2);
  EXPECT_EQ(evtchn_.CloseAll(a_), 2);
  EXPECT_EQ(evtchn_.Send(b_, *b1).code(), StatusCode::kUnavailable);
  EXPECT_EQ(evtchn_.Send(c_, *b2).code(), StatusCode::kUnavailable);
}

TEST_F(EvtchnTest, DeliveryAfterCloseIsDropped) {
  auto unbound = evtchn_.AllocUnbound(a_, b_);
  auto bound = evtchn_.BindInterdomain(b_, a_, *unbound);
  int delivered = 0;
  ASSERT_TRUE(evtchn_.SetHandler(a_, *unbound, [&] { ++delivered; }).ok());
  ASSERT_TRUE(evtchn_.Send(b_, *bound).ok());
  ASSERT_TRUE(evtchn_.Close(a_, *unbound).ok());  // close before delivery
  sim_.Run();
  EXPECT_EQ(delivered, 0);
}

TEST_F(EvtchnTest, VirqBindAndRaise) {
  auto port = evtchn_.BindVirq(a_, Virq::kConsole);
  ASSERT_TRUE(port.ok());
  int raised = 0;
  ASSERT_TRUE(evtchn_.SetHandler(a_, *port, [&] { ++raised; }).ok());
  ASSERT_TRUE(evtchn_.RaiseVirq(a_, Virq::kConsole).ok());
  sim_.Run();
  EXPECT_EQ(raised, 1);
}

TEST_F(EvtchnTest, DoubleVirqBindFails) {
  ASSERT_TRUE(evtchn_.BindVirq(a_, Virq::kConsole).ok());
  EXPECT_EQ(evtchn_.BindVirq(a_, Virq::kConsole).status().code(),
            StatusCode::kAlreadyExists);
  EXPECT_TRUE(evtchn_.BindVirq(a_, Virq::kTimer).ok());  // different virq ok
}

TEST_F(EvtchnTest, RaiseUnboundVirqFails) {
  EXPECT_EQ(evtchn_.RaiseVirq(a_, Virq::kDebug).code(), StatusCode::kNotFound);
}

TEST_F(EvtchnTest, PortsAreDistinctPerDomain) {
  auto p1 = evtchn_.AllocUnbound(a_, b_);
  auto p2 = evtchn_.AllocUnbound(a_, b_);
  ASSERT_TRUE(p1.ok());
  ASSERT_TRUE(p2.ok());
  EXPECT_NE(p1->value(), p2->value());
}

TEST_F(EvtchnTest, PortsAreNotReusedAfterClose) {
  auto p0 = evtchn_.AllocUnbound(a_, b_);
  auto p1 = evtchn_.AllocUnbound(a_, b_);
  ASSERT_TRUE(evtchn_.Close(a_, *p1).ok());
  EXPECT_EQ(evtchn_.Close(a_, *p1).code(), StatusCode::kNotFound);
  auto p2 = evtchn_.AllocUnbound(a_, b_);
  EXPECT_EQ(p0->value(), 0u);
  EXPECT_EQ(p2->value(), 2u);
  EXPECT_EQ(evtchn_.CloseAll(a_), 2);
  EXPECT_EQ(evtchn_.CloseAll(a_), 0);
  EXPECT_EQ(evtchn_.AllocUnbound(a_, b_)->value(), 3u);
  // Another domain's ports count from zero.
  EXPECT_EQ(evtchn_.AllocUnbound(b_, a_)->value(), 0u);
}

TEST_F(EvtchnTest, VirqRebindsAfterItsPortCloses) {
  auto first = evtchn_.BindVirq(a_, Virq::kTimer);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(evtchn_.Close(a_, *first).ok());
  EXPECT_EQ(evtchn_.RaiseVirq(a_, Virq::kTimer).code(), StatusCode::kNotFound);
  auto second = evtchn_.BindVirq(a_, Virq::kTimer);
  ASSERT_TRUE(second.ok());
  EXPECT_NE(second->value(), first->value());
  evtchn_.CloseAll(a_);
  auto third = evtchn_.BindVirq(a_, Virq::kTimer);
  ASSERT_TRUE(third.ok());
  int raised = 0;
  ASSERT_TRUE(evtchn_.SetHandler(a_, *third, [&] { ++raised; }).ok());
  ASSERT_TRUE(evtchn_.RaiseVirq(a_, Virq::kTimer).ok());
  sim_.Run();
  EXPECT_EQ(raised, 1);
}

TEST_F(EvtchnTest, InvalidOrUnknownDomainsNeverGrowThePortTable) {
  auto unbound = evtchn_.AllocUnbound(a_, b_);
  ASSERT_TRUE(unbound.ok());
  const std::size_t size = evtchn_.port_table_domains();
  EXPECT_EQ(size, a_.value() + 1);
  const DomainId unknown{1000};
  for (DomainId dom : {DomainId::Invalid(), unknown}) {
    EXPECT_EQ(evtchn_.Send(dom, EvtchnPort(0)).code(), StatusCode::kNotFound);
    EXPECT_EQ(evtchn_.SetHandler(dom, EvtchnPort(0), [] {}).code(),
              StatusCode::kNotFound);
    EXPECT_EQ(evtchn_.Close(dom, EvtchnPort(0)).code(), StatusCode::kNotFound);
    EXPECT_EQ(evtchn_.RaiseVirq(dom, Virq::kTimer).code(),
              StatusCode::kNotFound);
    EXPECT_FALSE(evtchn_.IsConnected(dom, EvtchnPort(0)));
    EXPECT_EQ(evtchn_.CloseAll(dom), 0);
    EXPECT_EQ(evtchn_.BindInterdomain(a_, dom, EvtchnPort(0)).status().code(),
              StatusCode::kNotFound);
  }
  EXPECT_EQ(evtchn_.BindVirq(DomainId::Invalid(), Virq::kTimer)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(evtchn_.AllocUnbound(DomainId::Invalid(), b_).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(evtchn_.BindInterdomain(DomainId::Invalid(), a_, *unbound)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(evtchn_.BindVirq(a_, Virq::kCount).status().code(),
            StatusCode::kInvalidArgument);
  // An out-of-range port on a known domain is just as unknown.
  EXPECT_EQ(evtchn_.Send(a_, EvtchnPort(99)).code(), StatusCode::kNotFound);
  EXPECT_EQ(evtchn_.port_table_domains(), size);
}

TEST_F(EvtchnTest, HandlerMayBindPortsOnItsOwnDomain) {
  // The upcall grows its own domain's port array while it runs. The closure
  // is one pointer, small enough to live inside std::function, so it would
  // move with the array if handlers were stored inline; the sanitized build
  // turns that into a use-after-free report.
  struct Context {
    EventChannelManager* evtchn;
    DomainId self;
    DomainId peer;
    int delivered = 0;
  } context{&evtchn_, a_, b_};
  auto unbound = evtchn_.AllocUnbound(a_, b_);
  auto bound = evtchn_.BindInterdomain(b_, a_, *unbound);
  ASSERT_TRUE(evtchn_
                  .SetHandler(a_, *unbound,
                              [ctx = &context] {
                                for (int i = 0; i < 64; ++i) {
                                  (void)ctx->evtchn->AllocUnbound(ctx->self,
                                                                  ctx->peer);
                                }
                                ++ctx->delivered;
                              })
                  .ok());
  ASSERT_TRUE(evtchn_.Send(b_, *bound).ok());
  sim_.Run();
  EXPECT_EQ(context.delivered, 1);
  EXPECT_EQ(evtchn_.AllocUnbound(a_, b_)->value(), 65u);
  ASSERT_TRUE(evtchn_.Send(b_, *bound).ok());
  sim_.Run();
  EXPECT_EQ(context.delivered, 2);
}

TEST_F(EvtchnTest, HandlerIsCopiedBeforeAsyncDelivery) {
  // A VIRQ raised and then unbound (via CloseAll) must not crash delivery.
  auto port = evtchn_.BindVirq(a_, Virq::kTimer);
  int raised = 0;
  ASSERT_TRUE(evtchn_.SetHandler(a_, *port, [&] { ++raised; }).ok());
  ASSERT_TRUE(evtchn_.RaiseVirq(a_, Virq::kTimer).ok());
  evtchn_.CloseAll(a_);
  sim_.Run();  // must not crash; delivery may or may not land
  SUCCEED();
}

}  // namespace
}  // namespace xoar
