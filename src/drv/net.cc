#include "src/drv/net.h"

#include <utility>
#include <vector>

#include "src/base/log.h"
#include "src/base/strings.h"
#include "src/drv/xenbus.h"

namespace xoar {

// --- NetBack -----------------------------------------------------------------

NetBack::NetBack(Hypervisor* hv, XenStoreService* xs, Simulator* sim,
                 DomainId self, NicDevice* nic, Obs* obs)
    : hv_(hv),
      xs_(xs),
      sim_(sim),
      self_(self),
      nic_(nic),
      obs_(Obs::OrGlobal(obs)),
      m_tx_frames_(obs_->metrics().GetCounter("NetBack.ring.tx_frames")),
      m_rx_frames_(obs_->metrics().GetCounter("NetBack.ring.rx_frames")),
      m_dropped_(obs_->metrics().GetCounter("NetBack.ring.dropped")),
      m_vif_connects_(obs_->metrics().GetCounter("NetBack.vif.connects")) {}

Status NetBack::Initialize() {
  XOAR_RETURN_IF_ERROR(xs_->Mkdir(self_, BackendRoot(self_, kVifType)));
  available_ = true;
  obs_->tracer().Op(TraceCategory::kDriver, "netback_init", self_.value());
  return Status::Ok();
}

Status NetBack::AttachVif(DomainId guest) {
  if (vifs_.Contains(guest)) {
    return AlreadyExistsError(
        StrFormat("dom%u already has a vif on this backend", guest.value()));
  }
  vifs_.Insert(guest, std::make_unique<Vif>()).guest = guest;

  const std::string back_dir = BackendDir(self_, guest, kVifType);
  XOAR_RETURN_IF_ERROR(xs_->Write(self_, back_dir + "/frontend-id",
                                  StrFormat("%u", guest.value())));
  XOAR_RETURN_IF_ERROR(
      xs_->Write(self_, back_dir + "/state",
                 XenbusStateString(XenbusState::kInitWait)));
  XsNodePerms perms;
  perms.owner = self_;
  perms.acl[guest] = XsPerm::kRead;
  XOAR_RETURN_IF_ERROR(xs_->SetPerms(self_, back_dir + "/state", perms));

  const std::string front_state = FrontendDir(guest, kVifType) + "/state";
  return xs_->Watch(self_, front_state,
                    StrFormat("netback-%u", guest.value()),
                    [this, guest](const XsWatchEvent&) {
                      OnFrontendStateChange(guest);
                    });
}

void NetBack::OnFrontendStateChange(DomainId guest) {
  Vif* vif = vifs_.Find(guest);
  if (vif == nullptr || !available_) {
    return;
  }
  StatusOr<std::string> state =
      xs_->Read(self_, FrontendDir(guest, kVifType) + "/state");
  if (!state.ok()) {
    // The watch already fired; if XenStore was only transiently unreadable,
    // nothing else re-triggers this handshake. Retry on the backoff ladder.
    if (state.status().code() == StatusCode::kUnavailable) {
      ScheduleConnectRetry(guest);
    }
    return;
  }
  if (XenbusStateFromString(*state) == XenbusState::kInitialised &&
      !vif->connected) {
    const Status status = ConnectVif(*vif);
    if (status.ok()) {
      vif->connect_backoff.Reset();
    } else if (status.code() == StatusCode::kUnavailable) {
      ScheduleConnectRetry(guest);
    } else {
      XLOG(kWarning) << "[netback] vif connect for dom" << guest.value()
                     << " failed permanently: " << status;
    }
  }
}

Status NetBack::ConnectVif(Vif& vif) {
  const std::string front_dir = FrontendDir(vif.guest, kVifType);
  XOAR_ASSIGN_OR_RETURN(std::string tx_gref,
                        xs_->Read(self_, front_dir + "/tx-ring-ref"));
  XOAR_ASSIGN_OR_RETURN(std::string rx_gref,
                        xs_->Read(self_, front_dir + "/rx-ring-ref"));
  XOAR_ASSIGN_OR_RETURN(std::string port_str,
                        xs_->Read(self_, front_dir + "/event-channel"));
  const GrantRef tx(static_cast<std::uint32_t>(std::stoul(tx_gref)));
  const GrantRef rx(static_cast<std::uint32_t>(std::stoul(rx_gref)));
  const EvtchnPort front_port(
      static_cast<std::uint32_t>(std::stoul(port_str)));

  XOAR_ASSIGN_OR_RETURN(MappedPage tx_page,
                        hv_->MapGrant(self_, vif.guest, tx));
  XOAR_ASSIGN_OR_RETURN(MappedPage rx_page,
                        hv_->MapGrant(self_, vif.guest, rx));
  XOAR_ASSIGN_OR_RETURN(EvtchnPort port,
                        hv_->EvtchnBindInterdomain(self_, vif.guest,
                                                   front_port));
  vif.tx_gref = tx;
  vif.rx_gref = rx;
  vif.tx_ring = tx_page.data;
  vif.rx_ring = rx_page.data;
  vif.port = port;
  vif.connected = true;
  const DomainId guest = vif.guest;
  (void)hv_->EvtchnSetHandler(self_, vif.port,
                              [this, guest] { ServiceTxRing(guest); });
  XOAR_RETURN_IF_ERROR(
      xs_->Write(self_, BackendDir(self_, guest, kVifType) + "/state",
                 XenbusStateString(XenbusState::kConnected)));
  m_vif_connects_->Increment();
  obs_->tracer().Op(TraceCategory::kDriver, "netback_vif_connect",
                    self_.value());
  XLOG(kDebug) << "[netback] vif connected for dom" << guest.value();
  ServiceTxRing(guest);
  return Status::Ok();
}

void NetBack::ScheduleConnectRetry(DomainId guest) {
  Vif* vif = vifs_.Find(guest);
  if (vif == nullptr || vif->retry_pending) {
    return;
  }
  vif->retry_pending = true;
  const SimDuration delay = vif->connect_backoff.NextDelay();
  if (vif->connect_backoff.Exhausted()) {
    XLOG(kWarning) << "[netback] dom" << guest.value()
                   << " connect retries exhausted; continuing at max delay";
  }
  sim_->ScheduleAfter(delay, [this, guest] {
    Vif* retry = vifs_.Find(guest);
    if (retry == nullptr) {
      return;
    }
    retry->retry_pending = false;
    if (!available_ || retry->connected) {
      return;
    }
    OnFrontendStateChange(guest);
  });
}

void NetBack::DisconnectVif(Vif& vif) {
  if (!vif.connected) {
    return;
  }
  vif.connected = false;
  (void)hv_->UnmapGrant(self_, vif.guest, vif.tx_gref);
  (void)hv_->UnmapGrant(self_, vif.guest, vif.rx_gref);
  (void)hv_->EvtchnClose(self_, vif.port);
  vif.tx_ring = nullptr;
  vif.rx_ring = nullptr;
}

Status NetBack::DetachVif(DomainId guest) {
  Vif* vif = vifs_.Find(guest);
  if (vif == nullptr) {
    return NotFoundError(
        StrFormat("dom%u has no vif on this backend", guest.value()));
  }
  DisconnectVif(*vif);
  (void)xs_->Unwatch(self_, FrontendDir(guest, kVifType) + "/state",
                     StrFormat("netback-%u", guest.value()));
  vifs_.Erase(guest);
  return Status::Ok();
}

void NetBack::ServiceTxRing(DomainId guest) {
  Vif* vif = vifs_.Find(guest);
  if (vif == nullptr || !vif->connected || !available_ ||
      vif->drain_scheduled) {
    return;
  }
  // One drain event per kick (demux overhead charged once per batch), not
  // one simulator event per frame; see BlkBack::ServiceRing.
  vif->drain_scheduled = true;
  const SimDuration overhead = static_cast<SimDuration>(
      static_cast<double>(kNetBackPerFrameOverhead) /
      std::max(0.05, rate_multiplier_));
  sim_->ScheduleAfter(overhead, [this, guest] { DrainTxRing(guest); });
}

void NetBack::DrainTxRing(DomainId guest) {
  Vif* vif = vifs_.Find(guest);
  if (vif == nullptr) {
    return;
  }
  vif->drain_scheduled = false;
  if (!vif->connected || !available_) {
    return;  // vif torn down while the drain was in flight
  }
  NetRing ring = NetRing::Attach(vif->tx_ring);
  std::uint32_t budget = kNetBackDrainBudget;
  while (budget > 0) {
    auto req = ring.PopRequest();
    if (!req) {
      break;
    }
    --budget;
    const NetRingRequest request = *req;
    if (tx_fault_hook_ && tx_fault_hook_(guest, request)) {
      // Injected drop: the frame vanishes with no response, exactly like a
      // frame lost mid-reboot. The frontend's deadline handles it.
      ++frames_dropped_;
      m_dropped_->Increment();
      continue;
    }
    ++frames_forwarded_;
    m_tx_frames_->Increment();
    // The NIC serializes frames at link rate internally, so submitting the
    // whole batch at drain time preserves each frame's wire time.
    nic_->Transmit(request.bytes, [this, guest, request] {
      const Vif* v = vifs_.Find(guest);
      if (v == nullptr || !v->connected || !available_) {
        return;  // frame lost mid-reboot; the guest's TCP retransmits
      }
      NetRing r = NetRing::Attach(v->tx_ring);
      if (r.PushResponse(NetRingResponse{request.id, 0})) {
        (void)hv_->EvtchnSend(self_, v->port);
      }
    });
  }
  // Final re-check: frames pushed while we drained, or left by the budget,
  // get their own drain event (RING_FINAL_CHECK_FOR_REQUESTS idiom).
  if (ring.PendingRequests() > 0) {
    ServiceTxRing(guest);
  }
}

bool NetBack::InjectRx(DomainId guest, std::uint32_t bytes) {
  const Vif* vif = vifs_.Find(guest);
  if (vif == nullptr || !vif->connected || !available_ ||
      !nic_->link_up()) {
    ++frames_dropped_;
    m_dropped_->Increment();
    return false;
  }
  // Role-swapped ring: the backend produces rx "requests" the frontend
  // consumes.
  NetRing ring = NetRing::Attach(vif->rx_ring);
  if (!ring.PushRequest(NetRingRequest{0, bytes})) {
    ++frames_dropped_;  // frontend rx ring overrun
    m_dropped_->Increment();
    return false;
  }
  ++frames_forwarded_;
  m_rx_frames_->Increment();
  (void)hv_->EvtchnSend(self_, vif->port);
  return true;
}

void NetBack::Suspend() {
  obs_->tracer().Op(TraceCategory::kDriver, "netback_suspend", self_.value());
  available_ = false;
  nic_->clear_rx_handler();
  vifs_.ForEach([this](DomainId guest, Vif& vif) {
    DisconnectVif(vif);
    (void)xs_->Write(self_, BackendDir(self_, guest, kVifType) + "/state",
                     XenbusStateString(XenbusState::kClosing));
  });
}

void NetBack::Resume() {
  obs_->tracer().Op(TraceCategory::kDriver, "netback_resume", self_.value());
  available_ = true;
  // Re-advertise; frontends watching our state renegotiate from scratch.
  // This write is the only "backend is back" signal frontends receive, so
  // if XenStore is itself down it MUST be retried — unbounded, at capped
  // delay (RESILIENCE.md).
  bool transient_failure = false;
  vifs_.ForEach([this, &transient_failure](DomainId guest, const Vif&) {
    const Status status =
        xs_->Write(self_, BackendDir(self_, guest, kVifType) + "/state",
                   XenbusStateString(XenbusState::kInitWait));
    if (!status.ok() && status.code() == StatusCode::kUnavailable) {
      transient_failure = true;
    }
  });
  if (!transient_failure) {
    resume_backoff_.Reset();
    return;
  }
  if (resume_retry_pending_) {
    return;
  }
  resume_retry_pending_ = true;
  sim_->ScheduleAfter(resume_backoff_.NextDelay(), [this] {
    resume_retry_pending_ = false;
    if (available_) {
      Resume();
    }
  });
}

bool NetBack::IsVifConnected(DomainId guest) const {
  // The hosting domain must actually be running: a crashed or rebooting
  // driver domain serves nothing, whatever the object state says.
  const Domain* self = hv_->domain(self_);
  if (self == nullptr || self->state() != DomainState::kRunning) {
    return false;
  }
  const Vif* vif = vifs_.Find(guest);
  return vif != nullptr && vif->connected && available_;
}

// --- NetFront ----------------------------------------------------------------

NetFront::NetFront(Hypervisor* hv, XenStoreService* xs, Simulator* sim,
                   DomainId self, DomainId backend)
    : hv_(hv),
      xs_(xs),
      sim_(sim),
      self_(self),
      backend_(backend),
      m_retry_attempts_(
          hv->obs()->metrics().GetCounter("NetFront.retry.attempts")),
      m_retry_recovered_(
          hv->obs()->metrics().GetCounter("NetFront.retry.recovered")),
      m_retry_exhausted_(
          hv->obs()->metrics().GetCounter("NetFront.retry.exhausted")),
      m_backoff_ms_(hv->obs()->metrics().GetHistogram(
          "NetFront.retry.backoff_ms",
          Histogram::ExponentialBounds(1.0, 2.0, 10))) {
  xs_backoff_ = ExponentialBackoff(retry_.backoff);
}

NetFront::~NetFront() {
  // The guest died; late timers and watch deliveries must no-op.
  *alive_ = false;
  for (auto& [id, frame] : tx_outstanding_) {
    if (frame.timeout_event.valid()) {
      (void)sim_->Cancel(frame.timeout_event);
    }
  }
}

void NetFront::set_retry_config(const RetryConfig& config) {
  retry_ = config;
  xs_backoff_ = ExponentialBackoff(retry_.backoff);
}

Status NetFront::Connect() {
  if (handshake_started_) {
    return AlreadyExistsError("frontend handshake already started");
  }
  handshake_started_ = true;
  XOAR_ASSIGN_OR_RETURN(tx_pfn_, hv_->memory().AllocatePages(self_, 1));
  XOAR_ASSIGN_OR_RETURN(rx_pfn_, hv_->memory().AllocatePages(self_, 1));
  tx_page_ = hv_->memory().PageData(tx_pfn_);
  rx_page_ = hv_->memory().PageData(rx_pfn_);
  Republish();
  const std::string back_state =
      BackendDir(backend_, self_, kVifType) + "/state";
  return xs_->Watch(self_, back_state, "netfront",
                    [this, alive = alive_](const XsWatchEvent&) {
                      if (*alive) {
                        OnBackendStateChange();
                      }
                    });
}

void NetFront::Republish() {
  const Status status = DoRepublish();
  if (status.ok()) {
    xs_backoff_.Reset();
    return;
  }
  if (status.code() == StatusCode::kUnavailable) {
    // Transient outage mid-handshake; nothing re-fires this publish, so
    // retry it ourselves.
    ScheduleXsRetry(/*republish=*/true);
    return;
  }
  XLOG(kWarning) << "[netfront] republish failed permanently: " << status;
}

Status NetFront::DoRepublish() {
  if (tx_gref_.valid()) {
    (void)hv_->EndGrantAccess(self_, tx_gref_);
    tx_gref_ = GrantRef::Invalid();
  }
  if (rx_gref_.valid()) {
    (void)hv_->EndGrantAccess(self_, rx_gref_);
    rx_gref_ = GrantRef::Invalid();
  }
  awaiting_connect_ = true;
  XOAR_ASSIGN_OR_RETURN(
      GrantRef tx, hv_->GrantAccess(self_, backend_, tx_pfn_,
                                    /*writable=*/true));
  XOAR_ASSIGN_OR_RETURN(
      GrantRef rx, hv_->GrantAccess(self_, backend_, rx_pfn_,
                                    /*writable=*/true));
  XOAR_ASSIGN_OR_RETURN(EvtchnPort port,
                        hv_->EvtchnAllocUnbound(self_, backend_));
  tx_gref_ = tx;
  rx_gref_ = rx;
  port_ = port;
  NetRing::Create(tx_page_);
  NetRing::Create(rx_page_);
  (void)hv_->EvtchnSetHandler(self_, port_, [this, alive = alive_] {
    if (*alive) {
      OnEvent();
    }
  });

  const std::string front_dir = FrontendDir(self_, kVifType);
  XOAR_RETURN_IF_ERROR(xs_->Write(self_, front_dir + "/backend-id",
                                  StrFormat("%u", backend_.value())));
  XOAR_RETURN_IF_ERROR(xs_->Write(self_, front_dir + "/tx-ring-ref",
                                  StrFormat("%u", tx_gref_.value())));
  XOAR_RETURN_IF_ERROR(xs_->Write(self_, front_dir + "/rx-ring-ref",
                                  StrFormat("%u", rx_gref_.value())));
  XOAR_RETURN_IF_ERROR(xs_->Write(self_, front_dir + "/event-channel",
                                  StrFormat("%u", port_.value())));
  for (const char* leaf :
       {"/backend-id", "/tx-ring-ref", "/rx-ring-ref", "/event-channel"}) {
    XsNodePerms perms;
    perms.owner = self_;
    perms.acl[backend_] = XsPerm::kRead;
    XOAR_RETURN_IF_ERROR(xs_->SetPerms(self_, front_dir + leaf, perms));
  }
  XOAR_RETURN_IF_ERROR(xs_->Write(self_, front_dir + "/state",
                                  XenbusStateString(XenbusState::kInitialised)));
  XsNodePerms state_perms;
  state_perms.owner = self_;
  state_perms.acl[backend_] = XsPerm::kRead;
  return xs_->SetPerms(self_, front_dir + "/state", state_perms);
}

void NetFront::ScheduleXsRetry(bool republish) {
  if (republish) {
    xs_retry_republish_ = true;
  }
  if (xs_retry_pending_) {
    return;
  }
  xs_retry_pending_ = true;
  const SimDuration delay = xs_backoff_.NextDelay();
  if (xs_backoff_.Exhausted()) {
    // Giving up on the handshake would wedge the vif forever; stay at the
    // capped delay instead (RESILIENCE.md).
    XLOG(kWarning)
        << "[netfront] XenStore retries exhausted; continuing at max delay";
  }
  sim_->ScheduleAfter(delay, [this, alive = alive_] {
    if (!*alive) {
      return;
    }
    xs_retry_pending_ = false;
    const bool republish_now = xs_retry_republish_;
    xs_retry_republish_ = false;
    if (republish_now) {
      Republish();
    } else {
      OnBackendStateChange();
    }
  });
}

void NetFront::OnBackendStateChange() {
  StatusOr<std::string> state =
      xs_->Read(self_, BackendDir(backend_, self_, kVifType) + "/state");
  if (!state.ok()) {
    // Dropping the watch event would desynchronise the handshake; re-read
    // after backoff.
    if (state.status().code() == StatusCode::kUnavailable) {
      ScheduleXsRetry(/*republish=*/false);
    }
    return;
  }
  xs_backoff_.Reset();
  switch (XenbusStateFromString(*state)) {
    case XenbusState::kConnected: {
      if (connected_) {
        break;
      }
      connected_ = true;
      awaiting_connect_ = false;
      if (!tx_outstanding_.empty()) {
        std::vector<PendingTx> retry;
        retry.reserve(tx_outstanding_.size());
        for (auto& [id, frame] : tx_outstanding_) {
          if (frame.timeout_event.valid()) {
            (void)sim_->Cancel(frame.timeout_event);
            frame.timeout_event = EventId::Invalid();
          }
          retry.push_back(std::move(frame));
        }
        tx_outstanding_.clear();
        retransmits_ += retry.size();
        for (auto it = retry.rbegin(); it != retry.rend(); ++it) {
          tx_queue_.push_front(std::move(*it));
        }
      }
      PumpTxQueue();
      break;
    }
    case XenbusState::kClosing:
      connected_ = false;
      break;
    case XenbusState::kInitWait:
      if (connected_ || (handshake_started_ && !awaiting_connect_)) {
        connected_ = false;
        Republish();
      }
      break;
    default:
      break;
  }
}

void NetFront::SendFrame(std::uint32_t bytes, TxDone done) {
  PendingTx frame;
  frame.request = NetRingRequest{next_id_++, bytes};
  frame.done = std::move(done);
  tx_queue_.push_back(std::move(frame));
  PumpTxQueue();
}

void NetFront::PumpTxQueue() {
  if (!connected_ || tx_page_ == nullptr) {
    return;
  }
  NetRing ring = NetRing::Attach(tx_page_);
  bool pushed = false;
  while (!tx_queue_.empty() && !ring.FullRequests()) {
    PendingTx frame = std::move(tx_queue_.front());
    tx_queue_.pop_front();
    const std::uint64_t id = frame.request.id;
    ring.PushRequest(frame.request);
    // Arm the acknowledgement deadline: a frame the backend silently drops
    // (injected burst, lost notification) is retransmitted by OnTxTimeout.
    frame.timeout_event = sim_->ScheduleAfter(
        retry_.request_timeout, [this, alive = alive_, id] {
          if (*alive) {
            OnTxTimeout(id);
          }
        });
    tx_outstanding_.emplace(id, std::move(frame));
    pushed = true;
  }
  if (pushed) {
    (void)hv_->EvtchnSend(self_, port_);
  }
}

void NetFront::OnEvent() {
  if (tx_page_ == nullptr || rx_page_ == nullptr) {
    return;
  }
  // Drain tx completions.
  NetRing tx_ring = NetRing::Attach(tx_page_);
  while (auto rsp = tx_ring.PopResponse()) {
    auto it = tx_outstanding_.find(rsp->id);
    if (it == tx_outstanding_.end()) {
      continue;
    }
    PendingTx frame = std::move(it->second);
    tx_outstanding_.erase(it);
    if (frame.timeout_event.valid()) {
      (void)sim_->Cancel(frame.timeout_event);
      frame.timeout_event = EventId::Invalid();
    }
    ++tx_completed_;
    if (rsp->status == 0 && frame.attempts > 0) {
      ++retry_recovered_;
      m_retry_recovered_->Increment();
    }
    if (frame.done) {
      frame.done(rsp->status == 0 ? Status::Ok()
                                  : InternalError("tx failed at backend"));
    }
  }
  // Drain rx arrivals (role-swapped ring: we consume requests).
  NetRing rx_ring = NetRing::Attach(rx_page_);
  while (auto frame = rx_ring.PopRequest()) {
    ++rx_frames_;
    if (rx_handler_) {
      rx_handler_(frame->bytes);
    }
  }
  PumpTxQueue();
}

void NetFront::OnTxTimeout(std::uint64_t id) {
  auto it = tx_outstanding_.find(id);
  if (it == tx_outstanding_.end()) {
    return;  // acknowledged just before the deadline fired
  }
  if (!connected_) {
    // Backend down: the reconnect path owns these frames and will
    // retransmit them with fresh deadlines.
    it->second.timeout_event = EventId::Invalid();
    return;
  }
  PendingTx frame = std::move(it->second);
  tx_outstanding_.erase(it);
  frame.timeout_event = EventId::Invalid();
  RetryTx(std::move(frame));
}

void NetFront::RetryTx(PendingTx frame) {
  ++frame.attempts;
  ++retry_attempts_;
  m_retry_attempts_->Increment();
  if (frame.attempts > retry_.backoff.max_attempts) {
    ++retry_exhausted_;
    m_retry_exhausted_->Increment();
    XLOG(kWarning) << "[netfront] frame " << frame.request.id
                   << " exhausted retries";
    if (frame.done) {
      frame.done(UnavailableError(
          StrFormat("tx failed after %d retries", frame.attempts - 1)));
    }
    return;
  }
  const SimDuration delay = retry_.backoff.DelayForAttempt(frame.attempts - 1);
  m_backoff_ms_->Observe(ToMilliseconds(delay));
  sim_->ScheduleAfter(delay, [this, alive = alive_,
                              frame = std::move(frame)]() mutable {
    if (!*alive) {
      return;
    }
    tx_queue_.push_front(std::move(frame));
    PumpTxQueue();
  });
}

}  // namespace xoar
