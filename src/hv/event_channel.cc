#include "src/hv/event_channel.h"

#include <utility>

#include "src/base/log.h"
#include "src/base/strings.h"

namespace xoar {

std::string_view VirqName(Virq virq) {
  switch (virq) {
    case Virq::kConsole:
      return "console";
    case Virq::kTimer:
      return "timer";
    case Virq::kDebug:
      return "debug";
    case Virq::kDomExc:
      return "dom_exc";
    case Virq::kCount:
      break;
  }
  return "unknown";
}

const EventChannelManager::Ports* EventChannelManager::FindPorts(
    DomainId domain) const {
  // Invalid() is the largest domid, so the bounds check rejects it too.
  return domain.value() < ports_.size() ? &ports_[domain.value()] : nullptr;
}

const EventChannelManager::Channel* EventChannelManager::Find(
    DomainId domain, EvtchnPort port) const {
  const Ports* ports = FindPorts(domain);
  if (ports == nullptr || port.value() >= ports->by_port.size()) {
    return nullptr;
  }
  const Channel& channel = ports->by_port[port.value()];
  return channel.state == ChannelState::kFree ? nullptr : &channel;
}

EventChannelManager::Channel* EventChannelManager::Find(DomainId domain,
                                                        EvtchnPort port) {
  return const_cast<Channel*>(std::as_const(*this).Find(domain, port));
}

EvtchnPort EventChannelManager::Allocate(DomainId domain, Channel channel) {
  if (domain.value() >= ports_.size()) {
    ports_.resize(domain.value() + 1);
  }
  std::vector<Channel>& by_port = ports_[domain.value()].by_port;
  by_port.push_back(std::move(channel));
  return EvtchnPort(static_cast<std::uint32_t>(by_port.size() - 1));
}

StatusOr<EvtchnPort> EventChannelManager::AllocUnbound(DomainId owner,
                                                       DomainId remote) {
  if (!owner.valid() || !remote.valid()) {
    return InvalidArgumentError("invalid domain for alloc_unbound");
  }
  Channel channel;
  channel.state = ChannelState::kUnbound;
  channel.remote = remote;
  return Allocate(owner, std::move(channel));
}

StatusOr<EvtchnPort> EventChannelManager::BindInterdomain(
    DomainId caller, DomainId remote, EvtchnPort remote_port) {
  if (!caller.valid()) {
    return InvalidArgumentError("invalid domain for bind_interdomain");
  }
  Channel* remote_channel = Find(remote, remote_port);
  if (remote_channel == nullptr) {
    return NotFoundError(StrFormat("no unbound port %u on dom%u",
                                   remote_port.value(), remote.value()));
  }
  if (remote_channel->state != ChannelState::kUnbound) {
    return FailedPreconditionError("remote port is not unbound");
  }
  if (remote_channel->remote != caller) {
    return PermissionDeniedError(
        StrFormat("port %u on dom%u is reserved for dom%u, not dom%u",
                  remote_port.value(), remote.value(),
                  remote_channel->remote.value(), caller.value()));
  }
  Channel local;
  local.state = ChannelState::kConnected;
  local.remote = remote;
  local.remote_port = remote_port;
  const EvtchnPort local_port = Allocate(caller, std::move(local));

  // A loopback bind may have reallocated the remote's port array.
  remote_channel = Find(remote, remote_port);
  remote_channel->state = ChannelState::kConnected;
  remote_channel->remote = caller;
  remote_channel->remote_port = local_port;
  return local_port;
}

StatusOr<EvtchnPort> EventChannelManager::BindVirq(DomainId domain, Virq virq) {
  if (!domain.valid() || virq >= Virq::kCount) {
    return InvalidArgumentError("invalid domain or virq for bind_virq");
  }
  // One binding per VIRQ per domain.
  const auto index = static_cast<std::size_t>(virq);
  const Ports* ports = FindPorts(domain);
  if (ports != nullptr && ports->virq_port[index].valid()) {
    return AlreadyExistsError(StrFormat("virq %d already bound on dom%u",
                                        static_cast<int>(virq),
                                        domain.value()));
  }
  Channel channel;
  channel.state = ChannelState::kVirq;
  channel.virq = virq;
  const EvtchnPort port = Allocate(domain, std::move(channel));
  ports_[domain.value()].virq_port[index] = port;
  return port;
}

Status EventChannelManager::SetHandler(DomainId domain, EvtchnPort port,
                                       Handler handler) {
  Channel* channel = Find(domain, port);
  if (channel == nullptr) {
    return NotFoundError("no such event channel");
  }
  channel->handler =
      handler ? std::make_unique<Handler>(std::move(handler)) : nullptr;
  return Status::Ok();
}

Status EventChannelManager::Send(DomainId caller, EvtchnPort port) {
  Channel* channel = Find(caller, port);
  if (channel == nullptr) {
    return NotFoundError(StrFormat("dom%u has no port %u", caller.value(),
                                   port.value()));
  }
  if (channel->state == ChannelState::kBroken) {
    return UnavailableError("peer end of event channel is closed");
  }
  if (channel->state != ChannelState::kConnected) {
    return FailedPreconditionError("event channel not connected");
  }
  ++sends_;
  m_sends_->Increment();
  obs_->tracer().Op(TraceCategory::kEvtchn, "evtchn_send", caller.value());
  // Read the peer before the hook runs: `channel` points into a port array.
  const DomainId remote = channel->remote;
  const EvtchnPort remote_port = channel->remote_port;
  SimDuration latency = kEventDeliveryLatency;
  if (send_fault_hook_) {
    const SendFaultDecision decision = send_fault_hook_(caller, port);
    if (decision.action == SendFaultAction::kDrop) {
      // The notification is lost in flight; the sender already observed
      // success. Receivers recover via their request timeouts (§RESILIENCE).
      return Status::Ok();
    }
    if (decision.action == SendFaultAction::kDelay) {
      latency += decision.extra_delay;
    }
  }
  sim_->ScheduleAfter(latency, [this, remote, remote_port] {
    const Channel* peer = Find(remote, remote_port);
    if (peer != nullptr && peer->handler &&
        peer->state == ChannelState::kConnected) {
      ++deliveries_;
      m_deliveries_->Increment();
      obs_->tracer().Op(TraceCategory::kEvtchn, "evtchn_deliver",
                        remote.value());
      (*peer->handler)();
    }
  });
  return Status::Ok();
}

Status EventChannelManager::RaiseVirq(DomainId domain, Virq virq) {
  const Ports* ports = FindPorts(domain);
  const EvtchnPort port =
      ports != nullptr && virq < Virq::kCount
          ? ports->virq_port[static_cast<std::size_t>(virq)]
          : EvtchnPort::Invalid();
  if (!port.valid()) {
    return NotFoundError(StrFormat("dom%u has no binding for virq %s",
                                   domain.value(),
                                   std::string(VirqName(virq)).c_str()));
  }
  const Channel* channel = Find(domain, port);
  if (channel != nullptr && channel->handler) {
    // Copy the handler: the channel may be closed before delivery fires.
    Handler handler = *channel->handler;
    sim_->ScheduleAfter(kEventDeliveryLatency,
                        [handler = std::move(handler)] { handler(); });
    ++deliveries_;
    m_deliveries_->Increment();
  }
  return Status::Ok();
}

void EventChannelManager::Release(DomainId domain, Channel& channel) {
  if (channel.state == ChannelState::kConnected) {
    Channel* peer = Find(channel.remote, channel.remote_port);
    if (peer != nullptr) {
      peer->state = ChannelState::kBroken;
    }
  } else if (channel.state == ChannelState::kVirq) {
    ports_[domain.value()].virq_port[static_cast<std::size_t>(channel.virq)] =
        EvtchnPort::Invalid();
  }
  channel = Channel();
}

Status EventChannelManager::Close(DomainId domain, EvtchnPort port) {
  Channel* channel = Find(domain, port);
  if (channel == nullptr) {
    return NotFoundError("no such event channel");
  }
  Release(domain, *channel);
  return Status::Ok();
}

int EventChannelManager::CloseAll(DomainId domain) {
  if (FindPorts(domain) == nullptr) {
    return 0;
  }
  int closed = 0;
  for (Channel& channel : ports_[domain.value()].by_port) {
    if (channel.state != ChannelState::kFree) {
      Release(domain, channel);
      ++closed;
    }
  }
  return closed;
}

bool EventChannelManager::IsConnected(DomainId domain, EvtchnPort port) const {
  const Channel* channel = Find(domain, port);
  return channel != nullptr && channel->state == ChannelState::kConnected;
}

}  // namespace xoar
