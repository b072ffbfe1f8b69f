// Paravirtual network split driver (§4.5.1, §5.4).
//
// NetFront exposes frame tx/rx to a guest; NetBack hosts the physical NIC
// driver and virtualizes it into per-guest virtual interfaces (vifs).
// Negotiation follows the XenBus protocol over XenStore with two rings per
// vif (tx and rx) in granted guest pages plus one event channel.
//
// NetBack is the restartable component exercised by Fig 6.3 / Fig 6.5:
// Suspend() detaches the NIC and breaks every vif (frames in flight are
// lost, exactly what TCP sees as an outage); Resume() re-advertises the
// backend and frontends renegotiate via XenStore.
//
// Resilience (RESILIENCE.md): NetFront arms a simulated-time deadline per
// tx frame; frames the backend never acknowledges (a dropped notification,
// an injected drop burst) are retransmitted with bounded exponential
// backoff. XenStore handshake traffic retries the same way.
#ifndef XOAR_SRC_DRV_NET_H_
#define XOAR_SRC_DRV_NET_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "src/base/backoff.h"
#include "src/base/domid_table.h"
#include "src/base/ids.h"
#include "src/base/status.h"
#include "src/base/units.h"
#include "src/dev/nic.h"
#include "src/hv/hypervisor.h"
#include "src/hv/io_ring.h"
#include "src/obs/obs.h"
#include "src/sim/simulator.h"
#include "src/xs/service.h"

namespace xoar {

struct NetRingRequest {
  std::uint64_t id;
  std::uint32_t bytes;
};

struct NetRingResponse {
  std::uint64_t id;
  std::int8_t status;  // 0 = OK
};

using NetRing = IoRing<NetRingRequest, NetRingResponse, 32>;

// Backend CPU overhead per forwarded frame (demux + bridge + copy grant).
constexpr SimDuration kNetBackPerFrameOverhead = 4 * kMicrosecond;

// Frames processed per scheduled tx-ring drain; see kBlkBackDrainBudget for
// the batching rationale (one drain event per kick, final re-check for
// frames pushed while draining).
constexpr std::uint32_t kNetBackDrainBudget = NetRing::kEntries;

class NetBack {
 public:
  // Fault-injection hook (src/fault), consulted once per popped tx request.
  // Returning true silently drops the frame — no response is ever pushed,
  // so the frontend's per-frame deadline expires and it retransmits. This
  // models a congested or faulty path rather than an explicit NACK.
  using TxFaultHook =
      std::function<bool(DomainId guest, const NetRingRequest& request)>;

  // `obs` receives `NetBack.ring.*` / `NetBack.vif.*` counters and kDriver
  // trace events; nullptr falls back to Obs::Global().
  NetBack(Hypervisor* hv, XenStoreService* xs, Simulator* sim, DomainId self,
          NicDevice* nic, Obs* obs = nullptr);

  // Registers the backend root in XenStore and attaches the NIC rx path.
  Status Initialize();

  DomainId self() const { return self_; }
  NicDevice* nic() { return nic_; }
  bool available() const { return available_; }

  // Creates a vif record for `guest` and advertises the backend half.
  Status AttachVif(DomainId guest);
  // Tears the vif down completely: disconnect the rings, drop the
  // frontend-state watch, forget the guest. The destroy-side counterpart
  // of AttachVif (Suspend/Resume keep vifs, this does not).
  Status DetachVif(DomainId guest);

  // Frame arriving from the physical network destined for `guest`.
  // Dropped (returns false) while the backend or the vif is down.
  bool InjectRx(DomainId guest, std::uint32_t bytes);

  // --- Microreboot hooks ---
  void Suspend();
  void Resume();

  bool IsVifConnected(DomainId guest) const;
  // Slots in the domid-indexed vif table; lookups of unknown domids never
  // grow it (exposed for tests).
  std::size_t vif_table_slots() const { return vifs_.slot_count(); }

  // Rate multiplier on the effective data-path throughput; below 1.0 when
  // the driver shares a control VM with other busy services (Fig 6.2's
  // performance-isolation effect). 1.0 for a dedicated driver domain.
  void set_rate_multiplier(double m) { rate_multiplier_ = m; }
  double rate_multiplier() const { return rate_multiplier_; }
  // Effective deliverable rate for one guest's flow, in bits/second.
  double EffectiveRateBps() const {
    return nic_->link_rate() * rate_multiplier_;
  }

  void set_tx_fault_hook(TxFaultHook hook) { tx_fault_hook_ = std::move(hook); }

  std::uint64_t frames_forwarded() const { return frames_forwarded_; }
  std::uint64_t frames_dropped() const { return frames_dropped_; }

 private:
  struct Vif {
    DomainId guest;
    bool connected = false;
    GrantRef tx_gref;
    GrantRef rx_gref;
    std::byte* tx_ring = nullptr;
    std::byte* rx_ring = nullptr;
    EvtchnPort port;  // backend-local port of the shared channel
    // Reconnect retry state, see BlkBack::Vbd.
    ExponentialBackoff connect_backoff;
    bool retry_pending = false;
    // Coalesces tx kicks into one pending drain event, see BlkBack::Vbd.
    bool drain_scheduled = false;
  };

  void OnFrontendStateChange(DomainId guest);
  Status ConnectVif(Vif& vif);
  void ScheduleConnectRetry(DomainId guest);
  void DisconnectVif(Vif& vif);
  void ServiceTxRing(DomainId guest);
  void DrainTxRing(DomainId guest);

  Hypervisor* hv_;
  XenStoreService* xs_;
  Simulator* sim_;
  DomainId self_;
  NicDevice* nic_;
  bool available_ = false;
  double rate_multiplier_ = 1.0;
  TxFaultHook tx_fault_hook_;
  // Resume() re-advertisement retry, see BlkBack.
  ExponentialBackoff resume_backoff_;
  bool resume_retry_pending_ = false;
  DomidTable<Vif> vifs_;
  std::uint64_t frames_forwarded_ = 0;
  std::uint64_t frames_dropped_ = 0;
  Obs* obs_;
  Counter* m_tx_frames_;      // NetBack.ring.tx_frames
  Counter* m_rx_frames_;      // NetBack.ring.rx_frames
  Counter* m_dropped_;        // NetBack.ring.dropped
  Counter* m_vif_connects_;   // NetBack.vif.connects
};

class NetFront {
 public:
  using TxDone = std::function<void(Status)>;
  using RxHandler = std::function<void(std::uint32_t bytes)>;

  // Retry/backoff tuning (RESILIENCE.md "Tuning knobs"). request_timeout is
  // the per-frame acknowledgement deadline; it must exceed normal backend
  // forwarding latency (microseconds here) by a wide margin or healthy
  // frames get duplicated on the wire.
  struct RetryConfig {
    BackoffPolicy backoff;
    SimDuration request_timeout = 250 * kMillisecond;
  };

  NetFront(Hypervisor* hv, XenStoreService* xs, Simulator* sim, DomainId self,
           DomainId backend);
  ~NetFront();

  // Frontend half of the XenBus handshake; also arms reconnection on
  // backend microreboots.
  Status Connect();

  bool connected() const { return connected_; }
  DomainId backend() const { return backend_; }

  // Queues a frame for transmission; `done` fires when the backend has put
  // it on the wire. Frames queue while disconnected and flush on reconnect.
  // Unacknowledged frames are retransmitted with exponential backoff; `done`
  // sees UNAVAILABLE only after retry exhaustion.
  void SendFrame(std::uint32_t bytes, TxDone done);

  void set_rx_handler(RxHandler handler) { rx_handler_ = std::move(handler); }

  void set_retry_config(const RetryConfig& config);
  const RetryConfig& retry_config() const { return retry_; }

  std::uint64_t tx_completed() const { return tx_completed_; }
  std::uint64_t rx_frames() const { return rx_frames_; }
  std::uint64_t retransmitted_frames() const { return retransmits_; }
  std::uint64_t retry_attempts() const { return retry_attempts_; }
  std::uint64_t retry_recovered() const { return retry_recovered_; }
  std::uint64_t retry_exhausted() const { return retry_exhausted_; }

 private:
  friend class NetBack;  // rx delivery

  struct PendingTx {
    NetRingRequest request;
    TxDone done;
    int attempts = 0;  // backoff retries so far (reconnects not counted)
    EventId timeout_event = EventId::Invalid();
  };

  void Republish();
  Status DoRepublish();
  void OnBackendStateChange();
  void ScheduleXsRetry(bool republish);
  void PumpTxQueue();
  void OnEvent();  // tx completions and rx arrivals
  void OnTxTimeout(std::uint64_t id);
  void RetryTx(PendingTx frame);

  Hypervisor* hv_;
  XenStoreService* xs_;
  Simulator* sim_;
  DomainId self_;
  DomainId backend_;
  bool connected_ = false;
  bool handshake_started_ = false;
  bool awaiting_connect_ = false;
  Pfn tx_pfn_;
  Pfn rx_pfn_;
  std::byte* tx_page_ = nullptr;
  std::byte* rx_page_ = nullptr;
  GrantRef tx_gref_;
  GrantRef rx_gref_;
  EvtchnPort port_;
  std::uint64_t next_id_ = 1;
  RetryConfig retry_;
  ExponentialBackoff xs_backoff_;
  bool xs_retry_pending_ = false;
  bool xs_retry_republish_ = false;
  std::deque<PendingTx> tx_queue_;
  std::map<std::uint64_t, PendingTx> tx_outstanding_;
  RxHandler rx_handler_;
  std::uint64_t tx_completed_ = 0;
  std::uint64_t rx_frames_ = 0;
  std::uint64_t retransmits_ = 0;
  std::uint64_t retry_attempts_ = 0;
  std::uint64_t retry_recovered_ = 0;
  std::uint64_t retry_exhausted_ = 0;
  Counter* m_retry_attempts_;   // NetFront.retry.attempts
  Counter* m_retry_recovered_;  // NetFront.retry.recovered
  Counter* m_retry_exhausted_;  // NetFront.retry.exhausted
  Histogram* m_backoff_ms_;     // NetFront.retry.backoff_ms
  // Guards scheduled callbacks against this frontend dying with its guest;
  // see BlkFront.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace xoar

#endif  // XOAR_SRC_DRV_NET_H_
