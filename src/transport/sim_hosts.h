// SimHostTable: the simulator fabric's per-host state (tcp_model.h), in one
// dense table indexed by HostId — each host's clock-skew facade and transport
// endpoint, its incarnation and up flag, and its send-CPU clock — plus what
// the fabric does with it: creating a host's endpoint, the crash/restart
// bookkeeping, send-CPU serialization, and incarnation-checked delivery.
//
// Host crash/restart is modeled with incarnation numbers: a message carries
// its destination's incarnation from the moment it is sent, and a delivery
// addressed to an earlier incarnation is dropped.
#ifndef FUSE_TRANSPORT_SIM_HOSTS_H_
#define FUSE_TRANSPORT_SIM_HOSTS_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/ids.h"
#include "common/time.h"
#include "net/fault_injector.h"
#include "sim/environment.h"
#include "transport/message.h"
#include "transport/transport.h"

namespace fuse {

class SimHostTable {
 public:
  struct Host {
    std::unique_ptr<SkewedHostEnv> env;    // created with the transport
    std::unique_ptr<Transport> transport;  // null until first TransportFor
    uint64_t incarnation = 1;
    bool up = true;
    TimePoint send_busy_until;  // send-CPU serialization
  };

  // `layer` is the fabric the endpoints send through; `send_overhead` is the
  // per-send CPU occupancy (CostModel::SendOverhead()).
  SimHostTable(FaultInjector& faults, TransportLayer* layer, Duration send_overhead)
      : faults_(faults), layer_(layer), send_overhead_(send_overhead) {}

  // `h`'s slot, growing the table; a new slot has no transport yet.
  Host& At(HostId h) {
    if (h.value >= hosts_.size()) {
      hosts_.resize(h.value + 1);
    }
    return hosts_[h.value];
  }

  bool HasTransport(HostId h) const {
    return h.value < hosts_.size() && hosts_[h.value].transport != nullptr;
  }

  // `h`'s endpoint, created on first use over `base` wrapped in the host's
  // clock-skew facade (SkewedHostEnv, net/fault_injector.h).
  Transport* TransportFor(HostId h, Environment& base);

  // Fail-stop crash: bumps the incarnation, clears the handler table, frees
  // the send CPU, and marks the host down in the fault rules.
  void Crash(HostId h);
  // A fresh incarnation with an empty handler table (the node software
  // re-registers on restart, as in the paper's stable-storage-free recovery).
  void Restart(HostId h);
  // A host without an endpoint has no state here; the fault rules decide.
  bool IsUp(HostId h) const {
    return HasTransport(h) ? hosts_[h.value].up : !faults_.IsHostDown(h);
  }

  // Departure time of a send `from` issues at `now`: a host's sends leave
  // serialized, each holding its send CPU for the per-send overhead (§7.4).
  TimePoint Depart(HostId from, TimePoint now) {
    if (send_overhead_.IsZero()) {
      return now;
    }
    Host& host = At(from);
    const TimePoint busy_from = host.send_busy_until > now ? host.send_busy_until : now;
    host.send_busy_until = busy_from + send_overhead_;
    return host.send_busy_until;
  }

  // Dispatches `msg` on msg.to unless that host crashed or restarted since
  // the message left (its incarnation is no longer `incarnation`).
  void Deliver(uint64_t incarnation, const WireMessage& msg) const {
    if (!HasTransport(msg.to)) {
      return;
    }
    const Host& host = hosts_[msg.to.value];
    if (host.up && host.incarnation == incarnation) {
      host.transport->Dispatch(msg);
    }
  }

 private:
  FaultInjector& faults_;
  TransportLayer* const layer_;
  const Duration send_overhead_;
  std::vector<Host> hosts_;
};

}  // namespace fuse

#endif  // FUSE_TRANSPORT_SIM_HOSTS_H_
