// Fabric: the base of the two real (inter-process capable) messaging layers,
// the TCP socket fabric (socket_transport.h) and the UDP datagram fabric
// (datagram_transport.h). A fabric owns the OS sockets for one process and
// runs on its LiveRuntime's loop. The base holds what both share: the
// Transport endpoints of the hosts local to this process and their
// same-process delivery, a host -> (ip, port) PeerAddressMap, the
// FaultInjector rule mirror that makes fault schedules apply to real
// traffic, and the deferred kBroken failure of a send.
//
// Deployments pick the messaging layer per run with a TransportKind
// (LiveClusterConfig::transport, ProcessClusterConfig::transport):
//   * kInProcess — LiveRuntime's in-memory delivery (no fabric; the live
//     backend's default);
//   * kTcp      — SocketFabric: length-prefixed frames over nonblocking
//     loopback TCP, per-message receiver acks, broken-connection errors;
//   * kUdp      — DatagramFabric: coalesced datagrams over nonblocking UDP,
//     app-level ack/retransmit with congestion restraint, loss is silence.
#ifndef FUSE_TRANSPORT_FABRIC_H_
#define FUSE_TRANSPORT_FABRIC_H_

#include <cstdint>
#include <memory>
#include <unordered_map>

#include "net/fault_injector.h"
#include "runtime/live_runtime.h"
#include "transport/peer_address_map.h"
#include "transport/transport.h"

namespace fuse {

enum class TransportKind : uint8_t {
  kInProcess = 0,
  kTcp = 1,
  kUdp = 2,
};

inline const char* TransportKindName(TransportKind k) {
  switch (k) {
    case TransportKind::kInProcess:
      return "inproc";
    case TransportKind::kTcp:
      return "tcp";
    case TransportKind::kUdp:
      return "udp";
  }
  return "unknown";
}

class Fabric : public TransportLayer {
 public:
  explicit Fabric(LiveRuntime* rt) : rt_(rt) {}
  virtual ~Fabric() = default;

  // Binds the fabric's socket(s) on loopback and starts receiving. Returns
  // the port peers should be told about (advertised out of band by the
  // deployment's address map).
  virtual uint16_t Listen() = 0;

  // Address map maintenance: host -> (ip, port). Send paths resolve the
  // destination endpoint from the map at transmit time, so re-advertising a
  // host (a restarted incarnation on a fresh port, or a node on another
  // machine) retargets future traffic — including pending retransmits on the
  // datagram fabric. The port-only overload is the loopback shorthand for
  // same-machine peers.
  void SetPeerAddr(HostId h, const PeerEndpoint& ep) { addrs_.Set(h, ep); }
  void SetPeerAddr(HostId h, uint16_t port) { addrs_.Set(h, PeerEndpoint::Loopback(port)); }
  // Overlays a whole map (e.g. a controller's addr-map broadcast, or a
  // multi-host deployment file loaded via PeerAddressMap::LoadFile).
  void ApplyAddressMap(const PeerAddressMap& m) { addrs_.Merge(m); }
  const PeerAddressMap& peer_addrs() const { return addrs_; }

  // Creates (or returns) the transport endpoint for a host local to this
  // process.
  Transport* TransportFor(HostId local);

  // The fabric's fault-rule mirror, evaluated on every send and delivery.
  FaultInjector& faults() { return faults_; }

 protected:
  bool IsLocal(HostId h) const { return locals_.contains(h.value); }
  // Dispatches to the destination's local endpoint; true iff the host is
  // local (handler registered or not: delivered-and-ignored still acks).
  bool DispatchLocal(const WireMessage& msg);
  // Same-process destination: dispatches through the loop (async like the
  // wire) with a delivery-time fault re-check, and reports Ok, or kBroken
  // with `why` when the rules refused the delivery.
  void SendLocal(WireMessage msg, Transport::SendCallback cb, const char* why);
  // Fails `cb` with kBroken from the loop, so callbacks never run inside the
  // send/flush/break call stack that is mutating fabric state.
  void FailLater(Transport::SendCallback cb, const char* why);

  LiveRuntime* const rt_;
  FaultInjector faults_;
  // The resolution surface shared by every fabric; concrete fabrics read it
  // at transmit/dial time and never cache resolved endpoints across sends.
  PeerAddressMap addrs_;

 private:
  std::unordered_map<uint64_t, std::unique_ptr<Transport>> locals_;
};

}  // namespace fuse

#endif  // FUSE_TRANSPORT_FABRIC_H_
