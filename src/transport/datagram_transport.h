// DatagramFabric: the UDP fast path for multi-process deployments.
//
// FUSE's liveness traffic is tiny, periodic, and idempotent — a poor fit for
// TCP's head-of-line blocking and per-message framing. This fabric moves
// WireMessages as records coalesced into UDP datagrams, with an app-level
// reliability layer that keeps the Transport contract of the socket fabric:
// the sender's callback reports Ok once the destination process acknowledged
// the record, or kBroken once the retransmit budget is exhausted.
//
// Three mechanisms make it the fast path:
//   * per-destination coalescing — records queued to one peer are packed
//     into a single datagram up to an MTU budget, flushed on a short
//     batching horizon or immediately when full;
//   * syscall batching — all datagrams due in one flush go to the kernel in
//     one sendmmsg(); the read path drains with recvmmsg() (both fall back
//     to one-at-a-time sendto/recvfrom when the kernel lacks them);
//   * congestion restraint — a per-peer AIMD window (additive increase per
//     ack, halve on retransmit) bounds unacked records in flight, so loss
//     does not amplify load.
//
// Failure semantics differ from TCP deliberately: loss is *silence*. A
// SIGKILLed peer, a one-way block, or a loss burst produce no error signal;
// the sender retransmits with exponential backoff and reports kBroken only
// after max_retransmits attempts. Duplicate deliveries from retransmit races
// are suppressed at the receiver by a per-(session, destination) sequence
// watermark; duplicates are re-acked (the first ack may have been lost).
//
// Fault rules (the shared FaultInjector vocabulary) are applied natively to
// datagrams: sender-side blocks and loss bursts silently drop data records
// at pack time, receiver-side blocks silently refuse delivery (no ack, no
// nack), and blocks on the reverse path silently swallow acks — all of
// which exercise the retransmit layer for real. Linux-only.
#ifndef FUSE_TRANSPORT_DATAGRAM_TRANSPORT_H_
#define FUSE_TRANSPORT_DATAGRAM_TRANSPORT_H_

#if defined(__linux__)

#include <netinet/in.h>

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "net/fault_injector.h"
#include "runtime/live_runtime.h"
#include "sim/timer.h"
#include "transport/fabric.h"
#include "transport/transport.h"

namespace fuse {

class DatagramFabric;

class DatagramFabric : public Fabric {
 public:
  struct Options {
    // Datagram payload budget. Records are packed up to this size; a single
    // record larger than it gets a datagram of its own (up to the UDP max).
    size_t mtu_budget = 1400;
    // How long a queued record may wait for companions before the datagram
    // is flushed anyway.
    Duration coalesce_horizon = Duration::Micros(500);
    // Retransmit schedule: first RTO, doubled per attempt up to the cap.
    // The defaults exhaust in ~465 ms more-or-less matching the socket
    // fabric's dial budget, and below the protocol-level repair timeouts.
    Duration rto_initial = Duration::Millis(15);
    Duration rto_max = Duration::Millis(120);
    int max_retransmits = 6;
    // Congestion-restraint window, per destination: unacked records in
    // flight. Additive increase per ack; halved when an RTO fires.
    uint32_t cwnd_min = 4;
    uint32_t cwnd_max = 64;
    // Seeds the fabric's private rng (loss-burst and jitter draws) and its
    // session id. Deployments derive it from the run seed so fault schedules
    // replay deterministically.
    uint64_t seed = 0x9e3779b97f4a7c15ULL;
  };

  // Counters the datagram tests assert on (beyond the Metrics counters).
  struct DebugStats {
    uint64_t max_inflight = 0;   // peak unacked records to any one peer
    uint32_t min_cwnd = 0;       // smallest window any peer was clamped to
    uint64_t retransmits = 0;    // data records re-sent after an RTO
    uint64_t broken_sends = 0;   // sends failed after retransmit exhaustion
  };

  explicit DatagramFabric(LiveRuntime* rt);  // default options
  DatagramFabric(LiveRuntime* rt, Options opts);
  ~DatagramFabric() override;

  DatagramFabric(const DatagramFabric&) = delete;
  DatagramFabric& operator=(const DatagramFabric&) = delete;

  // Binds the fabric's UDP socket on a loopback ephemeral port and starts
  // receiving. Returns the port (advertised to peers out of band).
  uint16_t Listen() override;

  // Peer addresses come from the base Fabric's PeerAddressMap (SetPeerAddr /
  // ApplyAddressMap). Destinations resolve per *transmit*, not per send:
  // re-advertising a host (a restarted incarnation on a fresh port)
  // retargets future datagrams, including pending retransmits.

  const DebugStats& debug_stats() const { return stats_; }

  // True when the kernel accepted a sendmmsg/recvmmsg call (vs the
  // one-at-a-time fallback). Meaningful after traffic has flowed.
  bool used_mmsg() const { return used_mmsg_; }

  void SendFrom(HostId from, WireMessage msg, Transport::SendCallback cb) override;

 private:
  // One record awaiting acknowledgment. `wire` is the encoded data record,
  // reused verbatim for retransmits.
  struct Unacked {
    std::vector<uint8_t> wire;
    Transport::SendCallback cb;
    HostId from;
    int attempts = 0;          // wire attempts so far
    Duration rto;              // backoff for the *next* deadline
    TimePoint deadline;        // when the current attempt times out
    bool admitted = false;     // inside the congestion window
  };

  struct PeerState {
    HostId to;
    uint64_t next_seq = 1;
    uint32_t cwnd = 0;          // set from opts on creation
    uint32_t inflight = 0;      // admitted && unacked
    std::map<uint64_t, Unacked> unacked;  // by seq (ordered: retransmit scan)
    std::deque<uint64_t> ready;    // admitted, waiting for the next flush
    std::deque<uint64_t> waiting;  // sent by the app, blocked by cwnd
    size_t ready_bytes = 0;        // encoded bytes pending in `ready`
  };

  // Sequence watermark for one (sender session, destination host) stream.
  struct RecvState {
    uint64_t watermark = 0;             // all seqs <= this were delivered
    std::map<uint64_t, bool> above;     // delivered seqs > watermark
  };

  void OnReadable(uint32_t events);
  void HandleDatagram(const uint8_t* data, size_t len, const sockaddr_in& src);
  void HandleDataRecord(const uint8_t* rec, size_t len, const sockaddr_in& src);
  void HandleAckRecord(const uint8_t* rec, size_t len);
  // Appends an ack record for (session, seq, acker) to the per-source ack
  // batch flushed at the end of the current read burst.
  void QueueAck(const sockaddr_in& src, uint64_t session, uint64_t seq, HostId acker);
  void FlushAcks();

  PeerState* PeerFor(HostId to);
  void Admit(PeerState* p, uint64_t seq);
  void AdmitWaiting(PeerState* p);
  void ScheduleFlush(PeerState* p);
  // Packs every peer's ready records into datagrams and hands the batch to
  // the kernel (sendmmsg or the fallback loop).
  void FlushAll();
  void ProcessRtos();
  void ArmRtoTimer();
  // FailLater, counted in debug_stats().broken_sends.
  void FailSend(Transport::SendCallback cb, const char* why);
  // One datagram ready for the kernel.
  struct OutDatagram {
    sockaddr_in addr;
    std::vector<uint8_t> bytes;
    uint32_t records = 0;
  };
  void TransmitBatch(std::vector<OutDatagram> grams);
  void SendOne(const OutDatagram& g);

  Options opts_;
  Rng rng_;
  uint64_t session_id_ = 0;
  int fd_ = -1;
  uint16_t port_ = 0;
  bool used_mmsg_ = false;
  DebugStats stats_;

  std::unordered_map<uint64_t, std::unique_ptr<PeerState>> peers_;  // by dest host
  // session -> dest host -> delivery watermark.
  std::unordered_map<uint64_t, std::unordered_map<uint64_t, RecvState>> recv_;
  // Ack batch accumulated within one read burst, keyed by source endpoint
  // (PeerEndpoint::Key-packed (ip, port): the sending fabric's socket).
  std::map<uint64_t, std::vector<uint8_t>> ack_batch_;

  Timer flush_timer_;
  Timer rto_timer_;
  TimePoint rto_deadline_;  // deadline rto_timer_ is currently armed for
};

// Runtime probe: true when this kernel accepts sendmmsg on a UDP socket.
// scripts/check.sh consults this (via bench_net_transport --probe-sendmmsg)
// to skip the UDP parity leg on kernels without it.
bool DatagramSupportsMmsg();

}  // namespace fuse

#endif  // defined(__linux__)
#endif  // FUSE_TRANSPORT_DATAGRAM_TRANSPORT_H_
