// Message and event accounting.
//
// The paper's Figure 10 reports system-wide messages per second by scenario;
// Section 7.5 verifies that FUSE adds no messages beyond overlay maintenance
// in the absence of failures. Every transmitted message is attributed to a
// category here so benches can report the same breakdowns.
#ifndef FUSE_COMMON_METRICS_H_
#define FUSE_COMMON_METRICS_H_

#include <array>
#include <cstdint>
#include <string>

#include "common/time.h"

namespace fuse {

enum class MsgCategory : int {
  kOverlayPing = 0,        // overlay routing-table liveness ping (carries FUSE hash)
  kOverlayPingReply,       // its acknowledgment (carries FUSE hash)
  kOverlayJoin,            // join / neighbor-search / notification traffic
  kOverlayRouted,          // client messages routed hop-by-hop over the overlay
  kFuseCreate,             // GroupCreateRequest / reply
  kFuseInstallChecking,    // InstallChecking (routed via overlay)
  kFuseSoftNotification,   // SoftNotification
  kFuseHardNotification,   // HardNotification
  kFuseNeedRepair,         // NeedRepair
  kFuseRepair,             // GroupRepairRequest / reply
  kFuseReconcile,          // live FUSE-ID list exchange after a hash mismatch
  kRpc,                    // application RPC (calibration workload)
  kApp,                    // application payload (SV-tree content, SWIM, ...)
  kTransportControl,       // connection handshake segments
  kCount,
};

const char* MsgCategoryName(MsgCategory c);

// Point-in-time state gauges, alongside the monotonic message counters. The
// group fast-path benches report memory density and timer pressure through
// these so the perf baseline can band them.
enum class Gauge : int {
  kBytesPerGroup = 0,       // approx heap bytes of group state / live groups
  kArmedTimersPerGroup,     // armed FUSE-layer timers / live groups
  kSyscallsPerMsg,          // transport I/O syscalls / application messages
  kBatchOccupancy,          // messages coalesced per datagram (UDP fabric)
  kCount,
};

const char* GaugeName(Gauge g);

// Transport-level event counters, orthogonal to the per-category message
// accounting above. The real fabrics (TCP sockets, UDP datagrams) count
// their syscalls and reliability events here so bench_net_transport and the
// parity tests can report syscalls/msg, batch occupancy, and retransmit
// pressure without ptrace-style instrumentation.
enum class Counter : int {
  kTransportSendSyscalls = 0,  // send/sendto/sendmmsg invocations
  kTransportRecvSyscalls,      // recv/recvfrom/recvmmsg invocations
  kTransportDatagramsSent,     // UDP datagrams put on the wire
  kTransportRecordsSent,       // data records inside those datagrams
  kRetransmitsTotal,           // data records re-sent after an RTO
  kAcksDedupedTotal,           // duplicate deliveries suppressed (re-acked)
  kCount,
};

const char* CounterName(Counter c);

class Metrics {
 public:
  void IncMessage(MsgCategory c, uint64_t bytes) {
    auto& e = counters_[static_cast<size_t>(c)];
    e.messages += 1;
    e.bytes += bytes;
  }

  uint64_t MessageCount(MsgCategory c) const {
    return counters_[static_cast<size_t>(c)].messages;
  }
  uint64_t ByteCount(MsgCategory c) const { return counters_[static_cast<size_t>(c)].bytes; }

  uint64_t TotalMessages() const;
  uint64_t TotalBytes() const;

  // Gauges are last-writer-wins snapshots (AddFrom does not sum them; a
  // ratio like bytes/group does not aggregate by addition).
  void SetGauge(Gauge g, double value) { gauges_[static_cast<size_t>(g)] = value; }
  double GetGauge(Gauge g) const { return gauges_[static_cast<size_t>(g)]; }

  void IncCounter(Counter c, uint64_t n = 1) { event_counters_[static_cast<size_t>(c)] += n; }
  uint64_t GetCounter(Counter c) const { return event_counters_[static_cast<size_t>(c)]; }

  void Reset();

  // Accumulates another instance's counters into this one
  // (bench_net_transport sums its per-host metrics with it).
  void AddFrom(const Metrics& other) {
    for (size_t i = 0; i < counters_.size(); ++i) {
      counters_[i].messages += other.counters_[i].messages;
      counters_[i].bytes += other.counters_[i].bytes;
    }
    for (size_t i = 0; i < event_counters_.size(); ++i) {
      event_counters_[i] += other.event_counters_[i];
    }
  }

  // Multi-line "category messages bytes" table.
  std::string Report() const;

  // Snapshot of total message count; used with a later snapshot and the
  // elapsed sim time to compute messages/second over a window.
  struct Window {
    uint64_t start_messages = 0;
    TimePoint start_time;
  };
  Window BeginWindow(TimePoint now) const { return Window{TotalMessages(), now}; }
  double MessagesPerSecond(const Window& w, TimePoint now) const;

 private:
  struct Entry {
    uint64_t messages = 0;
    uint64_t bytes = 0;
  };
  std::array<Entry, static_cast<size_t>(MsgCategory::kCount)> counters_{};
  std::array<double, static_cast<size_t>(Gauge::kCount)> gauges_{};
  std::array<uint64_t, static_cast<size_t>(Counter::kCount)> event_counters_{};
};

}  // namespace fuse

#endif  // FUSE_COMMON_METRICS_H_
