// Messaging cost model: the difference between the paper's live cluster and
// its discrete event simulator.
//
// Section 7 of the paper: the cluster pays TCP connection establishment on
// first contact between a pair of nodes (Fig. 6, "1st Cluster RPC"), an
// XML-serialization cost of ~2.8 ms per message send, and ~1.1 ms per message
// for running 10 virtual nodes per physical machine. The simulator models
// none of these. Both modes run on the same code here; benches choose one.
#ifndef FUSE_TRANSPORT_COST_MODEL_H_
#define FUSE_TRANSPORT_COST_MODEL_H_

#include <algorithm>
#include <cstdint>

#include "common/time.h"

namespace fuse {

struct CostModel {
  // When true, the first message between a host pair is preceded by a TCP
  // handshake (one RTT, lossy, retried with backoff). When false, connections
  // open instantly (the paper's simulator behaviour).
  bool model_connection_setup = true;

  // Per-message-send CPU occupancy; sends from one host are serialized.
  Duration base_send_overhead = Duration::Zero();   // XML serialization cost
  Duration colocation_overhead = Duration::Zero();  // co-located virtual nodes

  Duration SendOverhead() const { return base_send_overhead + colocation_overhead; }

  // Paper cluster: ModelNet, 10 virtual nodes per machine, XML messaging.
  static CostModel Cluster() {
    CostModel m;
    m.model_connection_setup = true;
    m.base_send_overhead = Duration::MillisF(2.8);
    m.colocation_overhead = Duration::MillisF(1.1);
    return m;
  }

  // Paper simulator: latency-only network, free serialization.
  static CostModel Simulator() {
    CostModel m;
    m.model_connection_setup = false;
    return m;
  }
};

// TCP model constants of the simulator fabric (tcp_model.h).
struct TcpParams {
  // Minimum retransmission timeout; doubled per retry.
  Duration min_rto = Duration::Seconds(1);
  // Data attempts before the connection is declared broken.
  int max_data_attempts = 6;
  // SYN attempts before connect fails.
  int max_connect_attempts = 5;
  Duration connect_rto = Duration::Seconds(1);

  // Wait before the next data attempt after `attempt` (1-based) attempts
  // went unacknowledged: max(min_rto, 2 x rtt), doubled per retry.
  Duration RetransmitBackoff(Duration rtt, int attempt) const {
    return std::max(min_rto, rtt * int64_t{2}) * (int64_t{1} << (attempt - 1));
  }
};

}  // namespace fuse

#endif  // FUSE_TRANSPORT_COST_MODEL_H_
