// The ProcessCluster control protocol: the framed command/event vocabulary
// spoken between the controller and its forked workers, in one header both
// halves include (the opcodes and the addr-map codec used to be hand-mirrored
// inside process_cluster.cc's two loops).
//
// Every frame starts with a u8 opcode. Commands flow controller -> worker;
// events flow worker -> controller. Since workers became multi-tenant, node
// addressing is explicit: commands that target a node carry its HostId (the
// worker index is implied by which control channel the frame rides).
#ifndef FUSE_RUNTIME_CONTROL_PROTOCOL_H_
#define FUSE_RUNTIME_CONTROL_PROTOCOL_H_

#include <cstdint>

#include "common/logging.h"
#include "common/serialize.h"
#include "transport/fabric.h"
#include "transport/peer_address_map.h"

namespace fuse {
namespace ctrl {

// Controller -> worker commands.
inline constexpr uint8_t kCmdAddrs = 1;         // full peer address map
inline constexpr uint8_t kCmdFaults = 2;        // full fault-rule mirror
inline constexpr uint8_t kCmdCreateNode = 3;    // host id, name, numeric id
inline constexpr uint8_t kCmdJoinFirst = 4;     // host id: bootstrap the overlay
inline constexpr uint8_t kCmdJoin = 5;          // host id, seq, boot host
inline constexpr uint8_t kCmdStartMaint = 6;    // host id
inline constexpr uint8_t kCmdLeafExchange = 7;  // host id
inline constexpr uint8_t kCmdCreateGroup = 8;   // host id, seq, member refs
inline constexpr uint8_t kCmdWatch = 9;         // host id, group id
inline constexpr uint8_t kCmdStats = 10;        // generation: snapshot counters
inline constexpr uint8_t kCmdKillNode = 11;     // host id: in-place node crash
                                                // (multi-tenant worker keeps
                                                // running its other nodes)
inline constexpr uint8_t kCmdSignal = 12;       // host id, group id: explicit
                                                // FuseNode::SignalFailure

// Worker -> controller events.
inline constexpr uint8_t kEvHello = 32;             // widx, incarnation, port, transport
inline constexpr uint8_t kEvJoinResult = 33;        // seq, ok
inline constexpr uint8_t kEvCreateGroupResult = 34; // seq, ok, group id
inline constexpr uint8_t kEvNotify = 35;            // group id, host id
inline constexpr uint8_t kEvStats = 36;             // generation, counters

// ---------------------------------------------------------------------------
// kCmdAddrs codec. The frame carries the transport kind (a config-skew
// tripwire: a worker built for UDP must never apply a TCP controller's map)
// and the controller's full PeerAddressMap; the worker overlays it onto its
// fabric, so a re-advertised host retargets in-flight retransmits.
// ---------------------------------------------------------------------------

inline void EncodeAddrs(Writer& w, TransportKind transport, const PeerAddressMap& addrs) {
  w.PutU8(kCmdAddrs);
  w.PutU8(static_cast<uint8_t>(transport));
  addrs.EncodeTo(w);
}

struct AddrsFrame {
  TransportKind transport = TransportKind::kInProcess;
  PeerAddressMap addrs;
};

// Decodes the body of a kCmdAddrs frame (opcode byte already consumed).
inline bool DecodeAddrs(Reader& r, AddrsFrame* out) {
  out->transport = static_cast<TransportKind>(r.GetU8());
  return r.ok() && out->addrs.DecodeFrom(r) && r.Done();
}

}  // namespace ctrl
}  // namespace fuse

#endif  // FUSE_RUNTIME_CONTROL_PROTOCOL_H_
