// SocketFabric: a real TCP messaging layer for multi-process deployments.
//
// Where SimFabric models TCP analytically and LiveRuntime delivers in
// process, this fabric moves WireMessages between OS processes over
// length-prefixed frames on nonblocking loopback TCP sockets, driven by the
// owning LiveRuntime's epoll loop (one thread owns both I/O readiness and
// timer firing — no reader threads). Linux-only.
//
// Semantics match the Transport contract the sim fabric implements
// (transport.h / tcp_model.h): per-destination connections are dialed lazily
// with bounded nonblocking connect retries; frames carry an application-level
// sequence number and the receiver acknowledges each message after
// dispatching it, so the sender's callback reports Ok only once the message
// actually reached the destination process; when the connection breaks — the
// peer process died (SIGKILL), refused the connection past the retry budget,
// or reset mid-stream — every queued and unacknowledged send fails with
// kBroken ("TCP sockets will break under such adverse network conditions",
// paper section 7.6). In-order delivery per connection is inherited from TCP.
//
// Frames leave once per loop turn: a send only queues its frame, and the
// connection makes one send(2) for everything queued on it when the loop
// finishes the turn, or at once when its unsent backlog reaches
// FramedSocket::kBufferCapBytes. The acks a receiver owes for the frames
// it dispatched in a turn ride in the same write.
//
// Fault rules (the same FaultInjector vocabulary the other fabrics consult)
// are evaluated sender-side on every send AND receiver-side on every
// delivery: a message in flight across a partition boundary is refused by the
// receiver (kBroken at the sender), mirroring the delivery-time re-check of
// the in-process runtimes.
#ifndef FUSE_TRANSPORT_SOCKET_TRANSPORT_H_
#define FUSE_TRANSPORT_SOCKET_TRANSPORT_H_

#if defined(__linux__)

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "net/fault_injector.h"
#include "runtime/live_runtime.h"
#include "sim/timer.h"
#include "transport/fabric.h"
#include "transport/transport.h"

namespace fuse {

class SocketFabric;

// A nonblocking stream socket carrying [u32 length]-prefixed frames, driven
// by a LiveRuntime epoll loop. Used for the TCP data connections and for the
// process-deployment control channels (unix socketpairs). All methods must
// run on the loop thread.
//
// Writes are batched per loop turn: SendFrame appends to the outgoing buffer
// and marks the socket dirty, and the loop's before-wait hook
// (LiveRuntime::RunBeforeWait) makes one send(2) for everything the turn
// queued, data frames and acks alike. A socket whose unsent backlog reaches
// kBufferCapBytes flushes at once. Received bytes are delivered as frames
// after each recv(2) chunk. Both buffers give back capacity above
// kBufferCapBytes once drained, so a burst does not pin its peak.
class FramedSocket {
 public:
  // A frame larger than this is a corrupted stream, not a message.
  static constexpr uint32_t kMaxFrameBytes = 64u << 20;
  // Unsent bytes at which SendFrame flushes without waiting for the end of
  // the loop turn, and the capacity a drained buffer may keep for the next
  // burst.
  static constexpr size_t kBufferCapBytes = 64u << 10;

  // `on_frame` receives each complete frame body. `on_close` fires once on
  // EOF/error (tail position: it may destroy this FramedSocket). `on_connect`
  // resolves a nonblocking connect; on failure the socket is already closed
  // (the handler may retry with a fresh Adopt or destroy the object).
  using FrameHandler = std::function<void(const uint8_t* data, size_t len)>;

  explicit FramedSocket(LiveRuntime* rt) : rt_(rt) {}
  ~FramedSocket() { CloseFd(); }

  FramedSocket(const FramedSocket&) = delete;
  FramedSocket& operator=(const FramedSocket&) = delete;

  void set_on_frame(FrameHandler fn) { on_frame_ = std::move(fn); }
  void set_on_close(std::function<void()> fn) { on_close_ = std::move(fn); }
  void set_on_connect(std::function<void(bool ok)> fn) { on_connect_ = std::move(fn); }

  // Takes ownership of `fd` (nonblocking) and registers it with the loop.
  // `connecting` marks an in-flight nonblocking connect().
  void Adopt(int fd, bool connecting);

  // Queues one frame ([length] prefix added here); it leaves at the end of
  // the loop turn, or now if the backlog reached kBufferCapBytes.
  // Silently drops when not adopted/open yet — callers queue frames
  // themselves until on_connect(true).
  void SendFrame(const uint8_t* data, size_t len);

  bool open() const { return fd_ >= 0 && !connecting_; }
  int fd() const { return fd_; }
  // Capacity held by the receive and send buffers.
  size_t buffer_capacity() const { return in_.capacity() + out_.capacity(); }

  // Unwatches and closes, dropping unsent frames. Safe to call repeatedly.
  void CloseFd();

 private:
  void OnEvents(uint32_t events);
  // Delivers the complete frames in in_. Returns false if the socket closed.
  bool DeliverFrames();
  void Flush();
  void TryFlush();
  void UpdateMask();

  LiveRuntime* rt_;
  int fd_ = -1;
  bool connecting_ = false;
  uint32_t mask_ = 0;
  std::vector<uint8_t> in_;
  size_t in_head_ = 0;
  std::vector<uint8_t> out_;
  size_t out_head_ = 0;
  // Key of the pending end-of-turn flush (0: none).
  uint64_t flush_hook_ = 0;
  FrameHandler on_frame_;
  std::function<void()> on_close_;
  std::function<void(bool)> on_connect_;
};

class SocketFabric : public Fabric {
 public:
  struct Options {
    // Nonblocking connect retry budget: a freshly killed peer refuses
    // connections until its restarted incarnation advertises a new port, so
    // a bounded dial loop converts "process gone" into kBroken in
    // attempts * backoff time.
    int max_connect_attempts = 6;
    Duration connect_retry_backoff = Duration::Millis(20);
    // Sender-side fault-rule refusals report kBroken after this much delay
    // (a compressed stand-in for the broken-socket detection latency).
    Duration blocked_fail_delay = Duration::Millis(2);
  };

  explicit SocketFabric(LiveRuntime* rt);  // default options
  SocketFabric(LiveRuntime* rt, Options opts);
  ~SocketFabric() override;

  SocketFabric(const SocketFabric&) = delete;
  SocketFabric& operator=(const SocketFabric&) = delete;

  // Binds a loopback listener on an ephemeral port and starts accepting.
  // Returns the port (advertised to peers out of band by the deployment).
  uint16_t Listen() override;

  // Peer addresses come from the base Fabric's PeerAddressMap (SetPeerAddr /
  // ApplyAddressMap): every send resolves the destination endpoint from the
  // map, and every dial retry re-resolves it, so re-advertising a host (a
  // restarted incarnation on a fresh port) retargets traffic and a
  // connection to the stale endpoint is broken instead of retried.

  // The fault rules are evaluated sender-side on every send and
  // receiver-side on every delivery.
  void SendFrom(HostId from, WireMessage msg, Transport::SendCallback cb) override;

 private:
  struct OutConn {
    explicit OutConn(LiveRuntime* rt) : sock(rt) {}
    // Connections are per destination *endpoint*, not per destination host:
    // N co-hosted nodes behind one multi-tenant worker share one socket.
    PeerEndpoint ep;
    // Any host that resolved to `ep` when the conn was created; dial retries
    // re-resolve it to detect a re-advertised (moved) endpoint.
    HostId rep_host;
    int attempt = 0;
    FramedSocket sock;
    Timer retry;
    uint64_t next_seq = 1;
    // Frames not yet handed to an open socket (dial or retry in progress).
    std::vector<std::vector<uint8_t>> queued;
    // seq -> sender callback, fired on the receiver's ack/nack.
    std::unordered_map<uint64_t, Transport::SendCallback> awaiting;
  };

  void OnAccept(uint32_t events);
  void StartConnect(OutConn* c);
  void OnConnectResolved(uint64_t ep_key, bool ok);
  void OnPeerFrame(OutConn* c, const uint8_t* data, size_t len);
  void OnInboundFrame(size_t conn_index, const uint8_t* data, size_t len);
  // Fails every queued/unacknowledged send on the connection to `ep_key`
  // with kBroken and removes it (a later send resolves fresh — and picks up
  // a restarted peer's new endpoint).
  void BreakConn(uint64_t ep_key, const char* why);

  Options opts_;
  int listen_fd_ = -1;
  uint16_t listen_port_ = 0;
  std::unordered_map<uint64_t, std::unique_ptr<OutConn>> conns_;  // by PeerEndpoint::Key()
  // Accepted (inbound) connections; slots are reused after close.
  std::vector<std::unique_ptr<FramedSocket>> inbound_;
};

}  // namespace fuse

#endif  // defined(__linux__)
#endif  // FUSE_TRANSPORT_SOCKET_TRANSPORT_H_
