#include "transport/socket_transport.h"

#if defined(__linux__)

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "common/logging.h"
#include "common/serialize.h"

namespace fuse {

namespace {

// Frame kinds inside the length prefix.
constexpr uint8_t kFrameData = 1;
constexpr uint8_t kFrameAck = 2;   // delivered (dispatched or ignored) at dest
constexpr uint8_t kFrameNack = 3;  // refused: fault rules / not local here

int SetNonBlockingSocket() {
  return ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
}

// Drops the consumed prefix [0, head) of `buf`: all of it once everything is
// consumed, giving back capacity above the cap; otherwise only once the
// prefix is large and at least half the buffer, so compaction stays
// amortized O(1) per byte.
void Compact(std::vector<uint8_t>& buf, size_t& head) {
  if (head == buf.size()) {
    if (buf.capacity() > FramedSocket::kBufferCapBytes) {
      std::vector<uint8_t>().swap(buf);
    } else {
      buf.clear();
    }
    head = 0;
  } else if (head >= FramedSocket::kBufferCapBytes && head * 2 >= buf.size()) {
    buf.erase(buf.begin(), buf.begin() + static_cast<ptrdiff_t>(head));
    head = 0;
  }
}

}  // namespace

// --- FramedSocket ---------------------------------------------------------

void FramedSocket::Adopt(int fd, bool connecting) {
  FUSE_CHECK(fd_ < 0) << "FramedSocket already has an fd";
  fd_ = fd;
  connecting_ = connecting;
  mask_ = connecting ? static_cast<uint32_t>(EPOLLIN | EPOLLOUT)
                     : static_cast<uint32_t>(EPOLLIN);
  rt_->WatchFd(fd_, mask_, [this](uint32_t ev) { OnEvents(ev); });
}

void FramedSocket::CloseFd() {
  if (flush_hook_ != 0) {
    rt_->CancelBeforeWait(flush_hook_);
    flush_hook_ = 0;
  }
  std::vector<uint8_t>().swap(out_);
  out_head_ = 0;
  if (fd_ >= 0) {
    rt_->UnwatchFd(fd_);
    ::close(fd_);
    fd_ = -1;
  }
}

void FramedSocket::UpdateMask() {
  const uint32_t want =
      EPOLLIN | (out_head_ < out_.size() ? static_cast<uint32_t>(EPOLLOUT) : 0u);
  if (want != mask_ && fd_ >= 0) {
    mask_ = want;
    rt_->ModifyFd(fd_, want);
  }
}

void FramedSocket::SendFrame(const uint8_t* data, size_t len) {
  if (!open()) {
    return;
  }
  const uint32_t n = static_cast<uint32_t>(len);
  const size_t at = out_.size();
  out_.resize(at + 4 + len);
  std::memcpy(out_.data() + at, &n, 4);
  std::memcpy(out_.data() + at + 4, data, len);
  if ((mask_ & EPOLLOUT) != 0) {
    return;  // backpressure: the writable event flushes
  }
  if (out_.size() - out_head_ >= kBufferCapBytes) {
    Flush();
  } else if (flush_hook_ == 0) {
    flush_hook_ = rt_->RunBeforeWait([this] {
      flush_hook_ = 0;
      Flush();
    });
  }
}

void FramedSocket::Flush() {
  TryFlush();
  UpdateMask();
}

void FramedSocket::TryFlush() {
  while (out_head_ < out_.size()) {
    rt_->metrics().IncCounter(Counter::kTransportSendSyscalls);
    const ssize_t n = ::send(fd_, out_.data() + out_head_, out_.size() - out_head_,
                             MSG_NOSIGNAL);
    if (n > 0) {
      out_head_ += static_cast<size_t>(n);
      continue;
    }
    // EAGAIN: EPOLLOUT resumes the flush. A hard write error surfaces as
    // EPOLLERR/HUP on the next wait; the read path reports the close exactly
    // once.
    break;
  }
  // Under sustained backpressure this keeps the buffer bounded by the unsent
  // backlog, not total traffic.
  Compact(out_, out_head_);
}

bool FramedSocket::DeliverFrames() {
  // on_frame_ must not destroy this socket (the fabric never tears a
  // connection down from its own inbound frame).
  while (in_.size() - in_head_ >= 4) {
    uint32_t frame_len;
    std::memcpy(&frame_len, in_.data() + in_head_, 4);
    if (frame_len > kMaxFrameBytes) {
      CloseFd();
      if (auto fn = on_close_) {
        fn();
      }
      return false;
    }
    if (in_.size() - in_head_ < 4 + static_cast<size_t>(frame_len)) {
      break;
    }
    const uint8_t* body = in_.data() + in_head_ + 4;
    in_head_ += 4 + frame_len;
    if (on_frame_) {
      on_frame_(body, frame_len);
    }
    if (fd_ < 0) {
      return false;  // a frame handler closed us (corrupt stream)
    }
  }
  Compact(in_, in_head_);
  return true;
}

void FramedSocket::OnEvents(uint32_t events) {
  if (fd_ < 0) {
    return;  // spurious: already closed within this epoll batch
  }
  if (connecting_) {
    if ((events & (EPOLLOUT | EPOLLERR | EPOLLHUP)) == 0) {
      return;  // spurious wakeup: the connect has not resolved yet
    }
    int err = 0;
    socklen_t len = sizeof(err);
    ::getsockopt(fd_, SOL_SOCKET, SO_ERROR, &err, &len);
    const bool ok = err == 0 && (events & (EPOLLERR | EPOLLHUP)) == 0;
    connecting_ = false;
    if (!ok) {
      CloseFd();
    } else {
      UpdateMask();
    }
    // Tail position: the handler may retry with a fresh Adopt or destroy us.
    if (auto fn = on_connect_) {
      fn(ok);
    }
    return;
  }
  if (events & EPOLLOUT) {
    Flush();
  }
  if ((events & (EPOLLIN | EPOLLERR | EPOLLHUP)) == 0) {
    return;
  }
  uint8_t buf[65536];
  for (;;) {
    rt_->metrics().IncCounter(Counter::kTransportRecvSyscalls);
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      // Deliver each chunk's frames before reading the next, so a burst is
      // never buffered whole.
      in_.insert(in_.end(), buf, buf + n);
      if (!DeliverFrames()) {
        return;
      }
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return;
    }
    // EOF or hard error. Complete frames already read were delivered above:
    // a peer's final acks and control frames do not vanish with its
    // connection. Tail position: the handler may destroy this object.
    CloseFd();
    if (auto fn = on_close_) {
      fn();
    }
    return;
  }
}

// --- SocketFabric ---------------------------------------------------------

SocketFabric::SocketFabric(LiveRuntime* rt) : SocketFabric(rt, Options()) {}

SocketFabric::SocketFabric(LiveRuntime* rt, Options opts) : Fabric(rt), opts_(opts) {}

SocketFabric::~SocketFabric() {
  // The runtime may already be stopped (Unwatch on a dead loop is fine: the
  // fd table is just a map), but close everything explicitly so worker
  // teardown does not leak fds into forked siblings.
  if (listen_fd_ >= 0) {
    rt_->UnwatchFd(listen_fd_);
    ::close(listen_fd_);
  }
}

uint16_t SocketFabric::Listen() {
  FUSE_CHECK(listen_fd_ < 0) << "Listen called twice";
  listen_fd_ = SetNonBlockingSocket();
  FUSE_CHECK(listen_fd_ >= 0) << "socket() failed: " << std::strerror(errno);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;  // ephemeral
  FUSE_CHECK(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0)
      << "bind(127.0.0.1:0) failed: " << std::strerror(errno);
  FUSE_CHECK(::listen(listen_fd_, 128) == 0) << "listen failed: " << std::strerror(errno);
  socklen_t len = sizeof(addr);
  FUSE_CHECK(::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) == 0);
  listen_port_ = ntohs(addr.sin_port);
  rt_->WatchFd(listen_fd_, EPOLLIN, [this](uint32_t ev) { OnAccept(ev); });
  return listen_port_;
}

void SocketFabric::OnAccept(uint32_t) {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      return;  // EAGAIN or a transient error; epoll re-arms us
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    // Reuse a closed slot so long churn runs do not grow the vector.
    size_t slot = inbound_.size();
    for (size_t i = 0; i < inbound_.size(); ++i) {
      if (inbound_[i] == nullptr) {
        slot = i;
        break;
      }
    }
    if (slot == inbound_.size()) {
      inbound_.emplace_back();
    }
    inbound_[slot] = std::make_unique<FramedSocket>(rt_);
    FramedSocket* s = inbound_[slot].get();
    s->set_on_frame([this, slot](const uint8_t* d, size_t l) { OnInboundFrame(slot, d, l); });
    s->set_on_close([this, slot] { inbound_[slot] = nullptr; });
    s->Adopt(fd, /*connecting=*/false);
  }
}

void SocketFabric::SendFrom(HostId from, WireMessage msg, Transport::SendCallback cb) {
  rt_->metrics().IncMessage(msg.category, msg.WireSize());
  if (faults_.IsBlocked(from, msg.to)) {
    if (cb) {
      rt_->Schedule(opts_.blocked_fail_delay,
                    [cb = std::move(cb)] { cb(Status::Broken("socket: fault rules")); });
    }
    return;
  }
  if (IsLocal(msg.to)) {
    // Acked from the delivery outcome, mirroring the remote path.
    SendLocal(std::move(msg), std::move(cb), "socket: fault rules");
    return;
  }

  // Resolve the destination endpoint from the address map at send time; all
  // hosts behind the same endpoint (co-hosted nodes of one multi-tenant
  // worker) share one connection.
  const PeerEndpoint* ep = addrs_.Find(msg.to);
  if (ep == nullptr || !ep->valid()) {
    FailLater(std::move(cb), "socket: no address for destination");
    return;
  }
  const uint64_t key = ep->Key();
  auto it = conns_.find(key);
  if (it == conns_.end()) {
    auto conn = std::make_unique<OutConn>(rt_);
    conn->ep = *ep;
    conn->rep_host = msg.to;
    OutConn* c = conn.get();
    it = conns_.emplace(key, std::move(conn)).first;
    c->sock.set_on_frame([this, c](const uint8_t* d, size_t l) { OnPeerFrame(c, d, l); });
    c->sock.set_on_close([this, key] { BreakConn(key, "socket: connection broke"); });
    c->sock.set_on_connect([this, key](bool ok) { OnConnectResolved(key, ok); });
    StartConnect(c);
    if (conns_.find(key) == conns_.end()) {
      // The dial failed synchronously past its budget and broke the conn.
      FailLater(std::move(cb), "socket: connect failed");
      return;
    }
  }
  OutConn* c = it->second.get();

  const uint64_t seq = c->next_seq++;
  Writer w;
  w.PutU8(kFrameData);
  w.PutU64(seq);
  w.PutU64(msg.from.value);
  w.PutU64(msg.to.value);
  w.PutU16(msg.type);
  w.PutU8(static_cast<uint8_t>(msg.category));
  w.PutBytes(msg.payload.data(), msg.payload.size());
  if (cb) {
    c->awaiting.emplace(seq, std::move(cb));
  }
  if (c->sock.open()) {
    c->sock.SendFrame(w.bytes().data(), w.bytes().size());
  } else {
    c->queued.push_back(w.Take());
  }
}

void SocketFabric::StartConnect(OutConn* c) {
  // Re-resolve the representative host on every (re)dial: if the address map
  // moved it since this connection was created (a restarted incarnation on a
  // fresh port), the endpoint is stale — break the conn so queued sends fail
  // fast and protocol retries resolve the new endpoint.
  const PeerEndpoint* cur = addrs_.Find(c->rep_host);
  if (cur == nullptr || cur->Key() != c->ep.Key()) {
    BreakConn(c->ep.Key(), "socket: peer re-advertised elsewhere");
    return;
  }
  const int fd = SetNonBlockingSocket();
  if (fd < 0) {
    BreakConn(c->ep.Key(), "socket: socket() failed");
    return;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(c->ep.ip);
  addr.sin_port = htons(c->ep.port);
  const int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc == 0) {
    c->sock.Adopt(fd, /*connecting=*/false);
    OnConnectResolved(c->ep.Key(), true);
    return;
  }
  if (errno == EINPROGRESS) {
    c->sock.Adopt(fd, /*connecting=*/true);
    return;
  }
  ::close(fd);
  OnConnectResolved(c->ep.Key(), false);
}

void SocketFabric::OnConnectResolved(uint64_t ep_key, bool ok) {
  const auto it = conns_.find(ep_key);
  if (it == conns_.end()) {
    return;
  }
  OutConn* c = it->second.get();
  if (ok) {
    c->attempt = 0;
    for (auto& frame : c->queued) {
      c->sock.SendFrame(frame.data(), frame.size());
    }
    c->queued.clear();
    return;
  }
  if (++c->attempt >= opts_.max_connect_attempts) {
    BreakConn(ep_key, "socket: peer refused connection");
    return;
  }
  // Exponentialish backoff; the endpoint is re-resolved on each retry so a
  // restarted peer's fresh advertisement takes effect mid-dial.
  c->retry.Bind(*rt_);
  c->retry.Start(opts_.connect_retry_backoff * int64_t{c->attempt}, [this, ep_key] {
    const auto rit = conns_.find(ep_key);
    if (rit != conns_.end()) {
      StartConnect(rit->second.get());
    }
  });
}

void SocketFabric::OnPeerFrame(OutConn* c, const uint8_t* data, size_t len) {
  Reader r(data, len);
  const uint8_t kind = r.GetU8();
  const uint64_t seq = r.GetU64();
  if (!r.ok() || (kind != kFrameAck && kind != kFrameNack)) {
    return;  // not a recognized control frame; ignore
  }
  const auto it = c->awaiting.find(seq);
  if (it == c->awaiting.end()) {
    return;  // callback-less send, or already failed by a break
  }
  Transport::SendCallback cb = std::move(it->second);
  c->awaiting.erase(it);
  if (kind == kFrameAck) {
    cb(Status::Ok());
  } else {
    cb(Status::Broken("socket: delivery refused"));
  }
}

void SocketFabric::BreakConn(uint64_t ep_key, const char* why) {
  const auto it = conns_.find(ep_key);
  if (it == conns_.end()) {
    return;
  }
  // Detach the connection first: the failure callbacks below may re-enter
  // Send (protocol retries), which must dial a fresh connection.
  std::unique_ptr<OutConn> c = std::move(it->second);
  conns_.erase(it);
  c->retry.Cancel();
  c->sock.CloseFd();
  for (auto& [seq, cb] : c->awaiting) {
    FailLater(std::move(cb), why);
  }
  c->awaiting.clear();
  c->queued.clear();
}

void SocketFabric::OnInboundFrame(size_t conn_index, const uint8_t* data, size_t len) {
  Reader r(data, len);
  const uint8_t kind = r.GetU8();
  if (kind != kFrameData) {
    return;
  }
  const uint64_t seq = r.GetU64();
  WireMessage msg;
  msg.from = HostId(r.GetU64());
  msg.to = HostId(r.GetU64());
  msg.type = r.GetU16();
  msg.category = static_cast<MsgCategory>(r.GetU8());
  if (!r.ok()) {
    return;
  }
  const size_t payload_len = r.remaining();
  msg.payload = PayloadBuf(data + (len - payload_len), payload_len);

  // Delivery-time rule check (receiver side): a partition applied while the
  // frame was in flight refuses it here, and the sender hears kBroken — the
  // same per-attempt semantics as the in-process runtimes.
  uint8_t verdict = kFrameAck;
  if (faults_.IsBlocked(msg.from, msg.to) || !DispatchLocal(msg)) {
    verdict = kFrameNack;
  }
  FramedSocket* s = inbound_[conn_index].get();
  if (s != nullptr && s->open()) {
    Writer w;
    w.PutU8(verdict);
    w.PutU64(seq);
    s->SendFrame(w.bytes().data(), w.bytes().size());
  }
}

}  // namespace fuse

#endif  // defined(__linux__)
