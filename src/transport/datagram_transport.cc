#include "transport/datagram_transport.h"

#if defined(__linux__)

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "common/logging.h"
#include "common/serialize.h"

namespace fuse {

namespace {

// Record kinds inside a datagram.
constexpr uint8_t kRecData = 1;
constexpr uint8_t kRecAck = 2;

// Fixed encoded sizes (see Encode* below).
constexpr size_t kDataHeaderBytes = 1 + 8 + 8 + 8 + 8 + 2 + 1 + 4;  // 40
constexpr size_t kAckRecordBytes = 1 + 8 + 8 + 8;                   // 25

// A single record larger than the MTU budget still fits one datagram, up to
// the practical UDP maximum; beyond that the send fails outright.
constexpr size_t kMaxDatagramBytes = 60000;

// sendmmsg/recvmmsg batch width per syscall.
constexpr unsigned kMmsgBatch = 32;

int OpenUdpSocket() {
  return ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
}

sockaddr_in LoopbackAddr(uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  return addr;
}

sockaddr_in AddrFor(const PeerEndpoint& ep) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(ep.ip);
  addr.sin_port = htons(ep.port);
  return addr;
}

// Packs a datagram source into the same (ip, port) key PeerEndpoint::Key
// produces, so ack batches aggregate per sending fabric across machines.
uint64_t SrcKey(const sockaddr_in& src) {
  return (uint64_t{ntohl(src.sin_addr.s_addr)} << 16) | ntohs(src.sin_port);
}

}  // namespace

// --- DatagramFabric: setup ------------------------------------------------

DatagramFabric::DatagramFabric(LiveRuntime* rt) : DatagramFabric(rt, Options()) {}

DatagramFabric::DatagramFabric(LiveRuntime* rt, Options opts)
    : Fabric(rt), opts_(opts), rng_(opts.seed) {
  stats_.min_cwnd = opts_.cwnd_max;
  flush_timer_.Bind(*rt_);
  rto_timer_.Bind(*rt_);
}

DatagramFabric::~DatagramFabric() {
  flush_timer_.Cancel();
  rto_timer_.Cancel();
  if (fd_ >= 0) {
    rt_->UnwatchFd(fd_);
    ::close(fd_);
  }
}

uint16_t DatagramFabric::Listen() {
  FUSE_CHECK(fd_ < 0) << "Listen called twice";
  fd_ = OpenUdpSocket();
  FUSE_CHECK(fd_ >= 0) << "socket(SOCK_DGRAM) failed: " << std::strerror(errno);
  // Bursty coalesced traffic from 64 peers overruns the default buffers;
  // best-effort (the retransmit layer recovers from drops either way).
  int bytes = 4 << 20;
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &bytes, sizeof(bytes));
  ::setsockopt(fd_, SOL_SOCKET, SO_SNDBUF, &bytes, sizeof(bytes));
  sockaddr_in addr = LoopbackAddr(0);
  FUSE_CHECK(::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0)
      << "bind(127.0.0.1:0/udp) failed: " << std::strerror(errno);
  socklen_t len = sizeof(addr);
  FUSE_CHECK(::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) == 0);
  port_ = ntohs(addr.sin_port);
  // Sessions disambiguate incarnations for receiver-side dedupe; the port
  // mixes in so same-seeded fabrics in one run get distinct streams.
  session_id_ = Rng(opts_.seed ^ (uint64_t{port_} * 0x9e3779b97f4a7c15ULL)).NextU64();
  rt_->WatchFd(fd_, EPOLLIN, [this](uint32_t ev) { OnReadable(ev); });
  return port_;
}

void DatagramFabric::FailSend(Transport::SendCallback cb, const char* why) {
  stats_.broken_sends++;
  FailLater(std::move(cb), why);
}

// --- DatagramFabric: send path --------------------------------------------

DatagramFabric::PeerState* DatagramFabric::PeerFor(HostId to) {
  auto& p = peers_[to.value];
  if (p == nullptr) {
    p = std::make_unique<PeerState>();
    p->to = to;
    p->cwnd = opts_.cwnd_max;
  }
  return p.get();
}

void DatagramFabric::SendFrom(HostId /*from*/, WireMessage msg, Transport::SendCallback cb) {
  rt_->metrics().IncMessage(msg.category, msg.WireSize());
  if (IsLocal(msg.to)) {
    // Same-process destination: no datagram involved.
    SendLocal(std::move(msg), std::move(cb), "datagram: fault rules");
    return;
  }
  if (!addrs_.Contains(msg.to)) {
    FailSend(std::move(cb), "datagram: no address for destination");
    return;
  }
  // Note: no sender-side fast-fail on fault rules here. Datagram loss is
  // silence — blocked records are silently skipped at pack time and the
  // retransmit budget converts a persistent block into kBroken.
  PeerState* p = PeerFor(msg.to);
  const uint64_t seq = p->next_seq++;

  Writer w;
  w.PutU8(kRecData);
  w.PutU64(session_id_);
  w.PutU64(seq);
  w.PutU64(msg.from.value);
  w.PutU64(msg.to.value);
  w.PutU16(msg.type);
  w.PutU8(static_cast<uint8_t>(msg.category));
  w.PutU32(static_cast<uint32_t>(msg.payload.size()));
  w.PutBytes(msg.payload.data(), msg.payload.size());
  if (w.bytes().size() > kMaxDatagramBytes) {
    FailSend(std::move(cb), "datagram: message too large");
    return;
  }

  Unacked u;
  u.wire = w.Take();
  u.cb = std::move(cb);
  u.from = msg.from;
  p->unacked.emplace(seq, std::move(u));
  if (p->inflight < p->cwnd) {
    Admit(p, seq);
    ScheduleFlush(p);
  } else {
    p->waiting.push_back(seq);
  }
}

void DatagramFabric::Admit(PeerState* p, uint64_t seq) {
  auto it = p->unacked.find(seq);
  if (it == p->unacked.end()) {
    return;
  }
  Unacked& u = it->second;
  u.admitted = true;
  u.deadline = rt_->Now() + opts_.rto_initial;
  u.rto = std::min(opts_.rto_initial * int64_t{2}, opts_.rto_max);
  p->inflight++;
  stats_.max_inflight = std::max<uint64_t>(stats_.max_inflight, p->inflight);
  p->ready.push_back(seq);
  p->ready_bytes += u.wire.size();
  // Cheap arm: only move the timer earlier. The full earliest-deadline scan
  // runs on fire/flush, not on the per-message hot path.
  if (!rto_timer_.pending() || u.deadline < rto_deadline_) {
    rto_deadline_ = u.deadline;
    rto_timer_.Start(opts_.rto_initial, [this] { ProcessRtos(); });
  }
}

void DatagramFabric::AdmitWaiting(PeerState* p) {
  while (p->inflight < p->cwnd && !p->waiting.empty()) {
    const uint64_t seq = p->waiting.front();
    p->waiting.pop_front();
    Admit(p, seq);
  }
}

void DatagramFabric::ScheduleFlush(PeerState* p) {
  if (p->ready_bytes >= opts_.mtu_budget) {
    FlushAll();
    return;
  }
  if (!flush_timer_.pending()) {
    flush_timer_.Start(opts_.coalesce_horizon, [this] { FlushAll(); });
  }
}

void DatagramFabric::FlushAll() {
  flush_timer_.Cancel();
  const TimePoint now = rt_->Now();
  std::vector<OutDatagram> batch;
  for (auto& [to_key, peer] : peers_) {
    PeerState* p = peer.get();
    if (p->ready.empty()) {
      continue;
    }
    // Per-transmit resolution: a retransmit after the peer re-advertised (a
    // restarted worker on a fresh port) goes to the *new* endpoint.
    const PeerEndpoint* ep = addrs_.Find(HostId(to_key));
    OutDatagram cur;
    if (ep != nullptr) {
      cur.addr = AddrFor(*ep);
    }
    for (const uint64_t seq : p->ready) {
      auto uit = p->unacked.find(seq);
      if (uit == p->unacked.end() || !uit->second.admitted) {
        continue;  // acked or failed while queued
      }
      Unacked& u = uit->second;
      u.attempts++;
      if (ep == nullptr) {
        continue;  // no address (stale retransmit): stays unacked, RTO decides
      }
      // Native datagram fault semantics: a blocked or burst-lost record is
      // silently not transmitted. It stays unacked; the retransmit layer
      // either delivers it once the rule lifts or exhausts into kBroken.
      if (faults_.IsBlocked(u.from, p->to)) {
        continue;
      }
      const double loss = faults_.BurstLossProbability(u.from, p->to, now);
      if (loss > 0.0 && rng_.Bernoulli(loss)) {
        continue;
      }
      Duration delay = faults_.ExtraDelay(u.from, p->to);
      const Duration jitter = faults_.ReorderJitterFor(u.from, p->to);
      if (jitter > Duration::Zero()) {
        delay += Duration::Micros(rng_.UniformInt(0, jitter.ToMicros()));
      }
      if (delay > Duration::Zero()) {
        // Delayed records ride their own datagram so the rest of the batch
        // is not held back; reordering across batch boundaries is the point.
        OutDatagram solo;
        solo.addr = cur.addr;
        solo.bytes = u.wire;
        solo.records = 1;
        rt_->Schedule(delay, [this, g = std::move(solo)] { SendOne(g); });
        continue;
      }
      if (!cur.bytes.empty() && cur.bytes.size() + u.wire.size() > opts_.mtu_budget) {
        batch.push_back(std::move(cur));
        cur = OutDatagram{};
        cur.addr = AddrFor(*ep);
      }
      cur.bytes.insert(cur.bytes.end(), u.wire.begin(), u.wire.end());
      cur.records++;
    }
    if (!cur.bytes.empty()) {
      batch.push_back(std::move(cur));
    }
    p->ready.clear();
    p->ready_bytes = 0;
  }
  TransmitBatch(std::move(batch));
  ArmRtoTimer();
}

void DatagramFabric::TransmitBatch(std::vector<OutDatagram> grams) {
  if (grams.empty() || fd_ < 0) {
    return;
  }
  Metrics& m = rt_->metrics();
  size_t i = 0;
  while (i < grams.size()) {
    const unsigned n = static_cast<unsigned>(
        std::min<size_t>(kMmsgBatch, grams.size() - i));
    mmsghdr hdrs[kMmsgBatch];
    iovec iovs[kMmsgBatch];
    std::memset(hdrs, 0, sizeof(mmsghdr) * n);
    for (unsigned j = 0; j < n; ++j) {
      OutDatagram& g = grams[i + j];
      iovs[j].iov_base = g.bytes.data();
      iovs[j].iov_len = g.bytes.size();
      hdrs[j].msg_hdr.msg_name = &g.addr;
      hdrs[j].msg_hdr.msg_namelen = sizeof(g.addr);
      hdrs[j].msg_hdr.msg_iov = &iovs[j];
      hdrs[j].msg_hdr.msg_iovlen = 1;
    }
    const int sent = ::sendmmsg(fd_, hdrs, n, 0);
    if (sent < 0 && (errno == ENOSYS || errno == EOPNOTSUPP)) {
      // Portable fallback: one syscall per datagram.
      for (size_t k = i; k < grams.size(); ++k) {
        SendOne(grams[k]);
      }
      return;
    }
    m.IncCounter(Counter::kTransportSendSyscalls);
    if (sent <= 0) {
      // EAGAIN (send buffer full) or a transient error: the rest of the
      // batch is dropped on the floor — it is UDP, the RTO recovers.
      return;
    }
    used_mmsg_ = true;
    for (int j = 0; j < sent; ++j) {
      m.IncCounter(Counter::kTransportDatagramsSent);
      m.IncCounter(Counter::kTransportRecordsSent, grams[i + j].records);
    }
    i += static_cast<size_t>(sent);
  }
}

void DatagramFabric::SendOne(const OutDatagram& g) {
  if (fd_ < 0) {
    return;
  }
  Metrics& m = rt_->metrics();
  m.IncCounter(Counter::kTransportSendSyscalls);
  const ssize_t n = ::sendto(fd_, g.bytes.data(), g.bytes.size(), 0,
                             reinterpret_cast<const sockaddr*>(&g.addr), sizeof(g.addr));
  if (n == static_cast<ssize_t>(g.bytes.size())) {
    m.IncCounter(Counter::kTransportDatagramsSent);
    m.IncCounter(Counter::kTransportRecordsSent, g.records);
  }
}

// --- DatagramFabric: retransmit timer -------------------------------------

void DatagramFabric::ArmRtoTimer() {
  TimePoint earliest = TimePoint() + Duration::Max();
  bool any = false;
  for (const auto& [to_key, peer] : peers_) {
    for (const auto& [seq, u] : peer->unacked) {
      if (u.admitted && (!any || u.deadline < earliest)) {
        earliest = u.deadline;
        any = true;
      }
    }
  }
  if (!any) {
    rto_timer_.Cancel();
    return;
  }
  const TimePoint now = rt_->Now();
  const Duration delta = earliest > now ? earliest - now : Duration::Zero();
  rto_deadline_ = earliest;
  rto_timer_.Start(delta, [this] { ProcessRtos(); });
}

void DatagramFabric::ProcessRtos() {
  const TimePoint now = rt_->Now();
  bool queued = false;
  for (auto& [to_key, peer] : peers_) {
    PeerState* p = peer.get();
    std::vector<uint64_t> due;
    for (const auto& [seq, u] : p->unacked) {
      if (u.admitted && u.deadline <= now) {
        due.push_back(seq);
      }
    }
    if (due.empty()) {
      continue;
    }
    // Congestion restraint: any timeout halves this peer's window once per
    // sweep (multiplicative decrease), so loss cannot amplify load.
    p->cwnd = std::max(opts_.cwnd_min, p->cwnd / 2);
    stats_.min_cwnd = std::min(stats_.min_cwnd, p->cwnd);
    for (const uint64_t seq : due) {
      auto it = p->unacked.find(seq);
      Unacked& u = it->second;
      if (u.attempts > opts_.max_retransmits) {
        // Silence exhausted the budget: the peer is gone (or the rule set
        // is a partition). This is the datagram analogue of a broken
        // connection.
        Transport::SendCallback cb = std::move(u.cb);
        p->unacked.erase(it);
        p->inflight--;
        FailSend(std::move(cb), "datagram: retransmit budget exhausted");
        continue;
      }
      u.deadline = now + u.rto;
      u.rto = std::min(u.rto * int64_t{2}, opts_.rto_max);
      p->ready.push_back(seq);
      p->ready_bytes += u.wire.size();
      rt_->metrics().IncCounter(Counter::kRetransmitsTotal);
      stats_.retransmits++;
      queued = true;
    }
    AdmitWaiting(p);
    if (!p->ready.empty()) {
      queued = true;
    }
  }
  if (queued) {
    FlushAll();  // also re-arms the timer
  } else {
    ArmRtoTimer();
  }
}

// --- DatagramFabric: receive path -----------------------------------------

void DatagramFabric::OnReadable(uint32_t) {
  static thread_local std::vector<uint8_t> bufs(kMmsgBatch * (kMaxDatagramBytes + 512));
  bool try_mmsg = true;
  for (;;) {
    if (try_mmsg) {
      mmsghdr hdrs[kMmsgBatch];
      iovec iovs[kMmsgBatch];
      sockaddr_in srcs[kMmsgBatch];
      std::memset(hdrs, 0, sizeof(hdrs));
      for (unsigned j = 0; j < kMmsgBatch; ++j) {
        iovs[j].iov_base = bufs.data() + j * (kMaxDatagramBytes + 512);
        iovs[j].iov_len = kMaxDatagramBytes + 512;
        hdrs[j].msg_hdr.msg_name = &srcs[j];
        hdrs[j].msg_hdr.msg_namelen = sizeof(srcs[j]);
        hdrs[j].msg_hdr.msg_iov = &iovs[j];
        hdrs[j].msg_hdr.msg_iovlen = 1;
      }
      const int got = ::recvmmsg(fd_, hdrs, kMmsgBatch, 0, nullptr);
      if (got < 0 && (errno == ENOSYS || errno == EOPNOTSUPP)) {
        try_mmsg = false;
        continue;
      }
      rt_->metrics().IncCounter(Counter::kTransportRecvSyscalls);
      if (got <= 0) {
        break;  // EAGAIN: drained
      }
      used_mmsg_ = true;
      for (int j = 0; j < got; ++j) {
        HandleDatagram(static_cast<const uint8_t*>(iovs[j].iov_base), hdrs[j].msg_len,
                       srcs[j]);
      }
      if (static_cast<unsigned>(got) < kMmsgBatch) {
        break;  // short batch: socket drained
      }
    } else {
      sockaddr_in src{};
      socklen_t slen = sizeof(src);
      rt_->metrics().IncCounter(Counter::kTransportRecvSyscalls);
      const ssize_t n = ::recvfrom(fd_, bufs.data(), kMaxDatagramBytes + 512, 0,
                                   reinterpret_cast<sockaddr*>(&src), &slen);
      if (n <= 0) {
        break;
      }
      HandleDatagram(bufs.data(), static_cast<size_t>(n), src);
    }
  }
  FlushAcks();
}

void DatagramFabric::HandleDatagram(const uint8_t* data, size_t len, const sockaddr_in& src) {
  size_t off = 0;
  while (off < len) {
    const uint8_t kind = data[off];
    if (kind == kRecData) {
      if (len - off < kDataHeaderBytes) {
        return;  // truncated: drop the tail
      }
      Reader r(data + off, kDataHeaderBytes);
      r.GetU8();  // kind
      const uint64_t session = r.GetU64();
      const uint64_t seq = r.GetU64();
      WireMessage msg;
      msg.from = HostId(r.GetU64());
      msg.to = HostId(r.GetU64());
      msg.type = r.GetU16();
      msg.category = static_cast<MsgCategory>(r.GetU8());
      const uint32_t plen = r.GetU32();
      if (!r.ok() || len - off - kDataHeaderBytes < plen) {
        return;
      }
      msg.payload = PayloadBuf(data + off + kDataHeaderBytes, plen);
      off += kDataHeaderBytes + plen;

      // Receiver-side rule check: a partition applied while the datagram was
      // in flight silently refuses it — no ack, so the sender retransmits.
      if (faults_.IsBlocked(msg.from, msg.to) || !IsLocal(msg.to)) {
        continue;
      }
      RecvState& rs = recv_[session][msg.to.value];
      const bool duplicate = seq <= rs.watermark || rs.above.contains(seq);
      if (duplicate) {
        // A retransmit raced our ack. Suppress redelivery but re-ack: the
        // first ack may be the thing that was lost.
        rt_->metrics().IncCounter(Counter::kAcksDedupedTotal);
      } else {
        if (seq == rs.watermark + 1) {
          rs.watermark = seq;
          auto it = rs.above.begin();
          while (it != rs.above.end() && it->first == rs.watermark + 1) {
            rs.watermark = it->first;
            it = rs.above.erase(it);
          }
        } else {
          rs.above.emplace(seq, true);
        }
        DispatchLocal(msg);
      }
      // The ack travels the reverse path and is subject to the same native
      // fault semantics: blocked or burst-lost acks are silence.
      if (faults_.IsBlocked(msg.to, msg.from)) {
        continue;
      }
      const double loss = faults_.BurstLossProbability(msg.to, msg.from, rt_->Now());
      if (loss > 0.0 && rng_.Bernoulli(loss)) {
        continue;
      }
      QueueAck(src, session, seq, msg.to);
    } else if (kind == kRecAck) {
      if (len - off < kAckRecordBytes) {
        return;
      }
      HandleAckRecord(data + off, kAckRecordBytes);
      off += kAckRecordBytes;
    } else {
      return;  // unrecognized record: drop the rest of the datagram
    }
  }
}

void DatagramFabric::QueueAck(const sockaddr_in& src, uint64_t session, uint64_t seq,
                              HostId acker) {
  Writer w;
  w.PutU8(kRecAck);
  w.PutU64(session);
  w.PutU64(seq);
  w.PutU64(acker.value);
  auto& buf = ack_batch_[SrcKey(src)];
  buf.insert(buf.end(), w.bytes().begin(), w.bytes().end());
}

void DatagramFabric::FlushAcks() {
  if (ack_batch_.empty()) {
    return;
  }
  std::vector<OutDatagram> batch;
  for (auto& [src_key, buf] : ack_batch_) {
    size_t off = 0;
    while (off < buf.size()) {
      const size_t chunk =
          std::min(buf.size() - off,
                   (opts_.mtu_budget / kAckRecordBytes) * kAckRecordBytes);
      OutDatagram g;
      g.addr = AddrFor(PeerEndpoint{static_cast<uint32_t>(src_key >> 16),
                                    static_cast<uint16_t>(src_key & 0xffff)});
      g.bytes.assign(buf.begin() + static_cast<ptrdiff_t>(off),
                     buf.begin() + static_cast<ptrdiff_t>(off + chunk));
      g.records = 0;  // acks are not data records (batch occupancy excludes them)
      batch.push_back(std::move(g));
      off += chunk;
    }
  }
  ack_batch_.clear();
  TransmitBatch(std::move(batch));
}

void DatagramFabric::HandleAckRecord(const uint8_t* rec, size_t len) {
  Reader r(rec, len);
  r.GetU8();  // kind
  const uint64_t session = r.GetU64();
  const uint64_t seq = r.GetU64();
  const HostId acker(r.GetU64());
  if (!r.ok() || session != session_id_) {
    return;  // an ack for a previous incarnation of this port
  }
  const auto pit = peers_.find(acker.value);
  if (pit == peers_.end()) {
    return;
  }
  PeerState* p = pit->second.get();
  auto it = p->unacked.find(seq);
  if (it == p->unacked.end()) {
    return;  // duplicate ack (retransmit crossed the first ack)
  }
  Transport::SendCallback cb = std::move(it->second.cb);
  const bool was_admitted = it->second.admitted;
  p->unacked.erase(it);
  if (was_admitted) {
    p->inflight--;
  }
  // Additive increase; the window reopens after a loss episode ends.
  p->cwnd = std::min(opts_.cwnd_max, p->cwnd + 1);
  AdmitWaiting(p);
  if (!p->ready.empty()) {
    ScheduleFlush(p);
  }
  if (cb) {
    cb(Status::Ok());
  }
}

// --- probing --------------------------------------------------------------

bool DatagramSupportsMmsg() {
  const int fd = OpenUdpSocket();
  if (fd < 0) {
    return false;
  }
  sockaddr_in addr = LoopbackAddr(0);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return false;
  }
  socklen_t len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  uint8_t byte = 0;
  iovec iov{&byte, 1};
  mmsghdr hdr{};
  hdr.msg_hdr.msg_name = &addr;
  hdr.msg_hdr.msg_namelen = sizeof(addr);
  hdr.msg_hdr.msg_iov = &iov;
  hdr.msg_hdr.msg_iovlen = 1;
  const int sent = ::sendmmsg(fd, &hdr, 1, 0);
  const bool ok = sent == 1;
  ::close(fd);
  return ok;
}

}  // namespace fuse

#endif  // defined(__linux__)
