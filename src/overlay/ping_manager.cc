#include "overlay/ping_manager.h"

#include <utility>

namespace fuse {

namespace {
// Wire layout: u64 seq, then the client payload to the end of the message.
constexpr size_t kPingHeaderBytes = 8;
}  // namespace

PingManager::PingManager(Transport* transport, Duration period, Duration timeout, bool coalesce)
    : transport_(transport), period_(period), timeout_(timeout), coalesce_(coalesce) {
  transport_->RegisterHandler(msgtype::kOverlayPing,
                              [this](const WireMessage& m) { OnPing(m); });
  transport_->RegisterHandler(msgtype::kOverlayPingReply,
                              [this](const WireMessage& m) { OnPingReply(m); });
  if (coalesce_) {
    round_timer_.Bind(transport_->env());
    round_timeout_.Bind(transport_->env());
    round_timeout_.SetCallback([this] { OnRoundTimeout(); });
  }
}

PingManager::~PingManager() { Stop(); }

void PingManager::Start() {
  if (running_) {
    return;
  }
  running_ = true;
  if (coalesce_) {
    // One jittered phase for the whole batch: the cluster's rounds spread
    // over the period even though each node's pings leave together.
    const Duration phase =
        Duration::Micros(transport_->env().rng().UniformInt(0, period_.ToMicros()));
    round_timer_.Start(phase, period_, [this] { SendRound(); });
    return;
  }
  peers_.ForEach([this](uint64_t key, Peer& peer) {
    if (!peer.ping.running() && !peer.failed) {
      StartPeerPings(HostId(key));
    }
  });
}

void PingManager::Stop() {
  if (!running_) {
    return;
  }
  running_ = false;
  if (coalesce_) {
    round_timer_.Stop();
    round_timeout_.Cancel();
    peers_.ForEach([](uint64_t, Peer& peer) { peer.awaiting = false; });
    return;
  }
  peers_.ForEach([](uint64_t, Peer& peer) {
    peer.ping.Stop();
    peer.timeout.Cancel();
  });
}

void PingManager::UpdateNeighbors(const std::vector<HostId>& neighbors) {
  // Stamp every wanted peer with this round's epoch, creating the new ones;
  // whatever still carries an older stamp afterwards is no longer wanted.
  // No scratch map: the stamp lives in the peer entry.
  ++wanted_epoch_;
  for (const HostId h : neighbors) {
    Want(h).wanted_epoch = wanted_epoch_;
  }
  doomed_.clear();
  peers_.ForEach([this](uint64_t key, Peer& peer) {
    if (peer.wanted_epoch != wanted_epoch_) {
      doomed_.push_back(key);
    }
  });
  for (const uint64_t key : doomed_) {
    peers_.Erase(key);  // resets the entry: its timers auto-cancel
  }
}

void PingManager::AddPeer(HostId peer) { Want(peer); }

void PingManager::RemovePeer(HostId peer) {
  peers_.Erase(peer.value);  // resets the entry: its timers auto-cancel
}

PingManager::Peer& PingManager::Want(HostId h) {
  if (Peer* existing = peers_.Find(h.value); existing != nullptr) {
    return *existing;
  }
  Peer& p = peers_.FindOrInsert(h.value);
  if (coalesce_) {
    return p;  // no per-peer timers: the next round picks the peer up
  }
  p.ping.Bind(transport_->env());
  p.timeout.Bind(transport_->env());
  // The timeout callback is installed once; every subsequent ping just
  // rearms it (Restart), allocation-free.
  p.timeout.SetCallback([this, h] { HandleFailure(h); });
  if (running_) {
    StartPeerPings(h);  // schedules only: `p` stays valid
  }
  return p;
}

void PingManager::StartPeerPings(HostId peer) {
  Peer* p = peers_.Find(peer.value);
  if (p == nullptr || p->failed) {
    return;
  }
  // A jittered first ping spreads load over the period (matches the
  // steady-state message-rate accounting of section 7.5); afterwards the
  // cycle is strictly periodic.
  const Duration phase =
      Duration::Micros(transport_->env().rng().UniformInt(0, period_.ToMicros()));
  p->ping.Start(phase, period_, [this, peer] { SendPing(peer); });
}

void PingManager::SendPing(HostId peer) {
  Peer* p = peers_.Find(peer.value);
  if (p == nullptr || p->failed || !running_) {
    return;
  }
  // Keep the earliest outstanding deadline: if timeout >= period, a new
  // periodic send must not push out the failure verdict for the previous,
  // still-unanswered ping (a dead peer would never time out otherwise).
  if (!p->timeout.pending()) {
    p->timeout.Restart(timeout_);
  }
  SendPingTo(peer);
}

void PingManager::SendPingTo(HostId peer) {
  const uint64_t seq = next_seq_++;

  scratch_.Clear();
  scratch_.PutU64(seq);
  if (provider_) {
    provider_(peer, scratch_);
  }

  WireMessage msg;
  msg.to = peer;
  msg.type = msgtype::kOverlayPing;
  msg.category = MsgCategory::kOverlayPing;
  msg.payload = scratch_.TakeShared();

  transport_->Send(std::move(msg), [this, peer](const Status& s) {
    if (!s.ok()) {
      HandleFailure(peer);
    }
  });
}

void PingManager::SendRound() {
  if (!running_) {
    return;
  }
  // Snapshot the batch first: a synchronous send failure can reach client
  // code that mutates peers_ (UpdateNeighbors) under our feet.
  round_scratch_.clear();
  peers_.ForEach([this](uint64_t key, Peer& peer) {
    if (!peer.failed) {
      round_scratch_.push_back(key);
    }
  });
  const TimePoint now = transport_->env().Now();
  bool armed_any = false;
  for (const uint64_t key : round_scratch_) {
    Peer* p = peers_.Find(key);
    if (p == nullptr || p->failed) {
      continue;
    }
    SendPingTo(HostId(key));
    p = peers_.Find(key);  // the send's failure callback may have mutated peers_
    if (p == nullptr || p->failed) {
      continue;
    }
    if (!p->awaiting) {  // earliest-deadline rule, as in SendPing
      p->awaiting = true;
      p->deadline = now + timeout_;
      armed_any = true;
    }
  }
  // Invariant: whenever any peer is awaiting, round_timeout_ is pending (at
  // or before the earliest deadline) — so a non-pending timer here means the
  // batch's fresh deadline is the earliest.
  if (armed_any && !round_timeout_.pending()) {
    round_timeout_.Restart(timeout_);
  }
}

void PingManager::OnRoundTimeout() {
  const TimePoint now = transport_->env().Now();
  round_scratch_.clear();
  TimePoint next = TimePoint::Max();
  peers_.ForEach([&](uint64_t key, Peer& peer) {
    if (peer.failed || !peer.awaiting) {
      return;
    }
    if (peer.deadline <= now) {
      round_scratch_.push_back(key);
    } else if (peer.deadline < next) {
      next = peer.deadline;
    }
  });
  // Re-arm before reporting: failure handlers may reenter (UpdateNeighbors).
  // A removed peer at worst leaves one spurious no-op fire behind. Start, not
  // Restart: inside the timer's own callback the stored function is consumed
  // (see sim/timer.h), so a self-rearm must supply it again.
  if (next != TimePoint::Max()) {
    round_timeout_.Start(next - now, [this] { OnRoundTimeout(); });
  }
  for (const uint64_t key : round_scratch_) {
    HandleFailure(HostId(key));
  }
}

void PingManager::OnPing(const WireMessage& msg) {
  if (msg.payload.size() < kPingHeaderBytes) {
    return;
  }
  Reader r(msg.payload);
  const uint64_t seq = r.GetU64();
  // Reply with our own payload for this link (links are monitored from both
  // sides; replies let the pinger check our view of the shared state).
  scratch_.Clear();
  scratch_.PutU64(seq);
  if (provider_) {
    provider_(msg.from, scratch_);
  }
  WireMessage reply;
  reply.to = msg.from;
  reply.type = msgtype::kOverlayPingReply;
  reply.category = MsgCategory::kOverlayPingReply;
  reply.payload = scratch_.TakeShared();
  transport_->Send(std::move(reply), nullptr);

  if (observer_) {
    observer_(msg.from, msg.payload.data() + kPingHeaderBytes,
              msg.payload.size() - kPingHeaderBytes);
  }
}

void PingManager::OnPingReply(const WireMessage& msg) {
  if (msg.payload.size() < kPingHeaderBytes) {
    return;
  }
  // The echoed seq is not inspected: liveness only needs "a reply arrived".
  if (Peer* p = peers_.Find(msg.from.value); p != nullptr) {
    // Any reply from the peer proves liveness, so disarm the failure timeout
    // even if it answers an older ping than the latest one sent (with
    // timeout >= period several pings can be outstanding; a reply slower
    // than one period must not count as a failure).
    p->timeout.Cancel();
    p->awaiting = false;
  }
  if (observer_) {
    observer_(msg.from, msg.payload.data() + kPingHeaderBytes,
              msg.payload.size() - kPingHeaderBytes);
  }
}

void PingManager::HandleFailure(HostId peer) {
  Peer* p = peers_.Find(peer.value);
  if (p == nullptr || p->failed) {
    return;
  }
  p->ping.Stop();
  p->timeout.Cancel();
  p->awaiting = false;
  p->failed = true;  // stop pinging; owner removes the peer via UpdateNeighbors
  if (on_failure_) {
    on_failure_(peer);
  }
}

}  // namespace fuse
