// Transport: the per-host messaging endpoint node-level code uses. Reliable,
// connection-oriented ("over TCP" in the paper): messages either arrive in
// order or the sender learns the connection broke.
//
// There is one endpoint class for every messaging layer. A layer — the
// simulator fabric (tcp_model.h), the live runtime's in-process delivery
// (runtime/live_runtime.h), and the TCP and UDP fabrics (fabric.h) — differs
// only in how a message travels, so it implements the one
// TransportLayer::SendFrom hook. The endpoint owns what every layer shares:
// the host id, the host's Environment, the sender stamp, and the host's
// handler table.
#ifndef FUSE_TRANSPORT_TRANSPORT_H_
#define FUSE_TRANSPORT_TRANSPORT_H_

#include <functional>
#include <mutex>
#include <utility>
#include <vector>

#include "common/status.h"
#include "sim/environment.h"
#include "transport/message.h"

namespace fuse {

class TransportLayer;

class Transport final {
 public:
  // Invoked on the receiving host when a message of the registered type
  // arrives.
  using Handler = std::function<void(const WireMessage&)>;
  // Invoked on the sender: Ok once the message was acknowledged, or an error
  // (kBroken / kUnreachable) when the connection failed. FUSE interprets
  // these errors as "the node at the other end is unavailable" (section 6.1).
  using SendCallback = std::function<void(const Status&)>;

  // `handler_mu`, when given, guards the handler table: a layer whose
  // endpoints are registered from several threads passes its own lock.
  Transport(HostId host, Environment& env, TransportLayer* layer,
            std::mutex* handler_mu = nullptr)
      : host_(host), env_(env), layer_(layer), handler_mu_(handler_mu) {}

  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  // Sends `msg` to msg.to; `cb` may be nullptr when the sender does not care.
  void Send(WireMessage msg, SendCallback cb);

  void RegisterHandler(uint16_t type, Handler handler);
  // Drops every handler (a crash empties the table like a process that
  // vanished; the restarted node re-registers).
  void UnregisterAllHandlers();

  // Runs this host's handler for msg.type, if one is registered. The handler
  // is copied first: it may unregister its own host while it runs.
  void Dispatch(const WireMessage& msg);

  HostId local_host() const { return host_; }
  Environment& env() { return env_; }

 private:
  std::unique_lock<std::mutex> LockHandlers() {
    return handler_mu_ != nullptr ? std::unique_lock<std::mutex>(*handler_mu_)
                                  : std::unique_lock<std::mutex>();
  }

  const HostId host_;
  Environment& env_;
  TransportLayer* const layer_;
  std::mutex* const handler_mu_;
  // Indexed by MsgTypeSlot(type); sized on first registration.
  std::vector<Handler> handlers_;
};

// The messaging layer behind a set of endpoints.
class TransportLayer {
 public:
  // Moves `msg` (msg.from already stamped) toward msg.to; `cb` may be
  // nullptr.
  virtual void SendFrom(HostId from, WireMessage msg, Transport::SendCallback cb) = 0;

 protected:
  ~TransportLayer() = default;
};

inline void Transport::Send(WireMessage msg, SendCallback cb) {
  msg.from = host_;
  layer_->SendFrom(host_, std::move(msg), std::move(cb));
}

}  // namespace fuse

#endif  // FUSE_TRANSPORT_TRANSPORT_H_
