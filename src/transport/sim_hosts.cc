#include "transport/sim_hosts.h"

namespace fuse {

Transport* SimHostTable::TransportFor(HostId h, Environment& base) {
  Host& host = At(h);
  if (host.transport == nullptr) {
    host.env = std::make_unique<SkewedHostEnv>(base, faults_, h);
    host.transport = std::make_unique<Transport>(h, *host.env, layer_);
  }
  return host.transport.get();
}

void SimHostTable::Crash(HostId h) {
  Host& host = At(h);
  host.up = false;
  host.incarnation++;
  if (host.transport != nullptr) {
    host.transport->UnregisterAllHandlers();
  }
  host.send_busy_until = TimePoint::Zero();
  faults_.SetHostDown(h, true);
}

void SimHostTable::Restart(HostId h) {
  Host& host = At(h);
  host.up = true;
  host.incarnation++;
  if (host.transport != nullptr) {
    host.transport->UnregisterAllHandlers();
  }
  faults_.SetHostDown(h, false);
}

}  // namespace fuse
