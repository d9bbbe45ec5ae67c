#include "transport/fabric.h"

#include <utility>

namespace fuse {

Transport* Fabric::TransportFor(HostId local) {
  auto& t = locals_[local.value];
  if (t == nullptr) {
    t = std::make_unique<Transport>(local, *rt_, this);
  }
  return t.get();
}

bool Fabric::DispatchLocal(const WireMessage& msg) {
  const auto it = locals_.find(msg.to.value);
  if (it == locals_.end()) {
    return false;
  }
  it->second->Dispatch(msg);
  return true;
}

void Fabric::SendLocal(WireMessage msg, Transport::SendCallback cb, const char* why) {
  rt_->Schedule(Duration::Zero(), [this, msg = std::move(msg), cb = std::move(cb), why] {
    bool delivered = false;
    if (!faults_.IsBlocked(msg.from, msg.to)) {
      delivered = DispatchLocal(msg);
    }
    if (cb) {
      cb(delivered ? Status::Ok() : Status::Broken(why));
    }
  });
}

void Fabric::FailLater(Transport::SendCallback cb, const char* why) {
  if (!cb) {
    return;
  }
  rt_->Schedule(Duration::Zero(), [cb = std::move(cb), why] { cb(Status::Broken(why)); });
}

}  // namespace fuse
