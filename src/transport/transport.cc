#include "transport/transport.h"

#include <utility>

#include "common/logging.h"

namespace fuse {

void Transport::RegisterHandler(uint16_t type, Handler handler) {
  const uint8_t slot = MsgTypeSlot(type);
  FUSE_CHECK(slot != 0) << "unknown message type " << type
                        << " (add it to msgtype::kAllTypes)";
  const auto lock = LockHandlers();
  if (handlers_.size() < msgtype::kNumSlots) {
    handlers_.resize(msgtype::kNumSlots);
  }
  handlers_[slot] = std::move(handler);
}

void Transport::UnregisterAllHandlers() {
  const auto lock = LockHandlers();
  handlers_.clear();
}

void Transport::Dispatch(const WireMessage& msg) {
  Handler handler;
  {
    const auto lock = LockHandlers();
    const uint8_t slot = MsgTypeSlot(msg.type);
    if (slot < handlers_.size()) {
      handler = handlers_[slot];
    }
  }
  if (!handler) {
    FUSE_LOG(Debug) << "host " << host_.ToString() << " has no handler for type " << msg.type;
    return;
  }
  handler(msg);
}

}  // namespace fuse
