// PayloadBuf: immutable message payload bytes, ref-counted with a small
// buffer optimization.
//
// WireMessage payloads used to be std::vector<uint8_t>, which made every
// fan-out (one buffer to N destinations), every retransmission-bookkeeping
// copy, and every in-order delivery slot pay a heap allocation plus a byte
// copy. A PayloadBuf is immutable after construction, so copies are safe to
// share: payloads up to kInlineSize bytes (every steady-state FUSE message —
// pings carry seq + a 20-byte SHA-1) live inline in the handle and copying
// them is a memcpy with no heap traffic; larger payloads live in one shared
// heap block and copying bumps a reference count. The count is atomic
// because the live runtime moves messages across threads.
//
// Adopting a std::vector (the Writer::Take() path) moves the vector's buffer
// into the shared block for large payloads — encode once, share everywhere.
#ifndef FUSE_COMMON_PAYLOAD_BUF_H_
#define FUSE_COMMON_PAYLOAD_BUF_H_

#include <atomic>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <utility>
#include <vector>

namespace fuse {

class PayloadBuf {
 public:
  // Covers every steady-state protocol payload (ping seq + hash = 28 bytes,
  // id+seq notifications = 20) while keeping WireMessage copy-cheap.
  static constexpr size_t kInlineSize = 48;

  PayloadBuf() = default;

  // Copies [data, data+n): inline when small, one shared block otherwise.
  PayloadBuf(const uint8_t* data, size_t n) : size_(n) {
    if (n <= kInlineSize) {
      if (n > 0) {
        std::memcpy(inline_, data, n);
      }
    } else {
      rep_ = new Rep{std::vector<uint8_t>(data, data + n)};
    }
  }

  // Adopts a vector (moves the buffer for large payloads). Intentionally
  // implicit: `msg.payload = writer.Take();` reads naturally everywhere.
  PayloadBuf(std::vector<uint8_t> v)  // NOLINT(google-explicit-constructor)
      : size_(v.size()) {
    if (size_ <= kInlineSize) {
      if (size_ > 0) {
        std::memcpy(inline_, v.data(), size_);
      }
    } else {
      rep_ = new Rep{std::move(v)};
    }
  }

  PayloadBuf(std::initializer_list<uint8_t> il) : PayloadBuf(il.begin(), il.size()) {}

  PayloadBuf(const PayloadBuf& other) : size_(other.size_) {
    if (size_ <= kInlineSize) {
      std::memcpy(inline_, other.inline_, size_);
    } else {
      rep_ = other.rep_;
      rep_->refs.fetch_add(1, std::memory_order_relaxed);
    }
  }

  PayloadBuf(PayloadBuf&& other) noexcept : size_(other.size_) {
    if (size_ <= kInlineSize) {
      std::memcpy(inline_, other.inline_, size_);
    } else {
      rep_ = other.rep_;
      other.size_ = 0;
    }
  }

  PayloadBuf& operator=(const PayloadBuf& other) {
    if (this != &other) {
      PayloadBuf tmp(other);
      *this = std::move(tmp);
    }
    return *this;
  }

  PayloadBuf& operator=(PayloadBuf&& other) noexcept {
    if (this != &other) {
      Release();
      size_ = other.size_;
      if (size_ <= kInlineSize) {
        std::memcpy(inline_, other.inline_, size_);
      } else {
        rep_ = other.rep_;
        other.size_ = 0;
      }
    }
    return *this;
  }

  ~PayloadBuf() { Release(); }

  const uint8_t* data() const { return size_ <= kInlineSize ? inline_ : rep_->bytes.data(); }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  uint8_t operator[](size_t i) const { return data()[i]; }
  const uint8_t* begin() const { return data(); }
  const uint8_t* end() const { return data() + size_; }

  friend bool operator==(const PayloadBuf& a, const PayloadBuf& b) {
    return a.size_ == b.size_ && (a.size_ == 0 || std::memcmp(a.data(), b.data(), a.size_) == 0);
  }
  friend bool operator!=(const PayloadBuf& a, const PayloadBuf& b) { return !(a == b); }

 private:
  struct Rep {
    std::vector<uint8_t> bytes;
    std::atomic<uint32_t> refs{1};
  };

  void Release() {
    if (size_ > kInlineSize && rep_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      delete rep_;
    }
    size_ = 0;
  }

  size_t size_ = 0;
  union {
    Rep* rep_ = nullptr;
    uint8_t inline_[kInlineSize];
  };
};

}  // namespace fuse

#endif  // FUSE_COMMON_PAYLOAD_BUF_H_
