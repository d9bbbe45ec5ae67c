#include "common/sha1.h"

#include <cstring>

namespace fuse {
namespace {

uint32_t Rotl32(uint32_t x, int k) { return (x << k) | (x >> (32 - k)); }

}  // namespace

Sha1::Sha1() {
  h_[0] = 0x67452301u;
  h_[1] = 0xEFCDAB89u;
  h_[2] = 0x98BADCFEu;
  h_[3] = 0x10325476u;
  h_[4] = 0xC3D2E1F0u;
}

void Sha1::ProcessBlock(const uint8_t* block) {
  uint32_t w[80];
  for (int i = 0; i < 16; ++i) {
    w[i] = (static_cast<uint32_t>(block[i * 4]) << 24) |
           (static_cast<uint32_t>(block[i * 4 + 1]) << 16) |
           (static_cast<uint32_t>(block[i * 4 + 2]) << 8) |
           static_cast<uint32_t>(block[i * 4 + 3]);
  }
  for (int i = 16; i < 80; ++i) {
    w[i] = Rotl32(w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16], 1);
  }

  uint32_t a = h_[0], b = h_[1], c = h_[2], d = h_[3], e = h_[4];
  for (int i = 0; i < 80; ++i) {
    uint32_t f;
    uint32_t k;
    if (i < 20) {
      f = (b & c) | ((~b) & d);
      k = 0x5A827999u;
    } else if (i < 40) {
      f = b ^ c ^ d;
      k = 0x6ED9EBA1u;
    } else if (i < 60) {
      f = (b & c) | (b & d) | (c & d);
      k = 0x8F1BBCDCu;
    } else {
      f = b ^ c ^ d;
      k = 0xCA62C1D6u;
    }
    const uint32_t tmp = Rotl32(a, 5) + f + e + k + w[i];
    e = d;
    d = c;
    c = Rotl32(b, 30);
    b = a;
    a = tmp;
  }
  h_[0] += a;
  h_[1] += b;
  h_[2] += c;
  h_[3] += d;
  h_[4] += e;
}

void Sha1::Update(const void* data, size_t len) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  total_bytes_ += len;
  if (buffer_len_ > 0) {
    const size_t need = 64 - buffer_len_;
    const size_t take = len < need ? len : need;
    std::memcpy(buffer_ + buffer_len_, p, take);
    buffer_len_ += take;
    p += take;
    len -= take;
    if (buffer_len_ == 64) {
      ProcessBlock(buffer_);
      buffer_len_ = 0;
    }
  }
  while (len >= 64) {
    ProcessBlock(p);
    p += 64;
    len -= 64;
  }
  if (len > 0) {
    std::memcpy(buffer_, p, len);
    buffer_len_ = len;
  }
}

void Sha1::UpdateU64(uint64_t v) {
  uint8_t b[8];
  for (int i = 0; i < 8; ++i) {
    b[i] = static_cast<uint8_t>(v >> (56 - i * 8));
  }
  Update(b, 8);
}

Sha1Digest Sha1::Finish() {
  // Padding goes straight into the block buffer: 0x80, zeros up to byte 56
  // (spilling into a second block when fewer than 9 bytes remain), then the
  // big-endian bit length.
  const uint64_t bit_len = total_bytes_ * 8;
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > 56) {
    std::memset(buffer_ + buffer_len_, 0, 64 - buffer_len_);
    ProcessBlock(buffer_);
    buffer_len_ = 0;
  }
  std::memset(buffer_ + buffer_len_, 0, 56 - buffer_len_);
  for (int i = 0; i < 8; ++i) {
    buffer_[56 + i] = static_cast<uint8_t>(bit_len >> (56 - i * 8));
  }
  ProcessBlock(buffer_);
  buffer_len_ = 0;

  Sha1Digest d;
  for (int i = 0; i < 5; ++i) {
    d[i * 4] = static_cast<uint8_t>(h_[i] >> 24);
    d[i * 4 + 1] = static_cast<uint8_t>(h_[i] >> 16);
    d[i * 4 + 2] = static_cast<uint8_t>(h_[i] >> 8);
    d[i * 4 + 3] = static_cast<uint8_t>(h_[i]);
  }
  return d;
}

Sha1Digest Sha1::Hash(const void* data, size_t len) {
  Sha1 h;
  h.Update(data, len);
  return h.Finish();
}

std::string Sha1::ToHex(const Sha1Digest& d) {
  static const char* kHex = "0123456789abcdef";
  std::string out;
  out.reserve(40);
  for (uint8_t b : d) {
    out.push_back(kHex[b >> 4]);
    out.push_back(kHex[b & 0xf]);
  }
  return out;
}

}  // namespace fuse
