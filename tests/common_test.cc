// Unit tests for src/common: time, rng, sha1, stats, serialize, status, ids,
// flat_map.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <string>
#include <utility>
#include <vector>

#include "common/flat_map.h"
#include "common/ids.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/serialize.h"
#include "common/sha1.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/time.h"

namespace fuse {
namespace {

TEST(TimeTest, DurationArithmetic) {
  const Duration a = Duration::Millis(1500);
  EXPECT_EQ(a.ToMicros(), 1500000);
  EXPECT_DOUBLE_EQ(a.ToSecondsF(), 1.5);
  EXPECT_EQ((a + Duration::Millis(500)).ToMicros(), 2000000);
  EXPECT_EQ((a - Duration::Seconds(1)).ToMicros(), 500000);
  EXPECT_EQ((a * int64_t{2}).ToMicros(), 3000000);
  EXPECT_EQ((a / int64_t{3}).ToMicros(), 500000);
  EXPECT_LT(Duration::Millis(1), Duration::Millis(2));
  EXPECT_EQ(Duration::Seconds(2).ToString(), "2s");
  EXPECT_EQ(Duration::Millis(20).ToString(), "20ms");
  EXPECT_EQ(Duration::Micros(7).ToString(), "7us");
}

TEST(TimeTest, TimePointArithmetic) {
  const TimePoint t = TimePoint::FromMicros(1000);
  EXPECT_EQ((t + Duration::Micros(500)).ToMicros(), 1500);
  EXPECT_EQ((t - Duration::Micros(500)).ToMicros(), 500);
  EXPECT_EQ((t + Duration::Micros(500)) - t, Duration::Micros(500));
  EXPECT_LT(t, t + Duration::Micros(1));
}

TEST(TimeTest, DurationScaleByDouble) {
  EXPECT_EQ((Duration::Seconds(10) * 0.5).ToMicros(), 5000000);
}

TEST(RngTest, Deterministic) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, UniformIntBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.UniformInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
  // Degenerate range.
  EXPECT_EQ(rng.UniformInt(3, 3), 3);
}

TEST(RngTest, UniformIntCoversRange) {
  Rng rng(11);
  std::set<int64_t> seen;
  for (int i = 0; i < 200; ++i) {
    seen.insert(rng.UniformInt(0, 7));
  }
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.UniformDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(17);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(19);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    hits += rng.Bernoulli(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(23);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    sum += rng.Exponential(10.0);
  }
  EXPECT_NEAR(sum / n, 10.0, 0.5);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(29);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(RngTest, SampleIndicesDistinct) {
  Rng rng(31);
  const auto s = rng.SampleIndices(10, 5);
  EXPECT_EQ(s.size(), 5u);
  std::set<size_t> uniq(s.begin(), s.end());
  EXPECT_EQ(uniq.size(), 5u);
  for (size_t i : s) {
    EXPECT_LT(i, 10u);
  }
}

TEST(RngTest, ForkIndependent) {
  Rng a(5);
  Rng child = a.Fork();
  EXPECT_NE(a.NextU64(), child.NextU64());
}

// FIPS 180-1 test vectors.
TEST(Sha1Test, KnownVectors) {
  EXPECT_EQ(Sha1::ToHex(Sha1::Hash("abc")), "a9993e364706816aba3e25717850c26c9cd0d89d");
  EXPECT_EQ(Sha1::ToHex(Sha1::Hash("")), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
  EXPECT_EQ(Sha1::ToHex(Sha1::Hash("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
}

// Messages of n 'a' bytes at the padding boundaries: 55 leaves room for the
// 0x80 and length in one block, 56..63 spill the length into a second block,
// 64/119/120 repeat the cases one block later. Reference digests from
// python3 hashlib.sha1(b'a' * n).
TEST(Sha1Test, PaddingBoundaryVectors) {
  const std::pair<size_t, const char*> cases[] = {
      {55, "c1c8bbdc22796e28c0e15163d20899b65621d65a"},
      {56, "c2db330f6083854c99d4b5bfb6e8f29f201be699"},
      {63, "03f09f5b158a7a8cdad920bddc29b81c18a551f5"},
      {64, "0098ba824b5c16427bd7a1122a5a442a25ec644d"},
      {119, "ee971065aaa017e0632a8ca6c77bb3bf8b1dfc56"},
      {120, "f34c1488385346a55709ba056ddd08280dd4c6d6"},
  };
  for (const auto& [len, hex] : cases) {
    EXPECT_EQ(Sha1::ToHex(Sha1::Hash(std::string(len, 'a'))), hex) << "len=" << len;
  }
}

TEST(Sha1Test, MillionA) {
  Sha1 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) {
    h.Update(chunk);
  }
  EXPECT_EQ(Sha1::ToHex(h.Finish()), "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST(Sha1Test, IncrementalMatchesOneShot) {
  const std::string msg = "the quick brown fox jumps over the lazy dog 0123456789";
  Sha1 h;
  for (char c : msg) {
    h.Update(&c, 1);
  }
  EXPECT_EQ(h.Finish(), Sha1::Hash(msg));
}

TEST(Sha1Test, DigestSensitivity) {
  EXPECT_NE(Sha1::Hash("abc"), Sha1::Hash("abd"));
}

// Every split of a message across Update calls must hash like the one-shot,
// in particular around the 55/56/64-byte padding boundaries the piggyback
// digests sit near.
TEST(Sha1Test, ChunkBoundariesMatchOneShot) {
  Rng rng(37);
  for (size_t len : {0u, 1u, 54u, 55u, 56u, 57u, 63u, 64u, 65u, 127u, 128u, 129u}) {
    std::string msg(len, '\0');
    for (char& c : msg) {
      c = static_cast<char>(rng.UniformInt(0, 255));
    }
    const Sha1Digest expect = Sha1::Hash(msg);
    Sha1 h;
    size_t pos = 0;
    while (pos < msg.size()) {
      const size_t n = static_cast<size_t>(rng.UniformInt(1, 16));
      const size_t take = std::min(n, msg.size() - pos);
      h.Update(msg.data() + pos, take);
      pos += take;
    }
    EXPECT_EQ(h.Finish(), expect) << "len=" << len;
  }
}

TEST(Sha1Test, UpdateU64IsBigEndianBytes) {
  Sha1 a;
  a.UpdateU64(0x0102030405060708ULL);
  Sha1 b;
  const uint8_t bytes[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  b.Update(bytes, 8);
  EXPECT_EQ(a.Finish(), b.Finish());
}

TEST(StatsTest, Percentiles) {
  Summary s;
  for (int i = 1; i <= 100; ++i) {
    s.Add(i);
  }
  EXPECT_EQ(s.Count(), 100u);
  EXPECT_DOUBLE_EQ(s.Min(), 1.0);
  EXPECT_DOUBLE_EQ(s.Max(), 100.0);
  EXPECT_NEAR(s.Median(), 50.5, 0.01);
  EXPECT_NEAR(s.Percentile(25), 25.75, 0.01);
  EXPECT_NEAR(s.Percentile(75), 75.25, 0.01);
  EXPECT_DOUBLE_EQ(s.Mean(), 50.5);
}

TEST(StatsTest, EmptySummary) {
  Summary s;
  EXPECT_TRUE(s.Empty());
  EXPECT_DOUBLE_EQ(s.Percentile(50), 0.0);
  EXPECT_DOUBLE_EQ(s.Mean(), 0.0);
}

TEST(StatsTest, FractionAtMost) {
  Summary s;
  for (int i = 1; i <= 10; ++i) {
    s.Add(i);
  }
  EXPECT_DOUBLE_EQ(s.FractionAtMost(5.0), 0.5);
  EXPECT_DOUBLE_EQ(s.FractionAtMost(0.0), 0.0);
  EXPECT_DOUBLE_EQ(s.FractionAtMost(100.0), 1.0);
}

TEST(StatsTest, CdfMonotone) {
  Summary s;
  Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    s.Add(rng.UniformDouble(0, 100));
  }
  const auto cdf = s.Cdf(20);
  ASSERT_EQ(cdf.size(), 20u);
  for (size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_LE(cdf[i - 1].first, cdf[i].first);
    EXPECT_LT(cdf[i - 1].second, cdf[i].second);
  }
  EXPECT_DOUBLE_EQ(cdf.back().second, 1.0);
}

TEST(SerializeTest, RoundTrip) {
  Writer w;
  w.PutU8(0xab);
  w.PutU16(0x1234);
  w.PutU32(0xdeadbeef);
  w.PutU64(0x0123456789abcdefULL);
  w.PutI64(-42);
  w.PutDouble(3.25);
  w.PutString("hello");
  Reader r(w.bytes());
  EXPECT_EQ(r.GetU8(), 0xab);
  EXPECT_EQ(r.GetU16(), 0x1234);
  EXPECT_EQ(r.GetU32(), 0xdeadbeefu);
  EXPECT_EQ(r.GetU64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.GetI64(), -42);
  EXPECT_DOUBLE_EQ(r.GetDouble(), 3.25);
  EXPECT_EQ(r.GetString(), "hello");
  EXPECT_TRUE(r.Done());
}

TEST(SerializeTest, TruncatedReadFails) {
  Writer w;
  w.PutU32(7);
  Reader r(w.bytes());
  r.GetU64();  // longer than available
  EXPECT_FALSE(r.ok());
  // Subsequent reads keep failing safely.
  EXPECT_EQ(r.GetU32(), 0u);
  EXPECT_FALSE(r.Done());
}

TEST(SerializeTest, CorruptStringLength) {
  Writer w;
  w.PutU32(1000);  // claims 1000 bytes, none present
  Reader r(w.bytes());
  EXPECT_EQ(r.GetString(), "");
  EXPECT_FALSE(r.ok());
}

// Seeded fuzz loop: random typed sequences must round-trip exactly and
// consume the buffer to the last byte.
TEST(SerializeTest, RoundTripFuzz) {
  Rng rng(41);
  for (int iter = 0; iter < 200; ++iter) {
    Writer w;
    struct Op {
      int kind;
      uint64_t u;
      double d;
      std::string s;
    };
    std::vector<Op> ops;
    const int n = static_cast<int>(rng.UniformInt(1, 40));
    for (int i = 0; i < n; ++i) {
      Op op;
      op.kind = static_cast<int>(rng.UniformInt(0, 5));
      op.u = rng.NextU64();
      op.d = rng.UniformDouble(-1e9, 1e9);
      switch (op.kind) {
        case 0:
          w.PutU8(static_cast<uint8_t>(op.u));
          break;
        case 1:
          w.PutU16(static_cast<uint16_t>(op.u));
          break;
        case 2:
          w.PutU32(static_cast<uint32_t>(op.u));
          break;
        case 3:
          w.PutU64(op.u);
          break;
        case 4:
          w.PutDouble(op.d);
          break;
        case 5: {
          op.s.resize(static_cast<size_t>(rng.UniformInt(0, 64)));
          for (char& c : op.s) {
            c = static_cast<char>(rng.UniformInt(0, 255));
          }
          w.PutString(op.s);
          break;
        }
      }
      ops.push_back(std::move(op));
    }
    Reader r(w.bytes());
    for (const Op& op : ops) {
      switch (op.kind) {
        case 0:
          EXPECT_EQ(r.GetU8(), static_cast<uint8_t>(op.u));
          break;
        case 1:
          EXPECT_EQ(r.GetU16(), static_cast<uint16_t>(op.u));
          break;
        case 2:
          EXPECT_EQ(r.GetU32(), static_cast<uint32_t>(op.u));
          break;
        case 3:
          EXPECT_EQ(r.GetU64(), op.u);
          break;
        case 4:
          EXPECT_DOUBLE_EQ(r.GetDouble(), op.d);
          break;
        case 5:
          EXPECT_EQ(r.GetString(), op.s);
          break;
      }
    }
    ASSERT_TRUE(r.Done()) << "iteration " << iter;
  }
}

// Truncating a valid encoding at every possible length must fail cleanly
// (ok() flips false, reads return zero values), never crash or over-read.
TEST(SerializeTest, TruncationFuzz) {
  Writer w;
  w.PutU16(0xbeef);
  w.PutString("abcdef");
  w.PutU64(0x1122334455667788ULL);
  w.PutDouble(2.5);
  const auto& full = w.bytes();
  for (size_t cut = 0; cut < full.size(); ++cut) {
    Reader r(full.data(), cut);
    r.GetU16();
    r.GetString();
    r.GetU64();
    r.GetDouble();
    EXPECT_FALSE(r.ok()) << "cut=" << cut;
    EXPECT_EQ(r.remaining(), 0u);
  }
}

TEST(StatusTest, Basics) {
  EXPECT_TRUE(Status::Ok().ok());
  EXPECT_FALSE(Status::Timeout("x").ok());
  EXPECT_EQ(Status::Timeout().code(), StatusCode::kTimeout);
  EXPECT_EQ(Status::Broken("conn").ToString(), "BROKEN: conn");
  EXPECT_EQ(Status::Ok(), Status());
}

TEST(StatusTest, EveryCodeHasAName) {
  for (StatusCode c : {StatusCode::kOk, StatusCode::kTimeout, StatusCode::kUnreachable,
                       StatusCode::kBroken, StatusCode::kCancelled, StatusCode::kNotFound,
                       StatusCode::kAlreadyExists, StatusCode::kInvalidArgument,
                       StatusCode::kFailed}) {
    EXPECT_STRNE(StatusCodeName(c), "");
    EXPECT_EQ(Status(c).ToString(), StatusCodeName(c));
  }
}

// The callback-heavy layers pass Status values through several hops; code and
// message must survive copies, moves, and early-return propagation chains.
TEST(StatusTest, PropagationPreservesCodeAndMessage) {
  auto inner = [] { return Status::Unreachable("host h42 dropped"); };
  auto middle = [&]() -> Status {
    Status s = inner();
    if (!s.ok()) {
      return s;  // propagate untouched
    }
    return Status::Ok();
  };
  auto outer = [&]() -> Status {
    const Status s = middle();
    return s.ok() ? Status::Ok() : s;
  };
  const Status got = outer();
  EXPECT_EQ(got.code(), StatusCode::kUnreachable);
  EXPECT_EQ(got.message(), "host h42 dropped");
  EXPECT_EQ(got.ToString(), "UNREACHABLE: host h42 dropped");

  Status moved = std::move(const_cast<Status&>(got));
  EXPECT_EQ(moved.code(), StatusCode::kUnreachable);
  EXPECT_EQ(moved.message(), "host h42 dropped");

  // Equality compares codes only: same failure class, different detail.
  EXPECT_EQ(moved, Status::Unreachable("other detail"));
  EXPECT_NE(moved, Status::Timeout());
}

TEST(IdsTest, StrongIdBehavior) {
  const HostId a(1);
  const HostId b(2);
  EXPECT_NE(a, b);
  EXPECT_LT(a, b);
  EXPECT_TRUE(a.valid());
  EXPECT_FALSE(HostId().valid());
  std::unordered_set<HostId> set{a, b, a};
  EXPECT_EQ(set.size(), 2u);
}

TEST(MetricsTest, CountsAndWindows) {
  Metrics m;
  m.IncMessage(MsgCategory::kOverlayPing, 68);
  m.IncMessage(MsgCategory::kOverlayPing, 68);
  m.IncMessage(MsgCategory::kFuseCreate, 100);
  EXPECT_EQ(m.MessageCount(MsgCategory::kOverlayPing), 2u);
  EXPECT_EQ(m.ByteCount(MsgCategory::kOverlayPing), 136u);
  EXPECT_EQ(m.TotalMessages(), 3u);
  EXPECT_EQ(m.TotalBytes(), 236u);

  const auto w = m.BeginWindow(TimePoint::FromMicros(0));
  m.IncMessage(MsgCategory::kRpc, 10);
  m.IncMessage(MsgCategory::kRpc, 10);
  EXPECT_DOUBLE_EQ(m.MessagesPerSecond(w, TimePoint::FromMicros(2000000)), 1.0);

  m.Reset();
  EXPECT_EQ(m.TotalMessages(), 0u);
}

// Interleaved insert/erase churn across multiple tombstone-forced
// compactions and capacity doublings, shadow-checked against
// std::unordered_map. The open-addressed probe loops terminate only while
// the table keeps >= 25% truly-empty slots (tombstones don't count); erase
// bursts are sized to force the compaction path repeatedly, and every phase
// re-verifies size, membership of all live keys, and miss-lookups of every
// erased key (an Erase-then-Find that can't find an empty slot would hang,
// not fail — passing at all is the termination guard).
TEST(FlatMapTest, ChurnStressAgainstShadowMap) {
  Rng rng(1234);
  FlatMap<uint64_t> map;
  std::unordered_map<uint64_t, uint64_t> shadow;
  std::vector<uint64_t> erased_keys;

  // Keys drawn from a small-ish universe so erase/re-insert hits the same
  // slots (tombstone reuse), mixed with packed sequential keys like the
  // connection table's PairKey.
  auto make_key = [&rng](int phase) {
    if (rng.Bernoulli(0.5)) {
      return (uint64_t{1} << 32) | static_cast<uint64_t>(rng.UniformInt(0, 511));
    }
    return static_cast<uint64_t>(rng.UniformInt(0, 255)) + static_cast<uint64_t>(phase) * 7;
  };

  auto verify = [&] {
    ASSERT_EQ(map.size(), shadow.size());
    for (const auto& [k, v] : shadow) {
      uint64_t* found = map.Find(k);
      ASSERT_NE(found, nullptr) << "live key " << k << " missing";
      ASSERT_EQ(*found, v);
    }
    for (const uint64_t k : erased_keys) {
      if (!shadow.contains(k)) {
        ASSERT_EQ(map.Find(k), nullptr) << "erased key " << k << " still found";
      }
    }
    size_t iterated = 0;
    map.ForEach([&](uint64_t k, const uint64_t& v) {
      ++iterated;
      const auto it = shadow.find(k);
      ASSERT_NE(it, shadow.end());
      ASSERT_EQ(it->second, v);
    });
    ASSERT_EQ(iterated, shadow.size());
  };

  for (int phase = 0; phase < 40; ++phase) {
    // Growth burst: push well past the previous capacity.
    for (int i = 0; i < 200; ++i) {
      const uint64_t k = make_key(phase);
      const uint64_t v = rng.NextU64();
      map.FindOrInsert(k) = v;
      shadow[k] = v;
    }
    // Erase burst: drop ~70% of live keys, creating a tombstone majority
    // that forces the compact-without-doubling growth path on the next
    // insert wave.
    std::vector<uint64_t> live;
    live.reserve(shadow.size());
    for (const auto& [k, v] : shadow) {
      live.push_back(k);
    }
    rng.Shuffle(live);
    const size_t to_erase = live.size() * 7 / 10;
    for (size_t i = 0; i < to_erase; ++i) {
      ASSERT_TRUE(map.Erase(live[i]));
      shadow.erase(live[i]);
      erased_keys.push_back(live[i]);
    }
    // Erase of an absent key reports false and must not corrupt accounting.
    ASSERT_FALSE(map.Erase(~uint64_t{0} - phase));
    // Immediate re-probe of every erased key: Erase leaves a tombstone, so
    // the probe chain must still terminate at a true empty.
    for (size_t i = 0; i < to_erase; ++i) {
      ASSERT_EQ(map.Find(live[i]), nullptr);
    }
    verify();
  }
  EXPECT_GT(erased_keys.size(), 4000u) << "stress did not churn enough";
}

}  // namespace
}  // namespace fuse
