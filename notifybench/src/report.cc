#include "report.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace notifybench {

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double MillisBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

double Median(std::vector<double> values) { return Percentile(std::move(values), 50); }

double Per(double a, double b) { return b != 0 ? a / b : 0.0; }

void WindowedSamples::Add(size_t window, double value) {
  if (window >= windows_.size()) {
    windows_.resize(window + 1);
  }
  windows_[window].push_back(value);
}

double WindowedSamples::Percentile(double p) const {
  std::vector<double> per_window;
  for (const auto& w : windows_) {
    if (!w.empty()) {
      per_window.push_back(notifybench::Percentile(w, p));
    }
  }
  return Median(std::move(per_window));
}

double WindowedSamples::Percentile(double p, const SpeedGauge& gauge) const {
  std::vector<double> per_window;
  for (size_t i = 0; i < windows_.size(); ++i) {
    if (!windows_[i].empty()) {
      per_window.push_back(notifybench::Percentile(windows_[i], p) / gauge.Slowdown(i));
    }
  }
  return Median(std::move(per_window));
}

size_t WindowedSamples::size() const {
  size_t n = 0;
  for (const auto& w : windows_) {
    n += w.size();
  }
  return n;
}

namespace {

// Opens a TCP connection on the loopback interface; both ends go to fds.
bool OpenLoopbackPair(int fds[2]) {
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listener < 0) {
    return false;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  bool ok = ::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 &&
            ::listen(listener, 1) == 0 &&
            ::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len) == 0;
  fds[0] = ok ? ::socket(AF_INET, SOCK_STREAM, 0) : -1;
  ok = ok && fds[0] >= 0 &&
       ::connect(fds[0], reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  fds[1] = ok ? ::accept(listener, nullptr, nullptr) : -1;
  ::close(listener);
  const int one = 1;
  return fds[1] >= 0 &&
         ::setsockopt(fds[0], IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) == 0 &&
         ::setsockopt(fds[1], IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) == 0;
}

}  // namespace

SpeedGauge::SpeedGauge(Kernel kernel) : kernel_(kernel) {
  if (kernel_ == Kernel::kLoopback && !OpenLoopbackPair(fds_)) {
    std::perror("notifybench: speed gauge loopback connection");
    std::exit(5);
  }
  // One untimed slice first: the table's pages and the connection's buffers
  // are set up on first use, which would inflate the first timed slice.
  if (kernel_ == Kernel::kLoopback) {
    RunLoopbackSlice();
  } else {
    RunMemorySlice();
  }
}

SpeedGauge::~SpeedGauge() {
  for (const int fd : fds_) {
    if (fd >= 0) {
      ::close(fd);
    }
  }
}

void SpeedGauge::RunMemorySlice() {
  constexpr size_t kTableWords = size_t{1} << 21;  // 16 MiB
  static std::vector<uint64_t> table(kTableWords);
  static uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (int i = 0; i < (1 << 16); ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    table[x & (kTableWords - 1)] += x;
  }
}

void SpeedGauge::RunLoopbackSlice() {
  constexpr size_t kMessageBytes = 200;  // about a FUSE control message
  constexpr int kRounds = 64;
  char buf[kMessageBytes] = {};
  for (int i = 0; i < kRounds; ++i) {
    if (::write(fds_[0], buf, kMessageBytes) != static_cast<ssize_t>(kMessageBytes)) {
      std::perror("notifybench: speed gauge write");
      std::exit(5);
    }
    for (size_t got = 0; got < kMessageBytes;) {
      const ssize_t n = ::read(fds_[1], buf, kMessageBytes - got);
      if (n <= 0) {
        std::perror("notifybench: speed gauge read");
        std::exit(5);
      }
      got += static_cast<size_t>(n);
    }
  }
}

double SpeedGauge::ReferenceMs() const {
  return kernel_ == Kernel::kLoopback ? kReferenceLoopbackMs : kReferenceMemoryMs;
}

void SpeedGauge::Sample(size_t window) {
  const Clock::time_point t0 = Clock::now();
  if (kernel_ == Kernel::kLoopback) {
    RunLoopbackSlice();
  } else {
    RunMemorySlice();
  }
  last_ = Clock::now();
  const double ms = MillisBetween(t0, last_);
  spent_ms_ += ms;
  ++slices_;
  if (window >= windows_.size()) {
    windows_.resize(window + 1);
  }
  windows_[window].ms += ms;
  ++windows_[window].slices;
}

void SpeedGauge::MaybeSample() {
  if (Clock::now() - last_ >= kEvery) {
    Sample();
  }
}

double SpeedGauge::Slowdown() const {
  return slices_ == 0 ? 1.0 : spent_ms_ / slices_ / ReferenceMs();
}

double SpeedGauge::Slowdown(size_t window) const {
  if (window >= windows_.size() || windows_[window].slices == 0) {
    return Slowdown();
  }
  return windows_[window].ms / windows_[window].slices / ReferenceMs();
}

namespace {

double MaxRssMb(int who) {
  struct rusage ru{};
  if (::getrusage(who, &ru) != 0) {
    return 0;
  }
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

}  // namespace

double PeakRssSelfMb() { return MaxRssMb(RUSAGE_SELF); }
double PeakRssChildrenMb() { return MaxRssMb(RUSAGE_CHILDREN); }

void Report::Set(const std::string& name, double value, const std::string& unit) {
  metrics_[name] = {value, unit};
}

void Report::Unavailable(const std::string& name, const std::string& unit,
                         const std::string& why) {
  metrics_[name] = {kUnavailable, unit};
  unavailable_[name] = why;
}

Report Report::Subset(const std::vector<std::string>& names) const {
  Report out;
  for (const std::string& n : names) {
    out.metrics_[n] = metrics_.at(n);
    const auto it = unavailable_.find(n);
    if (it != unavailable_.end()) {
      out.unavailable_[n] = it->second;
    }
  }
  return out;
}

void Report::Print(bool correct, uint64_t attempted, uint64_t failed) const {
  for (const auto& [name, vu] : metrics_) {
    const auto it = unavailable_.find(name);
    if (it != unavailable_.end()) {
      std::printf("  %-36s unavailable: %s\n", name.c_str(), it->second.c_str());
    } else {
      std::printf("  %-36s %.6g %s\n", name.c_str(), vu.first, vu.second.c_str());
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  bool first = true;
  for (const auto& [name, vu] : metrics_) {
    // %.17g keeps every digit a double carries; a non-finite value would not
    // be JSON, so it cannot reach the line.
    const double v = std::isfinite(vu.first) ? vu.first : kUnavailable;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ", name.c_str(),
                v, vu.second.c_str());
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int64_t Tracer::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count();
}

uint32_t Tracer::Begin(const char* layer, const char* name, uint32_t parent) {
  if (!enabled_) {
    return 0;
  }
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{layer, name, parent, now, -1});
  return static_cast<uint32_t>(spans_.size());
}

void Tracer::End(uint32_t id) {
  if (id == 0) {
    return;
  }
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  Span& s = spans_[id - 1];
  if (s.end_ns < 0) {
    s.end_ns = now;
  }
}

size_t Tracer::NumSpans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

namespace {

// Length of the union of [lo, hi) intervals.
int64_t UnionLength(std::vector<std::pair<int64_t, int64_t>> iv) {
  std::sort(iv.begin(), iv.end());
  int64_t total = 0;
  int64_t lo = 0;
  int64_t hi = 0;
  for (const auto& [a, b] : iv) {
    if (a > hi) {
      total += hi - lo;
      lo = a;
      hi = b;
    } else {
      hi = std::max(hi, b);
    }
  }
  return total + (hi - lo);
}

}  // namespace

std::map<std::string, double> Tracer::SelfSeconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  // Spans of one layer overlap (many creates in flight at once), so a layer's
  // time is the union of its spans, and its self time that union minus the
  // union of its spans' children, each child clipped to its parent.
  std::map<std::string, std::vector<std::pair<int64_t, int64_t>>> own;
  std::map<std::string, std::vector<std::pair<int64_t, int64_t>>> kids;
  for (const Span& s : spans_) {
    if (s.end_ns < 0) {
      continue;
    }
    own[s.layer].emplace_back(s.start_ns, s.end_ns);
    if (s.parent == 0) {
      continue;
    }
    const Span& p = spans_[s.parent - 1];
    const int64_t lo = std::max(s.start_ns, p.start_ns);
    const int64_t hi = p.end_ns < 0 ? s.end_ns : std::min(s.end_ns, p.end_ns);
    if (p.end_ns >= 0 && hi > lo) {
      kids[p.layer].emplace_back(lo, hi);
    }
  }
  std::map<std::string, double> self;
  for (auto& [layer, iv] : own) {
    const int64_t covered = kids.count(layer) != 0 ? UnionLength(kids[layer]) : 0;
    self[layer] = static_cast<double>(UnionLength(std::move(iv)) - covered) / 1e9;
  }
  return self;
}

bool Tracer::Write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "{\"spans_total\": %zu, \"spans\": [\n", spans_.size());
  for (size_t i = 0; i < spans_.size() && i < kMaxWritten; ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"id\": %zu, \"parent\": %u, \"layer\": \"%s\", \"name\": \"%s\", "
                 "\"start_us\": %.3f, \"end_us\": %.3f}",
                 i == 0 ? "" : ",\n", i + 1, s.parent, s.layer, s.name,
                 static_cast<double>(s.start_ns) / 1e3,
                 s.end_ns < 0 ? -1.0 : static_cast<double>(s.end_ns) / 1e3);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace notifybench
