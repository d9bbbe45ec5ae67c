// Measurement plumbing shared by the workloads: wall-clock helpers,
// percentiles, the metric sink that prints the result line, and the span
// tracer of the traced run.
#ifndef NOTIFYBENCH_REPORT_H_
#define NOTIFYBENCH_REPORT_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace notifybench {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0);
double MillisBetween(Clock::time_point from, Clock::time_point to);

// Linear-interpolated percentile (p in [0, 100]) of an unsorted sample; 0 for
// an empty sample.
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);
// a / b, or 0 when b is 0.
double Per(double a, double b);

// Gauges how fast a shared machine is running while a CPU-bound phase runs.
// Between (or beside) chunks of the measured work it times short slices of a
// fixed kernel of the benchmark's own, one that neighbours slow down much as
// they slow the phase measured:
//  - kMemory: random updates over a 16 MiB table. It tracks the simulator,
//    which neighbours' cache and memory traffic slow. On the development
//    machine the raw simulator speed of one seed ranged over +-17% between
//    runs; reported at the reference speed it ranged over +-5%.
//  - kLoopback: small writes and reads over a TCP connection on the loopback
//    interface. It tracks the protocol loop over TCP, half of whose time is
//    the kernel's network path. Over 58 one-second windows of two runs on the
//    development machine, the loop's rate fell as the loopback slice time to
//    the power 0.93 (correlation -0.96; 4% of the rate unexplained, against
//    14% raw). The memory kernel explained it half as well and needed a power
//    of 1.9.
// Slowdown() is the mean slice time over the kernel's reference slice time;
// dividing a phase's wall times by it (multiplying its rates) reports them at
// the reference speed.
class SpeedGauge {
 public:
  enum class Kernel { kMemory, kLoopback };

  // Opens the loopback connection kLoopback needs; exits the process with an
  // error if it cannot.
  explicit SpeedGauge(Kernel kernel);
  ~SpeedGauge();
  SpeedGauge(const SpeedGauge&) = delete;
  SpeedGauge& operator=(const SpeedGauge&) = delete;

  // Times one slice, booked to `window` (a window of WindowedSamples).
  void Sample(size_t window = 0);
  // Times one slice if kEvery has passed since the last one.
  void MaybeSample();
  double Slowdown() const;  // over every slice; 1 when no slice ran
  // Over the slices booked to `window`; Slowdown() when it has none.
  double Slowdown(size_t window) const;
  // Wall time the slices took, to leave out of the phase's own.
  double spent_s() const { return spent_ms_ / 1e3; }

 private:
  struct Window {
    double ms = 0;
    int slices = 0;
  };
  // Slice times on a quiet development machine (4 vCPU VM). Only the ratio
  // between runs matters; the constants fix the unit.
  static constexpr double kReferenceMemoryMs = 1.0;
  static constexpr double kReferenceLoopbackMs = 0.35;
  static constexpr auto kEvery = std::chrono::milliseconds(50);
  void RunMemorySlice();
  void RunLoopbackSlice();
  double ReferenceMs() const;

  const Kernel kernel_;
  int fds_[2] = {-1, -1};  // kLoopback: the two ends of one TCP connection
  Clock::time_point last_{};
  double spent_ms_ = 0;
  int slices_ = 0;
  std::vector<Window> windows_;
};

// Latency samples bucketed by the window (a cycle, a second of the run)
// their operation fell in. A percentile is taken per window and the median
// over windows is reported, so a burst of outside load on a shared machine
// moves one window rather than the run's result.
class WindowedSamples {
 public:
  void Add(size_t window, double value);
  double Percentile(double p) const;  // 0 when there are no samples
  // The same, with each window's percentile at the reference speed: divided
  // by the gauge's slowdown over that window's slices. The machine's speed
  // drifts within a run too, so a run-wide factor over- or under-corrects
  // the windows whose percentiles decide the median.
  double Percentile(double p, const SpeedGauge& gauge) const;
  size_t size() const;

 private:
  std::vector<std::vector<double>> windows_;
};

// Largest resident set of this process, and of any reaped descendant, in MB.
double PeakRssSelfMb();
double PeakRssChildrenMb();

// Value reported for a per-layer metric the backend cannot observe from the
// benchmark's side; the reason is printed alongside (Report::Unavailable).
inline constexpr double kUnavailable = -1.0;

// Named metrics of one run, printed as the last line of standard output:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {value, unit}}}.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  void Unavailable(const std::string& name, const std::string& unit, const std::string& why);
  bool Has(const std::string& name) const { return metrics_.count(name) != 0; }
  double Get(const std::string& name) const { return metrics_.at(name).first; }
  // The named metrics, with their units and unavailability reasons.
  Report Subset(const std::vector<std::string>& names) const;

  // Human-readable lines (metric = value unit), then the JSON line.
  void Print(bool correct, uint64_t attempted, uint64_t failed) const;

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
  std::map<std::string, std::string> unavailable_;
};

// In-memory spans around the benchmark's calls into each layer. A disabled
// tracer records nothing and Begin returns 0, which End ignores. Begin/End are
// safe from any thread: creates open on the driving thread and close in their
// verdict callback on the protocol loop.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }
  uint32_t Begin(const char* layer, const char* name, uint32_t parent = 0);
  void End(uint32_t id);

  // Runs fn inside a span.
  template <typename Fn>
  void Time(const char* layer, const char* name, uint32_t parent, Fn&& fn) {
    const uint32_t id = Begin(layer, name, parent);
    fn();
    End(id);
  }

  // Self time per layer in seconds: the wall time covered by the layer's
  // closed spans, less the time covered by their closed child spans. Open
  // spans (a watch that never fired) are left out.
  std::map<std::string, double> SelfSeconds() const;
  size_t NumSpans() const;
  // Writes the first kMaxWritten spans as JSON (times in microseconds since
  // the tracer was made; end -1 for a span still open), with the total count.
  // A saturated signal run records over half a million; self times use all.
  // Returns false on an I/O error.
  bool Write(const std::string& path) const;
  static constexpr size_t kMaxWritten = 50000;

 private:
  struct Span {
    const char* layer;
    const char* name;
    uint32_t parent;
    int64_t start_ns;
    int64_t end_ns;  // -1 while open
  };
  int64_t NowNs() const;

  const bool enabled_;
  const Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_; span id = index + 1
};

}  // namespace notifybench

#endif  // NOTIFYBENCH_REPORT_H_
