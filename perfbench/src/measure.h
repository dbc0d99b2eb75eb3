#ifndef PERFBENCH_MEASURE_H_
#define PERFBENCH_MEASURE_H_

// Measurement primitives shared by every workload: sample distributions,
// per-op-type failure accounting, named metrics with units, a minimal JSON
// writer, and process peak RSS.

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// num / den, or 0 when den is 0.
inline double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// A bag of samples. Quantiles use the nearest-rank rule on a sorted copy,
/// so every reported value is one that was actually measured.
class Dist {
 public:
  void Add(double v) { values_.push_back(v); }
  void Append(const Dist& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  /// q in [0, 1]; 0 when empty.
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }
  double Max() const { return Quantile(1.0); }
  double Min() const { return Quantile(0.0); }
  double Mean() const;
  const std::vector<double>& values() const { return values_; }

 private:
  std::vector<double> values_;
};

/// Samples tagged with when they happened (seconds since the run started).
class TimedDist {
 public:
  void Add(double at_seconds, double v) {
    at_.push_back(at_seconds);
    all_.Add(v);
  }
  const Dist& all() const { return all_; }
  const std::vector<double>& times() const { return at_; }
  /// Each consecutive `window_seconds` window's q-quantile, for windows
  /// holding at least `min_samples` samples. Empty when none qualifies.
  Dist WindowQuantiles(double window_seconds, double q,
                       size_t min_samples) const;
  /// The q-quantile of the calmest window: the lowest per-window
  /// q-quantile, or the whole-run quantile when no window qualifies. A host
  /// stall then inflates the windows it hits, not the figure.
  double CalmestWindowQuantile(double window_seconds, double q,
                               size_t min_samples) const;

 private:
  std::vector<double> at_;
  Dist all_;
};

/// Attempted/ok/rejected/timed-out/failed counts for one op type.
struct OpTally {
  std::string op;
  uint64_t attempted = 0;
  uint64_t ok = 0;
  uint64_t rejected = 0;   ///< admission control refused it
  uint64_t timed_out = 0;  ///< deadline fired
  uint64_t failed = 0;     ///< any other error, including wrong answers
  uint64_t not_ok() const { return rejected + timed_out + failed; }
  void Merge(const OpTally& o) {
    attempted += o.attempted;
    ok += o.ok;
    rejected += o.rejected;
    timed_out += o.timed_out;
    failed += o.failed;
  }
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Ordered name -> (value, unit) list; Set overwrites by name.
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  const Metric* Find(const std::string& name) const;
  const std::vector<Metric>& all() const { return items_; }

 private:
  std::vector<Metric> items_;
};

/// Builds one JSON object. Doubles print with %.17g (all digits); non-finite
/// doubles print as null.
class Json {
 public:
  Json& Num(const std::string& key, double v);
  Json& Int(const std::string& key, uint64_t v);
  Json& Str(const std::string& key, const std::string& v);
  Json& Bool(const std::string& key, bool v);
  /// `raw` must already be valid JSON.
  Json& Raw(const std::string& key, const std::string& raw);
  std::string str() const { return "{" + body_ + "}"; }

 private:
  void Key(const std::string& key);
  std::string body_;
};

std::string JsonQuote(const std::string& s);
std::string JsonNumber(double v);
/// `{"name": {"value": v, "unit": u}, ...}`.
std::string MetricsJson(const Metrics& metrics);
std::string TallyJson(const std::vector<OpTally>& tallies);

/// Peak resident set size of this process in MB since the last
/// ResetPeakRss (VmHWM in /proc/self/status; getrusage's ru_maxrss, the
/// peak since the start, where that file cannot be read).
double PeakRssMb();
/// Returns freed heap to the system and resets the peak to the current
/// resident set (writes 5 to /proc/self/clear_refs), so each pass of a run
/// reports its own peak.
/// False when the kernel refused.
bool ResetPeakRss();

/// Moves the calling thread across the CPUs it may run on, so a
/// single-thread timing samples every CPU instead of whichever one the
/// scheduler settled on: on a VM whose CPUs run at different speeds that
/// choice otherwise decides the whole run. Restores the thread's original
/// affinity on destruction. Do not start threads while pinned: they would
/// inherit the single-CPU mask.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;
  /// Pins the calling thread to the (i mod n)-th allowed CPU.
  void Pin(size_t i);

 private:
  std::vector<int> cpus_;
};

/// Sleeps until `when`; the last stretch is a short spin so open-loop
/// sends leave close to their schedule without burning a core meanwhile.
void SleepUntil(Clock::time_point when);

}  // namespace perfbench

#endif  // PERFBENCH_MEASURE_H_
