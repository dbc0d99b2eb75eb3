#include "measure.h"

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <numeric>
#include <string>
#include <thread>

namespace perfbench {

double Dist::Quantile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const size_t index =
      rank < 1.0 ? 0 : std::min(sorted.size(), static_cast<size_t>(rank)) - 1;
  return sorted[index];
}

double Dist::Mean() const {
  if (values_.empty()) return 0.0;
  return std::accumulate(values_.begin(), values_.end(), 0.0) /
         static_cast<double>(values_.size());
}

Dist TimedDist::WindowQuantiles(double window_seconds, double q,
                                size_t min_samples) const {
  std::vector<Dist> windows;
  const std::vector<double>& values = all_.values();
  for (size_t i = 0; i < at_.size(); ++i) {
    const size_t w =
        static_cast<size_t>(std::max(0.0, at_[i]) / window_seconds);
    if (w >= windows.size()) windows.resize(w + 1);
    windows[w].Add(values[i]);
  }
  Dist per_window;
  for (const Dist& w : windows) {
    if (w.size() >= min_samples) per_window.Add(w.Quantile(q));
  }
  return per_window;
}

double TimedDist::CalmestWindowQuantile(double window_seconds, double q,
                                        size_t min_samples) const {
  const Dist per_window = WindowQuantiles(window_seconds, q, min_samples);
  return per_window.empty() ? all_.Quantile(q) : per_window.Min();
}

void Metrics::Set(const std::string& name, double value,
                  const std::string& unit) {
  for (Metric& m : items_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  items_.push_back({name, value, unit});
}

const Metric* Metrics::Find(const std::string& name) const {
  for (const Metric& m : items_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

std::string JsonQuote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void Json::Key(const std::string& key) {
  if (!body_.empty()) body_ += ", ";
  body_ += JsonQuote(key) + ": ";
}

Json& Json::Num(const std::string& key, double v) {
  Key(key);
  body_ += JsonNumber(v);
  return *this;
}

Json& Json::Int(const std::string& key, uint64_t v) {
  Key(key);
  body_ += std::to_string(v);
  return *this;
}

Json& Json::Str(const std::string& key, const std::string& v) {
  Key(key);
  body_ += JsonQuote(v);
  return *this;
}

Json& Json::Bool(const std::string& key, bool v) {
  Key(key);
  body_ += v ? "true" : "false";
  return *this;
}

Json& Json::Raw(const std::string& key, const std::string& raw) {
  Key(key);
  body_ += raw;
  return *this;
}

std::string MetricsJson(const Metrics& metrics) {
  Json out;
  for (const Metric& m : metrics.all()) {
    out.Raw(m.name, Json().Num("value", m.value).Str("unit", m.unit).str());
  }
  return out.str();
}

std::string TallyJson(const std::vector<OpTally>& tallies) {
  Json out;
  for (const OpTally& t : tallies) {
    const double failed_share =
        t.attempted == 0 ? 0.0
                         : static_cast<double>(t.not_ok()) /
                               static_cast<double>(t.attempted);
    out.Raw(t.op, Json()
                      .Int("attempted", t.attempted)
                      .Int("ok", t.ok)
                      .Int("rejected", t.rejected)
                      .Int("timed_out", t.timed_out)
                      .Int("failed", t.failed)
                      .Num("failed_share", failed_share)
                      .str());
  }
  return out.str();
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KB on Linux
}

bool ResetPeakRss() {
#ifdef __GLIBC__
  // Hand freed heap back first: the reset sets the peak to the current
  // RSS, which would otherwise include what an earlier pass freed.
  malloc_trim(0);
#endif
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  return clear.good();
}

CpuRotation::CpuRotation() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus_.push_back(cpu);
  }
}

CpuRotation::~CpuRotation() {
  if (cpus_.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus_) CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

void CpuRotation::Pin(size_t i) {
  if (cpus_.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus_[i % cpus_.size()], &set);
  sched_setaffinity(0, sizeof(set), &set);
}

void SleepUntil(Clock::time_point when) {
  constexpr auto kSpin = std::chrono::microseconds(60);
  const Clock::time_point now = Clock::now();
  if (when - now > kSpin) std::this_thread::sleep_until(when - kSpin);
  while (Clock::now() < when) {
  }
}

}  // namespace perfbench
