#include "span_log.h"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace perfbench {
namespace {

std::atomic<bool> g_enabled{false};
std::atomic<uint64_t> g_next_id{1};
Clock::time_point g_epoch = Clock::now();

struct Buffer {
  std::vector<SpanRecord> spans;
};

std::mutex g_registry_mu;
std::vector<std::unique_ptr<Buffer>> g_buffers;  // guarded by g_registry_mu

Buffer* ThreadBuffer() {
  thread_local Buffer* buffer = nullptr;
  if (buffer == nullptr) {
    std::lock_guard<std::mutex> lock(g_registry_mu);
    g_buffers.push_back(std::make_unique<Buffer>());
    buffer = g_buffers.back().get();
  }
  return buffer;
}

thread_local uint64_t t_open_span = 0;  // innermost ScopedSpan on this thread

int64_t Ns(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - g_epoch)
      .count();
}

uint64_t NewSpanId();
void RecordSpanWithId(uint64_t id, const char* name, Clock::time_point start,
                      Clock::time_point end, uint64_t parent,
                      uint64_t request);

}  // namespace

void EnableSpans(bool on) {
  if (on) g_epoch = Clock::now();
  g_enabled.store(on, std::memory_order_release);
}

bool SpansEnabled() { return g_enabled.load(std::memory_order_acquire); }

namespace {

uint64_t NewSpanId() {
  if (!SpansEnabled()) return 0;
  return g_next_id.fetch_add(1, std::memory_order_relaxed);
}

void RecordSpanWithId(uint64_t id, const char* name, Clock::time_point start,
                      Clock::time_point end, uint64_t parent,
                      uint64_t request) {
  if (id == 0 || !SpansEnabled()) return;
  ThreadBuffer()->spans.push_back(
      {name, Ns(start), Ns(end), id, parent, request});
}

}  // namespace

uint64_t RecordSpan(const char* name, Clock::time_point start,
                    Clock::time_point end, uint64_t parent, uint64_t request) {
  const uint64_t id = NewSpanId();
  RecordSpanWithId(id, name, start, end, parent, request);
  return id;
}

uint64_t CurrentSpan() { return t_open_span; }

ScopedSpan::ScopedSpan(const char* name, uint64_t request)
    : name_(name), request_(request) {
  if (!SpansEnabled()) return;
  id_ = NewSpanId();
  parent_ = t_open_span;
  t_open_span = id_;
  start_ = Clock::now();
}

ScopedSpan::~ScopedSpan() {
  if (id_ == 0) return;
  RecordSpanWithId(id_, name_, start_, Clock::now(), parent_, request_);
  t_open_span = parent_;
}

std::vector<SpanRecord> DrainSpans() {
  std::lock_guard<std::mutex> lock(g_registry_mu);
  std::vector<SpanRecord> out;
  for (const auto& buffer : g_buffers) {
    out.insert(out.end(), buffer->spans.begin(), buffer->spans.end());
    buffer->spans.clear();
  }
  std::sort(out.begin(), out.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              return a.start_ns < b.start_ns;
            });
  return out;
}

std::vector<SpanSummary> Summarize(const std::vector<SpanRecord>& spans) {
  std::unordered_map<uint64_t, size_t> index;
  index.reserve(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<double> covered_ns(spans.size(), 0.0);
  for (const SpanRecord& s : spans) {
    if (s.parent == 0) continue;
    auto it = index.find(s.parent);
    if (it == index.end()) continue;
    const SpanRecord& p = spans[it->second];
    const int64_t lo = std::max(s.start_ns, p.start_ns);
    const int64_t hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) covered_ns[it->second] += static_cast<double>(hi - lo);
  }
  std::map<std::string, SpanSummary> by_name;
  for (size_t i = 0; i < spans.size(); ++i) {
    SpanSummary& sum = by_name[spans[i].name];
    sum.name = spans[i].name;
    const double dur = static_cast<double>(spans[i].end_ns - spans[i].start_ns);
    sum.count += 1;
    sum.total_ms += dur / 1e6;
    // Concurrent children can cover more than the parent's interval.
    sum.self_ms += std::max(0.0, dur - covered_ns[i]) / 1e6;
  }
  std::vector<SpanSummary> out;
  for (auto& [name, sum] : by_name) out.push_back(sum);
  return out;
}

bool WriteSpansJsonl(const std::vector<SpanRecord>& spans,
                     const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  for (const SpanRecord& s : spans) {
    out << "{\"name\": \"" << s.name << "\", \"start_ns\": " << s.start_ns
        << ", \"end_ns\": " << s.end_ns << ", \"id\": " << s.id
        << ", \"parent\": " << s.parent << ", \"request\": " << s.request
        << "}\n";
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
