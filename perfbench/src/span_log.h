#ifndef PERFBENCH_SPAN_LOG_H_
#define PERFBENCH_SPAN_LOG_H_

// The traced run's span recorder. Spans are recorded by the benchmark
// around its own calls into each layer of the system (nothing inside the
// library is instrumented). Each span has a name, start, end, its own id,
// the id of the span that caused it (0 = root), and a request id shared by
// every span of one request. Spans live in per-thread memory buffers and
// are only read back after every recording thread has been joined.

#include <cstdint>
#include <string>
#include <vector>

#include "measure.h"

namespace perfbench {

struct SpanRecord {
  const char* name;  ///< string literal
  int64_t start_ns;  ///< since the recorder was enabled
  int64_t end_ns;
  uint64_t id;
  uint64_t parent;   ///< 0 = root
  uint64_t request;  ///< 0 = not part of a request
};

/// Process-wide switch. Off: every call below is a single branch.
void EnableSpans(bool on);
bool SpansEnabled();

/// Records a completed span; returns its id (0 when disabled).
uint64_t RecordSpan(const char* name, Clock::time_point start,
                    Clock::time_point end, uint64_t parent, uint64_t request);

/// Id of the innermost open ScopedSpan on this thread (0 = none).
uint64_t CurrentSpan();

/// RAII span whose parent is the innermost open ScopedSpan on this thread.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, uint64_t request = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_;
  uint64_t id_ = 0;
  uint64_t parent_ = 0;
  uint64_t request_ = 0;
  Clock::time_point start_;
};

/// Moves every recorded span out of the buffers. Call only after all
/// recording threads have been joined.
std::vector<SpanRecord> DrainSpans();

/// Per span name: how many, total duration, and self time (duration minus
/// the part of it covered by its children).
struct SpanSummary {
  std::string name;
  uint64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};
std::vector<SpanSummary> Summarize(const std::vector<SpanRecord>& spans);

/// Writes one JSON object per span, one per line.
bool WriteSpansJsonl(const std::vector<SpanRecord>& spans,
                     const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_SPAN_LOG_H_
