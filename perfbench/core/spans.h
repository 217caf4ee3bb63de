// In-memory host-time spans for the traced run. The benchmark opens a span
// around each call it makes into a layer's public functions (an engine
// entry call, Interleaver::Run, rack::RunOpenLoop, ...). Spans nest through
// a per-thread stack of open spans, so every span knows its parent, and
// self time (own duration minus the children's) attributes host time to
// the innermost layer. Nothing is recorded while no recorder is active:
// measured (untraced) runs pay one branch per call site.

#ifndef PERFBENCH_CORE_SPANS_H_
#define PERFBENCH_CORE_SPANS_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

inline constexpr uint32_t kNoParent = UINT32_MAX;

struct SpanRecord {
  uint32_t id = 0;
  uint32_t parent = kNoParent;
  uint32_t name = 0;  ///< index into SpanRecorder::names()
  int unit = -1;      ///< unit of the round the span belongs to; -1 = none
  int64_t start_ns = 0;
  int64_t end_ns = -1;  ///< -1 while open
};

/// Per-name rollup of a set of spans.
struct SpanTotals {
  uint64_t count = 0;
  int64_t total_ns = 0;  ///< inclusive
  int64_t self_ns = 0;   ///< exclusive of child spans
  int64_t max_ns = 0;    ///< longest single span
};

class SpanRecorder {
 public:
  /// Opens a span at host time `now_ns` as a child of the calling thread's
  /// innermost open span; returns its id.
  uint32_t OpenAt(std::string_view name, int unit, int64_t now_ns);
  /// Closes span `id` (the calling thread's innermost open span).
  void CloseAt(uint32_t id, int64_t now_ns);

  uint32_t Open(std::string_view name, int unit);
  void Close(uint32_t id);

  size_t size() const { return spans_.size(); }
  const std::vector<SpanRecord>& spans() const { return spans_; }
  const std::vector<std::string>& names() const { return names_; }

  /// Rollup by name of the closed spans with index >= `first`.
  std::map<std::string, SpanTotals> Totals(size_t first = 0) const;

  /// Writes every span as one JSON object per line.
  bool WriteJsonl(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
  std::vector<std::string> names_;
  std::map<std::string, uint32_t, std::less<>> name_ids_;
};

/// The recorder spans go to; nullptr (the default) disables tracing.
SpanRecorder* ActiveRecorder();
void SetActiveRecorder(SpanRecorder* recorder);

/// Host monotonic clock in nanoseconds.
int64_t HostNowNs();

/// RAII span on the active recorder; a no-op when tracing is off.
class ScopedSpan {
 public:
  explicit ScopedSpan(std::string_view name, int unit = -1)
      : rec_(ActiveRecorder()), id_(rec_ ? rec_->Open(name, unit) : 0) {}
  ~ScopedSpan() {
    if (rec_ != nullptr) rec_->Close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
  uint32_t id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_CORE_SPANS_H_
