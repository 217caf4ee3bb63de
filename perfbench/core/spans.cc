#include "core/spans.h"

#include <atomic>
#include <chrono>
#include <cstdio>

namespace perfbench {

namespace {

std::atomic<SpanRecorder*> g_active{nullptr};

/// Ids of the calling thread's open spans, innermost last.
thread_local std::vector<uint32_t> t_open;

}  // namespace

SpanRecorder* ActiveRecorder() {
  return g_active.load(std::memory_order_relaxed);
}

void SetActiveRecorder(SpanRecorder* recorder) {
  g_active.store(recorder, std::memory_order_relaxed);
}

int64_t HostNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint32_t SpanRecorder::OpenAt(std::string_view name, int unit,
                              int64_t now_ns) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = name_ids_.find(name);
  if (it == name_ids_.end()) {
    it = name_ids_.emplace(std::string(name),
                           static_cast<uint32_t>(names_.size())).first;
    names_.emplace_back(name);
  }
  SpanRecord s;
  s.id = static_cast<uint32_t>(spans_.size());
  s.parent = t_open.empty() ? kNoParent : t_open.back();
  s.name = it->second;
  s.unit = unit;
  s.start_ns = now_ns;
  spans_.push_back(s);
  t_open.push_back(s.id);
  return s.id;
}

void SpanRecorder::CloseAt(uint32_t id, int64_t now_ns) {
  std::lock_guard<std::mutex> lk(mu_);
  spans_[id].end_ns = now_ns;
  if (!t_open.empty() && t_open.back() == id) t_open.pop_back();
}

uint32_t SpanRecorder::Open(std::string_view name, int unit) {
  return OpenAt(name, unit, HostNowNs());
}

void SpanRecorder::Close(uint32_t id) { CloseAt(id, HostNowNs()); }

std::map<std::string, SpanTotals> SpanRecorder::Totals(size_t first) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<int64_t> self(spans_.size(), 0);
  for (size_t i = first; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    if (s.end_ns < 0) continue;
    const int64_t dur = s.end_ns - s.start_ns;
    self[i] += dur;
    if (s.parent != kNoParent && s.parent >= first) self[s.parent] -= dur;
  }
  std::map<std::string, SpanTotals> out;
  for (size_t i = first; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    if (s.end_ns < 0) continue;
    const int64_t dur = s.end_ns - s.start_ns;
    SpanTotals& t = out[names_[s.name]];
    ++t.count;
    t.total_ns += dur;
    t.self_ns += self[i];
    if (dur > t.max_ns) t.max_ns = dur;
  }
  return out;
}

bool SpanRecorder::WriteJsonl(const std::string& path) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const SpanRecord& s : spans_) {
    std::fprintf(f,
                 "{\"id\":%u,\"parent\":%lld,\"name\":\"%s\",\"unit\":%d,"
                 "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 s.id,
                 s.parent == kNoParent ? -1LL
                                       : static_cast<long long>(s.parent),
                 names_[s.name].c_str(), s.unit,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
