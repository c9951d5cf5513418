// In-memory span tracer for traced runs.
//
// A Span times one call into the program from the benchmark's side.
// It always measures (the untraced run reads step times from it too);
// it is recorded only while tracing is enabled. Spans nest per thread:
// each records the id of the span open around it on the same thread.
// Every recording thread owns one track (a simulated rank, or the main
// thread), written only by that thread, so recording takes no lock.
// write_chrome_json() emits the tracks as Chrome trace-event JSON.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  const char* name;
  double start_us;
  double end_us;
  int64_t id;
  int64_t parent;  // -1 at the root of a track
};

class Tracer {
 public:
  static Tracer& get();

  // Allocates `tracks` tracks (ranks 0..tracks-2, the main thread last)
  // and turns recording on.
  void enable(int tracks);
  bool on() const { return on_.load(std::memory_order_relaxed); }
  // The calling thread records into track `t` from now on.
  static void set_track(int t);
  int main_track() const { return static_cast<int>(tracks_.size()) - 1; }

  void record(const SpanRecord& r);
  int64_t next_id() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  double to_us(double t_s) const { return (t_s - origin_s_) * 1e6; }
  size_t span_count() const;
  void write_chrome_json(const std::string& path) const;

 private:
  std::atomic<bool> on_{false};
  std::atomic<int64_t> next_id_{0};
  double origin_s_ = 0;
  std::vector<std::vector<SpanRecord>> tracks_;
};

class Span {
 public:
  explicit Span(const char* name);
  ~Span() { end(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  // Closes the span (once) and returns its duration in seconds.
  double end();

 private:
  const char* name_;
  double start_s_;
  double dur_s_ = -1;
  int64_t id_ = -1;
  int64_t parent_ = -1;
};

}  // namespace perfbench
