#include "trace.h"

#include <cstdio>
#include <stdexcept>

#include "bench.h"

namespace perfbench {

namespace {
thread_local int t_track = -1;
thread_local std::vector<int64_t> t_open;  // ids of this thread's open spans
}  // namespace

Tracer& Tracer::get() {
  static Tracer tracer;
  return tracer;
}

void Tracer::enable(int tracks) {
  tracks_.assign(static_cast<size_t>(tracks), {});
  origin_s_ = now_s();
  t_track = main_track();
  on_.store(true, std::memory_order_relaxed);
}

void Tracer::set_track(int t) { t_track = t; }

void Tracer::record(const SpanRecord& r) {
  if (t_track < 0 || t_track >= static_cast<int>(tracks_.size())) {
    throw std::runtime_error("span recorded on a thread without a track");
  }
  tracks_[static_cast<size_t>(t_track)].push_back(r);
}

size_t Tracer::span_count() const {
  size_t n = 0;
  for (const auto& t : tracks_) n += t.size();
  return n;
}

void Tracer::write_chrome_json(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write trace " + path);
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  bool first = true;
  for (size_t t = 0; t < tracks_.size(); ++t) {
    const bool main = static_cast<int>(t) == main_track();
    std::fprintf(f,
                 "%s{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                 "\"tid\":%zu,\"args\":{\"name\":\"%s%s\"}}",
                 first ? "" : ",\n", t, main ? "main" : "rank ",
                 main ? "" : std::to_string(t).c_str());
    first = false;
    for (const SpanRecord& s : tracks_[t]) {
      std::fprintf(f,
                   ",\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%zu,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%lld,"
                   "\"parent\":%lld}}",
                   s.name, t, s.start_us, s.end_us - s.start_us,
                   static_cast<long long>(s.id),
                   static_cast<long long>(s.parent));
    }
  }
  std::fprintf(f, "\n]}\n");
  if (std::fclose(f) != 0) throw std::runtime_error("cannot write trace " + path);
}

Span::Span(const char* name) : name_(name), start_s_(now_s()) {
  Tracer& tr = Tracer::get();
  if (tr.on()) {
    id_ = tr.next_id();
    parent_ = t_open.empty() ? -1 : t_open.back();
    t_open.push_back(id_);
  }
}

double Span::end() {
  if (dur_s_ >= 0) return dur_s_;
  const double end_s = now_s();
  dur_s_ = end_s - start_s_;
  if (id_ >= 0) {
    Tracer& tr = Tracer::get();
    t_open.pop_back();
    tr.record({name_, tr.to_us(start_s_), tr.to_us(end_s), id_, parent_});
  }
  return dur_s_;
}

}  // namespace perfbench
