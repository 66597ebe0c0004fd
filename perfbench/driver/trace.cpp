#include "trace.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>

namespace perfbench {

namespace {

double steady_us() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t tid = next.fetch_add(1);
  return tid;
}

// Innermost open span per thread, for parent inheritance.
thread_local std::vector<std::uint64_t> open_spans;

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

Tracer::Tracer() : epoch_us_(steady_us()) {}

Tracer& Tracer::instance() {
  static Tracer t;
  return t;
}

double Tracer::now_us() const { return steady_us() - epoch_us_; }

std::uint64_t Tracer::next_id() {
  std::lock_guard<std::mutex> g(mu_);
  return next_id_++;
}

void Tracer::record(SpanRecord&& s) {
  std::lock_guard<std::mutex> g(mu_);
  spans_.push_back(std::move(s));
}

std::vector<SpanRecord> Tracer::spans() const {
  std::lock_guard<std::mutex> g(mu_);
  return spans_;
}

std::vector<SpanRecord> Tracer::find(const std::string& name,
                                     std::uint64_t parent) const {
  std::lock_guard<std::mutex> g(mu_);
  std::vector<SpanRecord> out;
  for (const auto& s : spans_)
    if (s.name == name && s.parent == parent) out.push_back(s);
  return out;
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  f << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  bool first = true;
  char buf[160];
  for (const auto& s : spans()) {
    if (!first) f << ",\n";
    first = false;
    std::snprintf(buf, sizeof buf,
                  "\"ph\": \"X\", \"pid\": 1, \"tid\": %u, \"ts\": %.3f, "
                  "\"dur\": %.3f",
                  s.tid, s.start_us, s.host_us());
    f << "{\"name\": " << json_string(s.name)
      << ", \"cat\": " << json_string(s.layer) << ", " << buf
      << ", \"args\": {\"span\": " << s.id << ", \"parent\": " << s.parent;
    if (s.has_vt) {
      std::snprintf(buf, sizeof buf, ", \"vt_us\": %.3f", s.vt_us);
      f << buf;
    }
    f << "}}";
  }
  f << "\n]}\n";
  return static_cast<bool>(f);
}

Span::Span(std::string name, const char* layer, std::uint64_t parent)
    : active_(Tracer::instance().enabled()) {
  if (!active_) return;
  Tracer& t = Tracer::instance();
  rec_.id = t.next_id();
  rec_.parent = parent != kInherit ? parent
                : open_spans.empty() ? 0
                                     : open_spans.back();
  rec_.name = std::move(name);
  rec_.layer = layer;
  rec_.tid = thread_index();
  open_spans.push_back(rec_.id);
  rec_.start_us = t.now_us();
}

Span::~Span() {
  if (!active_) return;
  Tracer& t = Tracer::instance();
  rec_.end_us = t.now_us();
  open_spans.pop_back();
  t.record(std::move(rec_));
}

void Span::set_vt_us(double vt) {
  rec_.has_vt = true;
  rec_.vt_us = vt;
}

}  // namespace perfbench
