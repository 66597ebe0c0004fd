// In-memory span recorder for the benchmark's traced pass.
//
// A span covers one call the benchmark makes into a layer's public API (an
// app's run_* entry point, a DsmRuntime construction, a tmk barrier inside a
// probe, ...): its name, layer, host start/end, the virtual-time delta where
// the call exposes a clock, and the span that caused it.  Spans are kept in
// memory and written once, as Chrome trace-event JSON, when the benchmark
// ends.  While the tracer is disabled a Span costs one branch.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0: root span
  std::string name;
  std::string layer;
  double start_us = 0;       // host steady-clock microseconds since the epoch
  double end_us = 0;
  bool has_vt = false;
  double vt_us = 0;          // virtual microseconds the call took
  std::uint32_t tid = 0;     // small per-thread index (Chrome "tid")

  double host_us() const { return end_us - start_us; }
};

class Tracer {
 public:
  static Tracer& instance();

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  double now_us() const;
  std::uint64_t next_id();
  void record(SpanRecord&& s);

  // Spans recorded so far, in completion order.
  std::vector<SpanRecord> spans() const;
  // Spans named `name` whose parent is `parent`.
  std::vector<SpanRecord> find(const std::string& name,
                               std::uint64_t parent) const;

  // Writes every span as a Chrome trace-event file ("X" complete events,
  // host-time stamps, virtual time and parentage in args).  Returns false
  // when the file cannot be written.
  bool write_chrome_json(const std::string& path) const;

 private:
  Tracer();
  std::atomic<bool> enabled_{false};
  double epoch_us_ = 0;
  mutable std::mutex mu_;
  std::uint64_t next_id_ = 1;           // guarded by mu_
  std::vector<SpanRecord> spans_;       // guarded by mu_
};

// RAII span.  The parent defaults to the innermost open span on this thread;
// spans opened on node threads pass the parent explicitly.
class Span {
 public:
  static constexpr std::uint64_t kInherit = ~std::uint64_t{0};

  Span(std::string name, const char* layer, std::uint64_t parent = kInherit);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void set_vt_us(double vt);
  std::uint64_t id() const { return rec_.id; }

 private:
  bool active_;
  SpanRecord rec_;
};

}  // namespace perfbench
