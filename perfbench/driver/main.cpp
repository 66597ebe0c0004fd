// The repository benchmark driver: runs one named workload of the paper's
// applications on 8 simulated workstations and prints its metrics.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-file <path>]
//
// --trace 0 times untraced passes and reports the end-to-end metrics;
// --trace 1 alternates untraced and traced passes, runs the Section 6
// probes, reports the per-layer metrics and writes the spans as Chrome
// trace-event JSON.  The last stdout line is the result object; a human
// summary goes to stderr.  perfbench/BENCHMARK.md documents every metric.
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "metrics.h"
#include "probes.h"
#include "trace.h"
#include "workloads.h"

namespace {

using namespace perfbench;

// Set-up samples per run; setup_s is their median.  A sample is the mean of
// two consecutive set-ups, because set-up times alternate between two levels
// from one to the next (dsm-lossy: about 60 and 85 ms), and a median over
// single set-ups landed on either level from run to run.  A process's first
// set-ups run up to twice as long (dsm-irregular: 64-197 ms, then about
// 75 ms), so the median needs enough later samples to land among them.
constexpr int kSetupPairs = 12;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_file = "perfbench-trace.json";
};

bool parse_args(int argc, char** argv, Args& a) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v, &end);
    } else if (flag == "--trace") {
      a.trace = std::strtol(v, &end, 10) != 0;
    } else if (flag == "--trace-file") {
      a.trace_file = v;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return have_workload && a.seconds > 0;
}

double elapsed_s(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

double peak_rss_mb() {
  rusage r{};
  getrusage(RUSAGE_SELF, &r);
  return static_cast<double>(r.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--trace-file <path>]\n");
    return 2;
  }
  if (const auto vars = tmk_env_vars(); !vars.empty()) {
    std::fprintf(stderr,
                 "perfbench: refusing to run with %s set: TMK_* variables "
                 "change DsmConfig defaults and so what a workload measures\n",
                 vars.front().c_str());
    return 2;
  }
  const auto spec = make_workload(args.workload, args.seed);
  if (!spec) {
    std::fprintf(stderr, "perfbench: unknown workload '%s' (one of:",
                 args.workload.c_str());
    for (const auto& n : workload_names()) std::fprintf(stderr, " %s", n.c_str());
    std::fprintf(stderr, ")\n");
    return 2;
  }
  std::printf("%s\n", config_json(*spec, args.seed).c_str());
  std::fflush(stdout);

  Tracer& tracer = Tracer::instance();
  tracer.set_enabled(args.trace);

  std::vector<double> setups;
  for (int i = 0; i < kSetupPairs; ++i) {
    const double first = setup_once(*spec, args.seed);
    setups.push_back(0.5 * (first + setup_once(*spec, args.seed)));
  }

  // Passes until the budget is used up to the nearest whole pass: stop once
  // another pass would end further past the budget than we are short of it.
  // The pass count then moves only when the pass time itself moves.  At least
  // two untraced passes, so that every app version has a second run when one
  // pass is disturbed (a dsm-irregular pass of about 10 s once took 23 s);
  // with tracing at least one untraced and one traced, alternating.
  std::vector<PassResult> plain, traced;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0;; ++i) {
    const bool enough = args.trace ? (!plain.empty() && !traced.empty())
                                   : plain.size() >= 2;
    const double mean_pass_s = i ? elapsed_s(t0) / i : 0;
    if (enough && elapsed_s(t0) + 0.5 * mean_pass_s >= args.seconds) break;
    const bool traced_pass = args.trace && i % 2 == 1;
    tracer.set_enabled(traced_pass);
    auto& list = traced_pass ? traced : plain;
    list.push_back(run_pass(*spec, Inputs::standard(args.seed, i)));
    const PassResult& p = list.back();
    std::fprintf(stderr,
                 "perfbench: pass %d%s: host %.3f s (cpu %.3f s), virtual %.3f s, "
                 "%.0f msgs, %.2f MiB, %llu/%llu failed\n",
                 i, traced_pass ? " (traced)" : "", p.host_s(),
                 p.user_s + p.sys_s, p.virtual_s(),
                 p.messages(), p.wire_mb(),
                 static_cast<unsigned long long>(p.failed()),
                 static_cast<unsigned long long>(p.attempted()));
  }

  std::uint64_t attempted = 0, failed = 0;
  std::vector<double> virt, msgs, wire;
  for (const auto* list : {&plain, &traced})
    for (const auto& p : *list) {
      attempted += p.attempted();
      failed += p.failed();
    }
  for (const auto& p : plain) {
    virt.push_back(p.virtual_s());
    msgs.push_back(p.messages());
    wire.push_back(p.wire_mb());
  }

  MetricMap metrics;
  if (!args.trace) {
    metrics["host_s"] = {quietest_host_s(plain), "s"};
    metrics["virtual_s"] = {median(virt), "s"};
    metrics["messages"] = {median(msgs), "count"};
    metrics["wire_mb"] = {median(wire), "MiB"};
    metrics["setup_s"] = {median(setups), "s"};
    metrics["peak_rss_mb"] = {peak_rss_mb(), "MiB"};
  } else {
    tracer.set_enabled(true);
    std::vector<MetricMap> per_pass;
    for (const auto& p : traced) per_pass.push_back(layer_metrics(*spec, p));
    metrics = median_of(per_pass);
    metrics["trace.overhead"] = {
        ratio(quietest_host_s(traced), quietest_host_s(plain)), "ratio"};
    for (auto& [name, m] : run_probes(args.seed, stderr)) metrics[name] = m;
    if (tracer.write_chrome_json(args.trace_file))
      std::fprintf(stderr, "perfbench: %zu spans written to %s\n",
                   tracer.spans().size(), args.trace_file.c_str());
    else
      std::fprintf(stderr, "perfbench: cannot write %s\n", args.trace_file.c_str());
  }

  std::fprintf(stderr, "perfbench: %s seed %llu: %zu untraced + %zu traced passes, "
               "%llu/%llu app runs failed\n",
               spec->name.c_str(), static_cast<unsigned long long>(args.seed),
               plain.size(), traced.size(),
               static_cast<unsigned long long>(failed),
               static_cast<unsigned long long>(attempted));
  for (const auto& [name, m] : metrics)
    std::fprintf(stderr, "  %-36s %14.6g %s\n", name.c_str(), m.value, m.unit.c_str());
  std::printf("%s\n", result_json(failed == 0, attempted, failed, metrics).c_str());
  return 0;
}
