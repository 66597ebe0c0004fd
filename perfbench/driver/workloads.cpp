#include "workloads.h"

#include <sched.h>
#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <map>
#include <stdexcept>

#include "trace.h"

extern char** environ;

namespace perfbench {

namespace apps = now::apps;
namespace tmk = now::tmk;

namespace {

// Floating-point kernels reassociate their reductions across nodes; the
// repository's app tests compare at this tolerance too.
constexpr double kChecksumTol = 1e-7;
constexpr double kMiB = 1024.0 * 1024.0;
constexpr std::uint64_t kTspSeed = 1;
constexpr std::uint64_t kPassSeedStride = 1000003;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

double tv_s(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
}

// Virtual clocks bill protocol costs only, as in the Section 6 probes.
// CpuMeter bills a compute thread's host wall time, so a descheduled node
// thread became 1998 compute: with the paper's cpu_scale of 150,
// dsm-regular's virtual_s spread 26% over ten runs on a shared host and
// dsm-lossy's read 111 s and 54 s in two runs of one seed.  Without compute,
// virtual_s is the modelled network, interrupt and protocol time; under
// synthetic host load it spread 0.3%.  BENCHMARK.md has the numbers.
now::sim::TimeModel protocol_time() {
  now::sim::TimeModel t;
  t.cpu_scale = 0;
  return t;
}

tmk::DsmConfig paper_dsm() {
  tmk::DsmConfig c;
  c.num_nodes = kNodes;
  c.heap_bytes = std::size_t{96} << 20;
  c.time = protocol_time();
  return c;
}

AppRun timed_run(App app, Version v, const Inputs& in, const WorkloadSpec& spec,
                 const AppCaller& caller) {
  AppRun run;
  run.app = app;
  run.version = v;
  Span span(std::string("app.") + app_name(app) + "." + version_name(v), "apps");
  const auto t0 = std::chrono::steady_clock::now();
  try {
    run.result = caller(app, v, in, spec);
    run.completed = true;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s.%s did not complete: %s\n",
                 app_name(app), version_name(v), e.what());
  }
  run.host_s = seconds_since(t0);
  span.set_vt_us(run.result.virtual_time_us);
  return run;
}

// The four entry points every application exposes, found by argument-
// dependent lookup on its Params type.
template <typename Params>
apps::AppResult run_version(Version v, const Params& p, const WorkloadSpec& spec) {
  switch (v) {
    case Version::kSeq: return run_seq(p, spec.dsm.time);
    case Version::kOmp: return run_omp(p, spec.dsm);
    case Version::kTmk: return run_tmk(p, spec.dsm);
    case Version::kMpi: return run_mpi(p, spec.mpi);
  }
  throw std::logic_error("unknown version");
}

// Protocol groups of the DSM message types (tmk/msgs.h).
const char* dsm_msg_group(std::uint16_t type) {
  switch (type) {
    case tmk::kDiffRequest: case tmk::kDiffReply:
      return "diff";
    case tmk::kLockAcquire: case tmk::kLockForward: case tmk::kLockGrant:
      return "lock";
    case tmk::kBarrierArrive: case tmk::kBarrierDepart:
    case tmk::kTreeArrive: case tmk::kTreeDepart:
      return "barrier";
    case tmk::kFork: case tmk::kJoin: case tmk::kShutdown:
      return "forkjoin";
    case tmk::kSemaSignal: case tmk::kSemaAck: case tmk::kSemaWait:
    case tmk::kSemaGrant: case tmk::kCondWait: case tmk::kCondSignal:
    case tmk::kCondBroadcast: case tmk::kCondWaitAck:
      return "sema_cond";
    case tmk::kGcRequest: case tmk::kGcArrive: case tmk::kGcDepart:
      return "gc";
    case tmk::kUpdatePush: case tmk::kUpdateDeny: case tmk::kLockPushDeny:
      return "push";
    case tmk::kAllocRequest: case tmk::kAllocReply: case tmk::kFreeRequest:
    case tmk::kFreeAck:
      return "alloc";
    case tmk::kCkptQuery: case tmk::kCkptReply: case tmk::kCkptCommit:
    case tmk::kCkptAck:
      return "ckpt";
    case tmk::kAck:
      return "ack";
    default:  // flush (ablation only), channel probes, crash verdicts
      return "other";
  }
}

constexpr const char* kMsgGroups[] = {"diff", "lock", "barrier", "forkjoin",
                                      "sema_cond", "gc", "push", "alloc",
                                      "ckpt", "ack", "other", "mpi"};

}  // namespace

const char* app_name(App a) {
  switch (a) {
    case App::kSweep3d: return "sweep3d";
    case App::kFft3d: return "fft3d";
    case App::kWater: return "water";
    case App::kTsp: return "tsp";
    case App::kQsort: return "qsort";
  }
  return "?";
}

const char* version_name(Version v) {
  switch (v) {
    case Version::kSeq: return "seq";
    case Version::kOmp: return "omp";
    case Version::kTmk: return "tmk";
    case Version::kMpi: return "mpi";
  }
  return "?";
}

Inputs Inputs::standard(std::uint64_t seed, std::uint32_t pass) {
  // Every pass of a run draws fresh inputs: QSORT's traffic is a property
  // of its input (wire bytes ranged 168-213 MiB over seeds 23-30), so a run
  // reports the median over several instances rather than one.  Pass 0 uses
  // the seed itself, so seed 1 starts with the paper tables' inputs.
  const std::uint64_t app_seed = seed + kPassSeedStride * pass;
  Inputs in;
  in.sweep.nx = in.sweep.ny = in.sweep.nz = 48;
  in.sweep.k_block = 6;
  in.fft.nx = in.fft.ny = 64;
  in.fft.nz = 32;
  in.fft.iters = 2;
  in.fft.seed = app_seed;
  in.water.nmol = 512;
  in.water.steps = 3;
  in.water.seed = app_seed;
  in.tsp.ncities = 12;
  in.tsp.exhaustive_depth = 7;
  // TSP always solves the Table 1 instance: branch-and-bound effort is a
  // property of the distance matrix, and across seeds 1-6 it swung from 148k
  // to 328k messages per DSM run, a spread no run of affordable length
  // averages out.  See BENCHMARK.md.
  in.tsp.seed = kTspSeed;
  in.qs.n = std::size_t{1} << 18;
  in.qs.bubble_threshold = 1024;
  in.qs.seed = app_seed;
  return in;
}

bool WorkloadSpec::uses(Version v) const {
  for (Version p : parallel)
    if (p == v) return true;
  return false;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"dsm-regular", "dsm-irregular",
                                                 "mpi-control", "dsm-lossy"};
  return names;
}

std::optional<WorkloadSpec> make_workload(const std::string& name,
                                          std::uint64_t seed) {
  WorkloadSpec w;
  w.name = name;
  w.dsm = paper_dsm();
  w.mpi.num_ranks = kNodes;
  w.mpi.time = protocol_time();
  const std::vector<App> regular = {App::kSweep3d, App::kFft3d, App::kWater};
  if (name == "dsm-regular") {
    w.apps = regular;
    w.parallel = {Version::kOmp, Version::kTmk};
  } else if (name == "dsm-irregular") {
    // Not one of BENCHMARK.json's workloads: each of its ~580k messages per
    // pass is a thread wake-up, so its host_s follows the host's load (ten
    // runs spread 37%, past the largest bound a metric may have).  Its counts
    // are steady; run it by name to study the lock and semaphore path.
    w.apps = {App::kTsp, App::kQsort};
    w.parallel = {Version::kOmp, Version::kTmk};
  } else if (name == "mpi-control") {
    w.apps = {std::begin(kAllApps), std::end(kAllApps)};
    w.parallel = {Version::kMpi};
  } else if (name == "dsm-lossy") {
    // Configured here, never through TMK_* variables: a seeded 1% drop wire
    // (which arms the reliability channel) and a checkpoint every 2 barriers.
    w.apps = regular;
    w.parallel = {Version::kOmp, Version::kTmk};
    w.dsm.net_fault.drop_ppm = 10000;
    w.dsm.net_fault.seed = seed;
    w.dsm.ckpt_every = 2;
  } else {
    return std::nullopt;
  }
  return w;
}

std::vector<std::string> tmk_env_vars() {
  std::vector<std::string> out;
  for (char** e = environ; e != nullptr && *e != nullptr; ++e)
    if (std::strncmp(*e, "TMK_", 4) == 0) {
      const char* eq = std::strchr(*e, '=');
      out.emplace_back(*e, eq ? static_cast<std::size_t>(eq - *e) : std::strlen(*e));
    }
  return out;
}

std::string config_json(const WorkloadSpec& spec, std::uint64_t seed) {
  const tmk::DsmConfig& c = spec.dsm;
  cpu_set_t set;
  CPU_ZERO(&set);
  const int nproc =
      sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : 0;
  char buf[1536];
  std::snprintf(
      buf, sizeof buf,
      "{\"workload\": \"%s\", \"seed\": %llu, \"nodes\": %u, \"nproc\": %d, "
      "\"dsm\": {\"heap_bytes\": %zu, \"cpu_scale\": %g, "
      "\"gc_at_barriers\": %d, \"gc_fork_join\": %d, \"gc_lock_floors\": %d, "
      "\"lock_push_bytes\": %zu, \"lock_push_probe\": %u, "
      "\"lock_push_reprobe\": %u, \"update_mode\": %d, "
      "\"update_promote_epochs\": %u, \"update_reprobe_epochs\": %u, "
      "\"prefetch_pages\": %zu, \"diff_cache_bytes_per_page\": %zu, "
      "\"meta_ceiling_bytes\": %zu, \"barrier_tree_arity\": %u, "
      "\"shard_managers\": %d, \"net_drop_ppm\": %u, \"net_dup_ppm\": %u, "
      "\"net_reorder_ppm\": %u, \"net_jitter_ns\": %llu, "
      "\"net_fault_seed\": %llu, \"net_reliable\": %d, "
      "\"net_max_retries\": %u, \"net_crash_node\": %u, \"ckpt_every\": %u}, "
      "\"mpi\": {\"num_ranks\": %u, \"cpu_scale\": %g}}",
      spec.name.c_str(), static_cast<unsigned long long>(seed), c.num_nodes,
      nproc, c.heap_bytes, c.time.cpu_scale, c.gc_at_barriers, c.gc_fork_join,
      c.gc_lock_floors, c.lock_push_bytes, c.lock_push_probe,
      c.lock_push_reprobe, c.update_mode, c.update_promote_epochs,
      c.update_reprobe_epochs, c.prefetch_pages, c.diff_cache_bytes_per_page,
      c.meta_ceiling_bytes, c.barrier_tree_arity, c.shard_managers,
      c.net_fault.drop_ppm, c.net_fault.dup_ppm, c.net_fault.reorder_ppm,
      static_cast<unsigned long long>(c.net_fault.jitter_ns),
      static_cast<unsigned long long>(c.net_fault.seed), c.net_reliable,
      c.net_max_retries, c.net_crash_node, c.ckpt_every, spec.mpi.num_ranks,
      spec.mpi.time.cpu_scale);
  return buf;
}

apps::AppResult call_app(App app, Version v, const Inputs& in,
                         const WorkloadSpec& spec) {
  switch (app) {
    case App::kSweep3d: return run_version(v, in.sweep, spec);
    case App::kFft3d: return run_version(v, in.fft, spec);
    case App::kWater: return run_version(v, in.water, spec);
    case App::kTsp: return run_version(v, in.tsp, spec);
    case App::kQsort: return run_version(v, in.qs, spec);
  }
  throw std::logic_error("unknown application");
}

std::uint64_t PassResult::failed() const {
  std::uint64_t n = 0;
  for (const auto& r : runs) n += r.correct ? 0 : 1;
  return n;
}

double PassResult::host_s() const {
  double s = 0;
  for (const auto& r : runs) s += r.host_s;
  return s;
}

double quietest_host_s(const std::vector<PassResult>& passes) {
  std::map<std::pair<App, Version>, double> best;
  for (const auto& p : passes)
    for (const auto& r : p.runs) {
      const auto [it, fresh] = best.try_emplace({r.app, r.version}, r.host_s);
      if (!fresh && r.host_s < it->second) it->second = r.host_s;
    }
  double s = 0;
  for (const auto& [key, host_s] : best) s += host_s;
  return s;
}

double PassResult::virtual_s() const {
  double s = 0;
  for (const auto& r : runs)
    if (r.version != Version::kSeq) s += r.result.virtual_time_us * 1e-6;
  return s;
}

double PassResult::messages() const {
  double s = 0;
  for (const auto& r : runs) s += static_cast<double>(r.result.traffic.messages);
  return s;
}

double PassResult::wire_mb() const {
  double s = 0;
  for (const auto& r : runs)
    s += static_cast<double>(r.result.traffic.wire_bytes) / kMiB;
  return s;
}

PassResult run_pass(const WorkloadSpec& spec, const Inputs& in,
                    const AppCaller& caller) {
  PassResult pass;
  Span span("pass", "bench");
  pass.span_id = span.id();
  rusage r0{}, r1{};
  getrusage(RUSAGE_SELF, &r0);
  for (App app : spec.apps) {
    AppRun seq = timed_run(app, Version::kSeq, in, spec, caller);
    seq.correct = seq.completed && std::isfinite(seq.result.checksum);
    const bool have_ref = seq.correct;
    const double ref = seq.result.checksum;
    pass.runs.push_back(std::move(seq));
    for (Version v : spec.parallel) {
      AppRun run = timed_run(app, v, in, spec, caller);
      run.correct = run.completed && have_ref &&
                    apps::checksum_close(ref, run.result.checksum, kChecksumTol);
      if (run.completed && !run.correct)
        std::fprintf(stderr, "perfbench: %s.%s checksum %.17g != seq %.17g\n",
                     app_name(app), version_name(v), run.result.checksum, ref);
      pass.runs.push_back(std::move(run));
    }
  }
  getrusage(RUSAGE_SELF, &r1);
  pass.user_s = tv_s(r1.ru_utime) - tv_s(r0.ru_utime);
  pass.sys_s = tv_s(r1.ru_stime) - tv_s(r0.ru_stime);
  pass.vol_ctx = static_cast<double>(r1.ru_nvcsw - r0.ru_nvcsw);
  pass.invol_ctx = static_cast<double>(r1.ru_nivcsw - r0.ru_nivcsw);
  return pass;
}

double setup_once(const WorkloadSpec& spec, std::uint64_t seed) {
  Span span("setup", "bench");
  const auto t0 = std::chrono::steady_clock::now();
  volatile double sink = 0;  // keeps the generated inputs observable
  {
    Span gen("inputs", "apps");
    const Inputs in = Inputs::standard(seed);
    for (App app : spec.apps) {
      switch (app) {
        case App::kSweep3d:  // analytic source term: nothing to generate
          break;
        case App::kFft3d: {
          std::vector<now::apps::fft3d::Complex> u(in.fft.nx * in.fft.ny *
                                                   in.fft.nz);
          apps::fft3d::fill_initial(u.data(), in.fft);
          sink += u.back().real();
          break;
        }
        case App::kWater:
          sink += apps::water::make_positions(in.water).back();
          break;
        case App::kTsp:
          sink += static_cast<double>(apps::tsp::make_distances(in.tsp).back());
          break;
        case App::kQsort:
          sink += static_cast<double>(apps::qs::make_input(in.qs).back());
          break;
      }
    }
  }
  if (spec.uses_dsm()) {
    Span s("tmk.DsmRuntime", "tmk");
    tmk::DsmRuntime rt(spec.dsm);
  }
  if (spec.uses(Version::kMpi)) {
    Span s("mpi.MpiRuntime", "mpi");
    now::mpi::MpiRuntime rt(spec.mpi);
  }
  return seconds_since(t0);
}

MetricMap layer_metrics(const WorkloadSpec& spec, const PassResult& pass) {
  MetricMap m;
  const Tracer& tracer = Tracer::instance();

  // apps: spans around every run_* call of this pass.
  for (App app : kAllApps) {
    for (Version v : kAllVersions) {
      const std::string name =
          std::string("app.") + app_name(app) + "." + version_name(v);
      double host_s = 0, vt_s = 0;
      for (const auto& s : tracer.find(name, pass.span_id)) {
        host_s += s.host_us() * 1e-6;
        vt_s += s.vt_us * 1e-6;
      }
      m[name + ".host_s"] = {host_s, "s"};
      m[name + ".virtual_s"] = {vt_s, "s"};
    }
  }
  m["apps.fail_frac"] = {ratio(static_cast<double>(pass.failed()),
                               static_cast<double>(pass.attempted())),
                         "ratio"};

  // omp vs tmk, per application holding both versions.
  std::vector<double> vt_ratio, msg_ratio;
  for (const auto& o : pass.runs) {
    if (o.version != Version::kOmp) continue;
    for (const auto& t : pass.runs)
      if (t.app == o.app && t.version == Version::kTmk) {
        vt_ratio.push_back(ratio(o.result.virtual_time_us, t.result.virtual_time_us));
        msg_ratio.push_back(ratio(static_cast<double>(o.result.traffic.messages),
                                  static_cast<double>(t.result.traffic.messages)));
      }
  }
  m["omp.vt_over_tmk"] = {geomean(vt_ratio), "ratio"};
  m["omp.msgs_over_tmk"] = {geomean(msg_ratio), "ratio"};

  // tmk and simnet: the snapshots every run returned.
  tmk::DsmStatsSnapshot d;
  now::sim::TrafficSnapshot traffic;
  std::map<std::string, double> groups;
  for (const char* g : kMsgGroups) groups[g] = 0;
  for (const auto& r : pass.runs) {
    d += r.result.dsm;
    traffic += r.result.traffic;
    for (std::size_t t = 0; t < now::sim::kMaxMessageTypes; ++t) {
      const double n = static_cast<double>(r.result.traffic.messages_by_type[t]);
      if (n == 0) continue;
      groups[r.version == Version::kMpi ? "mpi"
                                        : dsm_msg_group(static_cast<std::uint16_t>(t))] += n;
    }
  }
  auto count = [&](const char* name, std::uint64_t v) {
    m[name] = {static_cast<double>(v), "count"};
  };
  auto mib = [&](const char* name, std::uint64_t bytes) {
    m[name] = {static_cast<double>(bytes) / kMiB, "MiB"};
  };
  auto frac = [&](const char* name, std::uint64_t num, std::uint64_t den) {
    m[name] = {ratio(static_cast<double>(num), static_cast<double>(den)), "ratio"};
  };
  count("tmk.faults", d.read_faults + d.write_faults);
  count("tmk.cold_fills", d.cold_zero_fills);
  count("tmk.diff_fetches", d.diff_fetches);
  count("tmk.twins", d.twins_created);
  count("tmk.diffs_created", d.diffs_created);
  mib("tmk.diff_mb", d.diff_bytes_created);
  count("tmk.diffs_applied", d.diffs_applied);
  count("tmk.invalidations", d.invalidations);
  frac("tmk.diff_cache_hit_ratio", d.diff_cache_hits, d.diff_cache_hits + d.diff_fetches);
  frac("tmk.prefetch_hit_ratio", d.prefetch_hits, d.prefetch_pages_filled);
  frac("tmk.update_push_hit_ratio", d.update_push_hits, d.update_pages_pushed);
  count("tmk.lock_acquires", d.lock_acquires);
  frac("tmk.lock_cached_ratio", d.lock_acquires_cached, d.lock_acquires);
  frac("tmk.lock_push_hit_ratio", d.lock_push_hits, d.lock_pages_pushed);
  count("tmk.sema_ops", d.sema_ops);
  count("tmk.cond_ops", d.cond_ops);
  count("tmk.barriers", d.barriers);
  // Every node counts each barrier it passes: episodes = barriers / nodes.
  m["tmk.barrier_msgs_per_barrier"] = {
      ratio(static_cast<double>(d.barrier_msgs_sent),
            static_cast<double>(d.barriers) / spec.dsm.num_nodes),
      "count"};
  count("tmk.gc_records", d.gc_records_reclaimed);
  mib("tmk.gc_mb", d.gc_diff_bytes_reclaimed);
  count("tmk.ckpt_epochs", d.ckpt_epochs);
  mib("tmk.ckpt_mb", d.ckpt_bytes_written);
  frac("tmk.ckpt_incremental_ratio", d.ckpt_pages_incremental,
       d.ckpt_pages_incremental + d.ckpt_bytes_written / tmk::kPageSize);

  for (const auto& [g, n] : groups) m["simnet.msgs." + g] = {n, "count"};
  m["simnet.bytes_per_msg"] = {ratio(static_cast<double>(traffic.wire_bytes),
                                     static_cast<double>(traffic.messages)),
                               "B"};
  frac("simnet.header_frac", traffic.wire_bytes - traffic.payload_bytes,
       traffic.wire_bytes);
  count("simnet.chan.retransmits", traffic.chan.retransmits);
  mib("simnet.chan.retransmit_mb", traffic.chan.retransmit_wire_bytes);
  count("simnet.chan.acks", traffic.chan.acks_sent);
  count("simnet.chan.dup_drops", traffic.chan.dup_drops);
  count("simnet.chan.reorder_holds", traffic.chan.reorder_holds);

  m["host.user_s"] = {pass.user_s, "s"};
  m["host.sys_s"] = {pass.sys_s, "s"};
  m["host.vol_ctx"] = {pass.vol_ctx, "count"};
  m["host.invol_ctx"] = {pass.invol_ctx, "count"};
  return m;
}

}  // namespace perfbench
