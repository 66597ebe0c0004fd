// The benchmark's workloads: which of the paper's five applications run in
// which versions, on which simulated cluster, and how one pass over them is
// timed, checked against the sequential reference and reduced to metrics.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "apps/fft3d/fft3d.h"
#include "apps/qsort/qsort.h"
#include "apps/sweep3d/sweep3d.h"
#include "apps/tsp/tsp.h"
#include "apps/water/water.h"
#include "metrics.h"

namespace perfbench {

// The paper's node count (Figure 5 and Table 2 are 8-workstation results).
inline constexpr std::uint32_t kNodes = 8;

enum class App { kSweep3d, kFft3d, kWater, kTsp, kQsort };
enum class Version { kSeq, kOmp, kTmk, kMpi };
inline constexpr App kAllApps[] = {App::kSweep3d, App::kFft3d, App::kWater,
                                   App::kTsp, App::kQsort};
inline constexpr Version kAllVersions[] = {Version::kSeq, Version::kOmp,
                                           Version::kTmk, Version::kMpi};

const char* app_name(App a);
const char* version_name(Version v);

// Table 1 inputs at the sizes of the repository's paper tables
// (bench_common.h's Workloads::standard at scale 1).  3D-FFT, Water and
// QSORT draw their input from (workload seed, pass number); Sweep3D's source
// term is analytic, and TSP keeps the paper-table instance (workloads.cpp
// says why).
struct Inputs {
  now::apps::sweep3d::Params sweep;
  now::apps::fft3d::Params fft;
  now::apps::water::Params water;
  now::apps::tsp::Params tsp;
  now::apps::qs::Params qs;

  static Inputs standard(std::uint64_t seed, std::uint32_t pass = 0);
};

struct WorkloadSpec {
  std::string name;
  std::vector<App> apps;
  std::vector<Version> parallel;  // versions timed beside the sequential one
  now::tmk::DsmConfig dsm;
  now::mpi::MpiConfig mpi;

  bool uses(Version v) const;
  bool uses_dsm() const { return uses(Version::kOmp) || uses(Version::kTmk); }
};

const std::vector<std::string>& workload_names();
std::optional<WorkloadSpec> make_workload(const std::string& name,
                                          std::uint64_t seed);

// Names of the TMK_* variables set in the environment.  Any of them would
// silently change a DsmConfig default and so what a workload measures.
std::vector<std::string> tmk_env_vars();

// The effective configuration, node count and host CPU count, as one JSON
// object recorded with every result.
std::string config_json(const WorkloadSpec& spec, std::uint64_t seed);

// Calls one application version.  The benchmark passes `call_app`; the
// self-test passes doubles that fail on purpose.
using AppCaller = std::function<now::apps::AppResult(
    App, Version, const Inputs&, const WorkloadSpec&)>;
now::apps::AppResult call_app(App app, Version v, const Inputs& in,
                              const WorkloadSpec& spec);

struct AppRun {
  App app = App::kSweep3d;
  Version version = Version::kSeq;
  double host_s = 0;
  now::apps::AppResult result;
  bool completed = false;
  bool correct = false;  // completed and its checksum matches the reference
};

struct PassResult {
  std::vector<AppRun> runs;
  std::uint64_t span_id = 0;  // the pass span (0 when untraced)
  double user_s = 0, sys_s = 0, vol_ctx = 0, invol_ctx = 0;  // rusage deltas

  std::uint64_t attempted() const { return runs.size(); }
  std::uint64_t failed() const;
  // End-to-end quantities of the pass.
  double host_s() const;     // every timed app run, sequential ones included
  double virtual_s() const;  // parallel runs only
  double messages() const;
  double wire_mb() const;
};

// The workload's host seconds over several passes: for each application
// version the quickest of its runs, summed.  Host load only ever adds time,
// and a run of a few hundred milliseconds often fits between bursts of it,
// so the quickest run is the one least disturbed.
double quietest_host_s(const std::vector<PassResult>& passes);

// Runs every application of the workload once sequentially and once per
// parallel version; a parallel run is correct when it completes and its
// checksum matches the sequential run's (apps::checksum_close).
PassResult run_pass(const WorkloadSpec& spec, const Inputs& in,
                    const AppCaller& caller = call_app);

// One set-up: input generation for the workload's applications plus one
// construction and teardown of its DsmRuntime / MpiRuntime.  Returns host
// seconds.
double setup_once(const WorkloadSpec& spec, std::uint64_t seed);

// Per-layer metrics of one traced pass: app spans, the DSM and traffic
// snapshots the runs returned, and the pass's rusage deltas.
MetricMap layer_metrics(const WorkloadSpec& spec, const PassResult& pass);

}  // namespace perfbench
