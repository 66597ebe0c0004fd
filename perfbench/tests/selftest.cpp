// Self-test of the benchmark's own checks: a parallel run whose checksum
// disagrees with the sequential run, or that does not complete, is counted
// as a failed run and makes the result incorrect, never dropped; TMK_*
// variables are detected; the result line has exactly its four keys.
//
//   python3 perfbench/run.py --self-test
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "metrics.h"
#include "workloads.h"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

using perfbench::App;
using perfbench::Version;

// A stand-in for the applications: every version returns the same checksum
// except the one chosen to misbehave.
perfbench::AppCaller fake(App bad_app, Version bad_version, bool throw_instead) {
  return [=](App app, Version v, const perfbench::Inputs&,
             const perfbench::WorkloadSpec&) {
    now::apps::AppResult r;
    r.checksum = 12345.0;
    r.virtual_time_us = v == Version::kSeq ? 8000.0 : 2000.0;
    r.traffic.messages = v == Version::kSeq ? 0 : 10;
    if (app == bad_app && v == bad_version) {
      if (throw_instead) throw std::runtime_error("node crashed");
      r.checksum = 12345.5;
    }
    return r;
  };
}

}  // namespace

int main() {
  const auto spec = perfbench::make_workload("dsm-regular", 7);
  expect(spec.has_value(), "dsm-regular is a workload");
  expect(!perfbench::make_workload("no-such-workload", 7), "unknown name refused");
  const auto in = perfbench::Inputs::standard(7);
  const auto in2 = perfbench::Inputs::standard(7, 2);
  expect(in.qs.seed == perfbench::Inputs::standard(7).qs.seed &&
             in.fft.seed == in.qs.seed && in.water.seed == in.qs.seed &&
             in2.qs.seed != in.qs.seed && in2.fft.seed == in2.qs.seed &&
             in.qs.seed != perfbench::Inputs::standard(8).qs.seed,
         "3D-FFT, Water and QSORT inputs follow (seed, pass)");
  expect(in.tsp.seed == perfbench::Inputs::standard(8, 3).tsp.seed,
         "TSP keeps the Table 1 instance");
  const auto lossy = perfbench::make_workload("dsm-lossy", 7);
  expect(lossy && lossy->dsm.net_fault.drop_ppm == 10000 &&
             lossy->dsm.net_fault.seed == 7 && lossy->dsm.ckpt_every == 2,
         "dsm-lossy configures its wire and checkpoints in code");
  bool protocol_only = true;
  for (const auto& name : perfbench::workload_names()) {
    const auto w = perfbench::make_workload(name, 7);
    protocol_only = protocol_only && w->dsm.time.cpu_scale == 0 &&
                    w->mpi.time.cpu_scale == 0;
  }
  expect(protocol_only, "every workload's virtual clocks bill no compute");

  // 3 apps x (seq + omp + tmk) = 9 runs per pass.
  const auto clean = perfbench::run_pass(*spec, in, fake(App::kTsp, Version::kSeq, false));
  expect(clean.attempted() == 9 && clean.failed() == 0, "clean pass: 9 runs, 0 failed");

  const auto mismatch =
      perfbench::run_pass(*spec, in, fake(App::kFft3d, Version::kOmp, false));
  expect(mismatch.attempted() == 9 && mismatch.failed() == 1,
         "checksum mismatch counted as one failed run");

  const auto crashed =
      perfbench::run_pass(*spec, in, fake(App::kWater, Version::kTmk, true));
  expect(crashed.attempted() == 9 && crashed.failed() == 1,
         "a run that throws is counted as failed");

  const auto bad_ref =
      perfbench::run_pass(*spec, in, fake(App::kSweep3d, Version::kSeq, true));
  expect(bad_ref.failed() == 3,
         "without a sequential reference its parallel runs fail too");

  const auto m = perfbench::layer_metrics(*spec, mismatch);
  expect(std::fabs(m.at("apps.fail_frac").value - 1.0 / 9.0) < 1e-12,
         "apps.fail_frac = failed / attempted");

  // Two passes of two runs each: the quickest run of each version, summed.
  std::vector<perfbench::PassResult> passes(2);
  const double host[2][2] = {{0.5, 2.0}, {0.75, 1.5}};
  for (int p = 0; p < 2; ++p)
    for (Version v : {Version::kSeq, Version::kOmp}) {
      perfbench::AppRun r;
      r.version = v;
      r.host_s = host[p][v == Version::kOmp];
      passes[p].runs.push_back(r);
    }
  expect(perfbench::quietest_host_s(passes) == 2.0,
         "host_s sums each version's quickest run");

  const std::string line = perfbench::result_json(
      mismatch.failed() == 0, mismatch.attempted(), mismatch.failed(),
      {{"host_s", {1.25, "s"}}});
  expect(line == "{\"correct\": false, \"attempted\": 9, \"failed\": 1, "
                 "\"metrics\": {\"host_s\": {\"value\": 1.25, \"unit\": \"s\"}}}",
         "result line reports the failure");

  expect(perfbench::tmk_env_vars().empty(), "no TMK_* variable in the test env");
  setenv("TMK_CKPT_EVERY", "2", 1);
  const auto vars = perfbench::tmk_env_vars();
  expect(vars.size() == 1 && vars[0] == "TMK_CKPT_EVERY", "TMK_CKPT_EVERY detected");
  unsetenv("TMK_CKPT_EVERY");

  std::printf("%s\n", failures ? "SELFTEST FAILED" : "SELFTEST PASSED");
  return failures ? 1 : 0;
}
