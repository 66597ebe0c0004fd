// Section 6 probes: small programs that call tmk, omp, simnet and mpi
// functions directly on the paper's 8-node cluster, one span per call, so the
// basic operation costs are measured rather than typed in.
#pragma once

#include <cstdint>
#include <cstdio>

#include "metrics.h"

namespace perfbench {

// Runs every probe (the tracer must be enabled: the metrics are medians over
// the probes' spans) and prints measured-vs-nominal rows to `log`.
MetricMap run_probes(std::uint64_t seed, std::FILE* log);

}  // namespace perfbench
