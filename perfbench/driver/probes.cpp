#include "probes.h"

#include <string>
#include <vector>

#include "common/rng.h"
#include "mpi/mpi.h"
#include "omp/omp.h"
#include "tmk/tmk.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

namespace tmk = now::tmk;
namespace mpi = now::mpi;
namespace sim = now::sim;

namespace {

constexpr int kReps = 24;         // spanned calls per latency probe
constexpr int kBatches = 9;       // spanned batches per host-cost probe
constexpr int kBatchCalls = 2000; // calls per batch

// Section 6 reports protocol costs, not application compute, so the probes
// bill no host compute into virtual time (as bench_micro does): the virtual
// figures are the cost model's, the host figures the simulator's own.  Unit
// "vus" is simulated 1998 microseconds; with nothing host-timed in them, most
// read the same on every run.
tmk::DsmConfig probe_dsm() {
  tmk::DsmConfig c;
  c.num_nodes = kNodes;
  c.heap_bytes = std::size_t{16} << 20;
  c.time.cpu_scale = 0.0;
  return c;
}

mpi::MpiConfig probe_mpi() {
  mpi::MpiConfig c;
  c.num_ranks = kNodes;
  c.time.cpu_scale = 0.0;
  return c;
}

struct Medians {
  double vt_us = 0, host_us = 0;
};

Medians span_medians(const std::string& name, std::uint64_t parent) {
  std::vector<double> vt, host;
  for (const auto& s : Tracer::instance().find(name, parent)) {
    vt.push_back(s.vt_us);
    host.push_back(s.host_us());
  }
  return {median(vt), median(host)};
}

// Empty parallel regions: one kFork per slave out, one kJoin per slave back.
void probe_fork_join(MetricMap& m) {
  Span root("probe.fork_join", "omp");
  const std::uint64_t parent = root.id();
  now::omp::OmpRuntime rt(probe_dsm());
  rt.run([&](now::omp::Team& team) {
    sim::VirtualClock& clock = team.master().node.clock();
    for (int i = 0; i < kReps; ++i) {
      Span s("omp.Team.parallel", "omp", parent);
      const double v0 = clock.now_us();
      team.parallel([](now::omp::Par&) {});
      s.set_vt_us(clock.now_us() - v0);
    }
  });
  const Medians r = span_medians("omp.Team.parallel", parent);
  m["omp.fork_join_vus"] = {r.vt_us, "vus"};
  m["omp.fork_join_host_us"] = {r.host_us, "us"};
}

// Read faults on pages node 0 wrote: each is a trap plus a kDiffRequest /
// kDiffReply round trip.  Pages sit 8 apart, beyond the 4-page prefetch
// window, so no fault is served from a neighbour's prefetch.
void probe_page_fetch(MetricMap& m, std::uint64_t seed) {
  constexpr std::size_t kStrideWords = 8 * tmk::kPageSize / sizeof(std::uint64_t);
  Span root("probe.page_fetch", "tmk");
  const std::uint64_t parent = root.id();
  tmk::DsmRuntime rt(probe_dsm());
  rt.run_spmd([&](tmk::Tmk& t) {
    if (t.id() == 0)
      t.set_root(0, t.alloc(kReps * kStrideWords * sizeof(std::uint64_t),
                            tmk::kPageSize));
    t.barrier();
    auto buf = t.get_root<std::uint64_t>(0);
    if (t.id() == 0) {
      now::Rng rng(seed);
      for (std::size_t i = 0; i < kReps; ++i)
        for (std::size_t w = 0; w < 64; ++w)
          buf[i * kStrideWords + w * 8] = rng.next_u64();
    }
    t.barrier();
    if (t.id() != 1) return;
    sim::VirtualClock& clock = t.node.clock();
    for (std::size_t i = 0; i < kReps; ++i) {
      Span s("tmk.page_fetch", "tmk", parent);
      const double v0 = clock.now_us();
      volatile std::uint64_t word = buf[i * kStrideWords];  // the read fault
      (void)word;
      s.set_vt_us(clock.now_us() - v0);
    }
  });
  const Medians r = span_medians("tmk.page_fetch", parent);
  m["tmk.page_fetch_vus"] = {r.vt_us, "vus"};
  m["tmk.page_fetch_host_us"] = {r.host_us, "us"};
}

// The diff engine on a sparse page (16 scattered 4-byte stores) and a dense
// one (half the page rewritten), host nanoseconds per call.
void probe_diff_engine(MetricMap& m, std::uint64_t seed) {
  Span root("probe.diff_engine", "tmk");
  const std::uint64_t parent = root.id();
  now::Rng rng(seed);
  std::vector<std::uint8_t> twin(tmk::kPageSize);
  for (auto& b : twin) b = static_cast<std::uint8_t>(rng.next_u64());
  std::vector<std::uint8_t> sparse = twin, dense = twin;
  for (std::size_t i = 0; i < 16; ++i)
    for (std::size_t k = 0; k < 4; ++k) sparse[i * 256 + 32 + k] ^= 0x5a;
  for (std::size_t i = 1024; i < 3072; ++i) dense[i] ^= 0xa5;

  volatile std::size_t sink = 0;  // keeps the timed calls observable
  for (const auto& [label, cur] :
       {std::pair<const char*, const std::vector<std::uint8_t>*>{"sparse", &sparse},
        {"dense", &dense}}) {
    const std::string create = std::string("tmk.diff_create.") + label;
    const std::string apply = std::string("tmk.diff_apply.") + label;
    const tmk::DiffBytes diff =
        tmk::diff_create(twin.data(), cur->data(), tmk::kPageSize);
    std::vector<std::uint8_t> page = twin;
    for (int b = 0; b < kBatches; ++b) {
      {
        Span s(create, "tmk", parent);
        for (int k = 0; k < kBatchCalls; ++k)
          sink += tmk::diff_create(twin.data(), cur->data(), tmk::kPageSize).size();
      }
      Span s(apply, "tmk", parent);
      for (int k = 0; k < kBatchCalls; ++k)
        sink += tmk::diff_apply(page.data(), tmk::kPageSize, diff);
    }
    const double per_call_ns = 1000.0 / kBatchCalls;
    m[std::string("tmk.diff_create_") + label + "_host_ns"] = {
        span_medians(create, parent).host_us * per_call_ns, "ns"};
    m[std::string("tmk.diff_apply_") + label + "_host_ns"] = {
        span_medians(apply, parent).host_us * per_call_ns, "ns"};
  }
}

// An 8-node barrier, as every node sees it.
void probe_barrier(MetricMap& m) {
  Span root("probe.barrier", "tmk");
  const std::uint64_t parent = root.id();
  tmk::DsmRuntime rt(probe_dsm());
  rt.run_spmd([&](tmk::Tmk& t) {
    t.barrier();
    t.barrier();
    sim::VirtualClock& clock = t.node.clock();
    for (int i = 0; i < kReps; ++i) {
      Span s("tmk.barrier", "tmk", parent);
      const double v0 = clock.now_us();
      t.barrier();
      s.set_vt_us(clock.now_us() - v0);
    }
  });
  m["tmk.barrier_vus"] = {span_medians("tmk.barrier", parent).vt_us, "vus"};
}

// A lock bounced between nodes 1 and 2 whose manager is a third node:
// request to the manager, forward to the last holder, grant.
void probe_lock_remote(MetricMap& m) {
  Span root("probe.lock_remote", "tmk");
  const std::uint64_t parent = root.id();
  tmk::DsmRuntime rt(probe_dsm());
  std::uint32_t lock = 1;
  while (rt.topology().lock_manager(lock) == 1 ||
         rt.topology().lock_manager(lock) == 2)
    ++lock;
  rt.run_spmd([&](tmk::Tmk& t) {
    sim::VirtualClock& clock = t.node.clock();
    for (int i = 0; i < kReps; ++i) {
      if (t.id() == 1u + static_cast<std::uint32_t>(i % 2)) {
        {
          Span s("tmk.lock_acquire", "tmk", parent);
          const double v0 = clock.now_us();
          t.lock_acquire(lock);
          s.set_vt_us(clock.now_us() - v0);
        }
        t.lock_release(lock);
      }
      t.barrier();
    }
  });
  const Medians r = span_medians("tmk.lock_acquire", parent);
  m["tmk.lock_remote_vus"] = {r.vt_us, "vus"};
  m["tmk.lock_remote_host_us"] = {r.host_us, "us"};
}

// sema_signal to a remote manager blocks until its kSemaAck: one UDP round
// trip plus the protocol's send/receive/service costs.
void probe_sema_rtt(MetricMap& m) {
  Span root("probe.sema_rtt", "tmk");
  const std::uint64_t parent = root.id();
  tmk::DsmRuntime rt(probe_dsm());
  std::uint32_t sema = 0;
  while (rt.topology().sema_manager(sema) == 0) ++sema;
  rt.run_spmd([&](tmk::Tmk& t) {
    if (t.id() != 0) return;
    sim::VirtualClock& clock = t.node.clock();
    for (int i = 0; i < kReps; ++i) {
      Span s("tmk.sema_signal", "tmk", parent);
      const double v0 = clock.now_us();
      t.sema_signal(sema);
      s.set_vt_us(clock.now_us() - v0);
    }
  });
  m["tmk.sema_rtt_vus"] = {span_medians("tmk.sema_signal", parent).vt_us, "vus"};
}

// Network::send of a 64-byte message plus the destination mailbox pop.
void probe_send_recv(MetricMap& m) {
  Span root("probe.send_recv", "simnet");
  const std::uint64_t parent = root.id();
  sim::Network net(2, sim::NetworkModel::udp_ethernet100());
  std::size_t got = 0;
  for (int b = 0; b < kBatches; ++b) {
    Span s("simnet.send_recv", "simnet", parent);
    for (int k = 0; k < kBatchCalls; ++k) {
      sim::Message msg;
      msg.type = 1;
      msg.src = 0;
      msg.dst = 1;
      msg.payload.resize(64);
      net.send(std::move(msg));
      got += net.recv(1).has_value() ? 1 : 0;
    }
  }
  if (got != static_cast<std::size_t>(kBatches) * kBatchCalls)
    std::fprintf(stderr, "perfbench: send/recv probe lost messages\n");
  m["simnet.send_recv_host_ns"] = {
      span_medians("simnet.send_recv", parent).host_us * 1000.0 / kBatchCalls,
      "ns"};
}

// Empty-message round trip, 4 MB streaming bandwidth, and the 3D-FFT
// transpose's all-to-all (64x64x32 complex grid over 8 ranks).
void probe_mpi(MetricMap& m) {
  constexpr std::size_t kBwBytes = std::size_t{4} << 20;
  constexpr std::size_t kA2aBytes = 64 * 64 * 32 * 16 / (kNodes * kNodes);
  Span root("probe.mpi", "mpi");
  const std::uint64_t parent = root.id();
  mpi::MpiRuntime rt(probe_mpi());
  rt.run([&](mpi::Comm& c) {
    sim::VirtualClock& clock = c.clock();
    std::uint8_t empty = 0;
    for (int i = 0; i < kReps; ++i) {
      if (c.rank() == 0) {
        Span s("mpi.rtt", "mpi", parent);
        const double v0 = clock.now_us();
        c.send(&empty, 0, 1, 0);
        c.recv(&empty, 0, 1, 0);
        s.set_vt_us(clock.now_us() - v0);
      } else if (c.rank() == 1) {
        c.recv(&empty, 0, 0, 0);
        c.send(&empty, 0, 0, 0);
      }
    }
    std::vector<std::uint8_t> big(kBwBytes);
    for (int i = 0; i < 5; ++i) {
      c.barrier();
      if (c.rank() == 0) {
        c.send(big.data(), big.size(), 1, 1);
      } else if (c.rank() == 1) {
        Span s("mpi.stream_4mb", "mpi", parent);
        const double v0 = clock.now_us();
        c.recv(big.data(), big.size(), 0, 1);
        s.set_vt_us(clock.now_us() - v0);
      }
    }
    std::vector<std::uint8_t> out(kA2aBytes * kNodes), in(kA2aBytes * kNodes);
    for (int i = 0; i < 5; ++i) {
      c.barrier();
      Span s("mpi.alltoall", "mpi", parent);
      const double v0 = clock.now_us();
      c.alltoall(out.data(), kA2aBytes, in.data());
      s.set_vt_us(clock.now_us() - v0);
    }
  });
  m["mpi.rtt_vus"] = {span_medians("mpi.rtt", parent).vt_us, "vus"};
  m["mpi.bw_mbs"] = {
      ratio(static_cast<double>(kBwBytes), span_medians("mpi.stream_4mb", parent).vt_us),
      "MB/s"};
  m["mpi.alltoall_vus"] = {span_medians("mpi.alltoall", parent).vt_us, "vus"};
}

}  // namespace

MetricMap run_probes(std::uint64_t seed, std::FILE* log) {
  MetricMap m;
  probe_fork_join(m);
  probe_page_fetch(m, seed);
  probe_diff_engine(m, seed);
  probe_barrier(m);
  probe_lock_remote(m);
  probe_sema_rtt(m);
  probe_send_recv(m);
  probe_mpi(m);

  struct Row {
    const char* metric;
    const char* nominal;
  };
  const Row rows[] = {
      {"tmk.sema_rtt_vus", "~130 us UDP small-message RTT (+ protocol CPU)"},
      {"tmk.barrier_vus", "~600 us for an 8-processor barrier"},
      {"tmk.lock_remote_vus", "150-500 us lock acquire"},
      {"tmk.page_fetch_vus", "RTT + 30-80 us diff (no nominal of its own)"},
      {"omp.fork_join_vus", "(no nominal: fork + join of 7 slaves)"},
      {"mpi.rtt_vus", "~185 us TCP empty-message RTT"},
      {"mpi.bw_mbs", "~10.5 MB/s TCP bandwidth"},
  };
  std::fprintf(log, "== Section 6 probes (8 nodes, measured vs nominal) ==\n");
  for (const Row& r : rows)
    std::fprintf(log, "  %-22s %10.1f %-5s  nominal %s\n", r.metric,
                 m[r.metric].value, m[r.metric].unit.c_str(), r.nominal);
  return m;
}

}  // namespace perfbench
