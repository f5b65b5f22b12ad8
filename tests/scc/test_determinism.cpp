// Determinism regression suite for host-thread counts.
//
// The contract under test (see DESIGN.md, "Host execution model"): the
// simulation runs on one thread, and RuntimeConfig::host.threads only sizes
// the compute-ahead pre-pass that fills the jobs' TM-align outcomes before
// the simulation replays them. So the outcome table and every *simulated*
// observable — makespan, traces, CoreReports, network statistics, event
// counts, farm bookkeeping, obs bytes, fault replays — must be identical at
// every thread count and to a run replaying a separately built cache. These
// tests compare everything we can observe, on synthetic programs and on the
// paper's CK34 dataset end to end.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "rck/bio/dataset.hpp"
#include "rck/noc/network.hpp"
#include "rck/obs/sink.hpp"
#include "rck/rckalign/app.hpp"
#include "rck/rckalign/cost_cache.hpp"
#include "rck/scc/runtime.hpp"

namespace rck::scc {
namespace {

constexpr int kHostThreads = 4;  // multi-threaded pre-pass width used throughout

// ---------------------------------------------------------------------------
// Runtime-level fixture: a synthetic farm-shaped program (mixed compute,
// send/recv, wait_any, barrier) whose every observable is snapshotted.

struct RunSnapshot {
  noc::SimTime makespan = 0;
  std::vector<CoreReport> reports;
  std::vector<TraceEvent> trace;
  noc::NetworkStats net;
  std::uint64_t events = 0;

  bool operator==(const RunSnapshot&) const = default;
};

RunSnapshot run_program(int nranks, const Program& program, RuntimeConfig cfg) {
  cfg.enable_trace = true;
  SpmdRuntime rt(cfg);
  RunSnapshot s;
  s.makespan = rt.run(nranks, program);
  s.reports = rt.core_reports();
  s.trace = rt.trace();
  s.net = rt.network_stats();
  s.events = rt.events_fired();
  return s;
}

// A little master-slaves round: rank 0 hands each slave `rounds` payloads,
// slaves "compute" an amount derived from the payload and answer; a barrier
// closes each round.
Program mini_farm(int rounds) {
  return [rounds](CoreCtx& ctx) {
    const int n = ctx.nranks();
    for (int r = 0; r < rounds; ++r) {
      if (ctx.rank() == 0) {
        for (int dst = 1; dst < n; ++dst) {
          bio::Bytes job{static_cast<std::byte>(dst), static_cast<std::byte>(r)};
          ctx.send(dst, job);
        }
        std::vector<int> srcs;
        for (int src = 1; src < n; ++src) srcs.push_back(src);
        for (int k = 1; k < n; ++k) {
          const int who = ctx.wait_any(srcs);
          (void)ctx.recv(who);
        }
      } else {
        const bio::Bytes job = ctx.recv(0);
        // Uneven compute so cores drift apart in virtual time.
        const std::uint64_t work =
            50'000 + 20'000 * static_cast<std::uint64_t>(job[0]) +
            7'000 * static_cast<std::uint64_t>(job[1]);
        ctx.charge_cycles(work);
        ctx.dram_read(4096 * static_cast<std::uint64_t>(ctx.rank()));
        ctx.send(0, bio::Bytes{job[0]});
      }
      ctx.barrier();
    }
  };
}

RuntimeConfig parallel_cfg() {
  RuntimeConfig cfg;
  cfg.host.threads = kHostThreads;
  return cfg;
}

// The runtime itself never reads host.threads: a runtime-level config that
// sets it must simulate exactly like one that does not.
TEST(HostParallelDeterminism, MiniFarmMatchesSerialBitForBit) {
  const RunSnapshot serial = run_program(6, mini_farm(4), RuntimeConfig{});
  const RunSnapshot parallel = run_program(6, mini_farm(4), parallel_cfg());
  EXPECT_EQ(serial, parallel);
}

TEST(HostParallelDeterminism, ReplayTwiceIsIdenticalInEachMode) {
  for (const bool par : {false, true}) {
    RuntimeConfig cfg;
    if (par) cfg.host.threads = kHostThreads;
    const RunSnapshot a = run_program(5, mini_farm(3), cfg);
    const RunSnapshot b = run_program(5, mini_farm(3), cfg);
    EXPECT_EQ(a, b) << (par ? "parallel" : "serial") << " replay diverged";
  }
}

TEST(HostParallelDeterminism, FaultPlanReplaysIdentically) {
  // Crash one slave mid-run and stall DRAM on another: the degraded
  // execution must replay exactly, whatever host.threads says.
  RuntimeConfig base;
  base.faults.crashes.push_back({3, noc::kPsPerMs / 2});
  base.faults.stalls.push_back({2, 0, noc::kPsPerMs, 8.0});

  // The program must survive a dead peer: timeouts instead of blocking recv.
  const Program program = [](CoreCtx& ctx) {
    const int n = ctx.nranks();
    if (ctx.rank() == 0) {
      for (int r = 0; r < 6; ++r) {
        for (int dst = 1; dst < n; ++dst) {
          if (!ctx.peer_alive(dst)) continue;
          ctx.send(dst, bio::Bytes{static_cast<std::byte>(r)});
        }
        for (int src = 1; src < n; ++src) {
          if (!ctx.peer_alive(src)) continue;
          (void)ctx.recv_timeout(src, 2 * noc::kPsPerMs);
        }
      }
    } else {
      for (int r = 0; r < 6; ++r) {
        const auto job = ctx.recv_timeout(0, 4 * noc::kPsPerMs);
        if (!job) return;
        ctx.charge_cycles(80'000 + 11'000 * static_cast<std::uint64_t>(ctx.rank()));
        ctx.dram_read(32768);
        ctx.send(0, bio::Bytes{(*job)[0]});
      }
    }
  };

  RuntimeConfig par = base;
  par.host.threads = kHostThreads;
  const RunSnapshot serial = run_program(5, program, base);
  const RunSnapshot parallel = run_program(5, program, par);
  EXPECT_EQ(serial, parallel);
  ASSERT_GE(serial.reports.size(), 4u);
  EXPECT_TRUE(serial.reports[3].crashed);  // the fault actually fired
}

// ---------------------------------------------------------------------------
// Application-level fixture: the paper's CK34 all-vs-all, end to end. The
// reference replays a cache built once by the fixture; the runs under test
// pass no cache, so run_rckalign() computes its own outcome table on the
// given number of host threads first.

class Ck34Determinism : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new std::vector<bio::Protein>(bio::build_dataset(bio::ck34_spec()));
    cache_ = new rckalign::PairCache(rckalign::PairCache::build(*dataset_));
  }
  static void TearDownTestSuite() {
    delete cache_;
    delete dataset_;
    cache_ = nullptr;
    dataset_ = nullptr;
  }

  /// Options for an uncached run whose pre-pass uses `host_threads`.
  static rckalign::RckAlignOptions options(int slaves, int host_threads) {
    rckalign::RckAlignOptions o;
    o.slave_count = slaves;
    o.runtime.enable_trace = true;
    o.runtime.host.threads = host_threads;
    return o;
  }

  /// Uncached fault-tolerant options. Without a cache the master's cost
  /// hints are the L1*L2 proxy, far below a CK34 pair's real cycles, so the
  /// derived leases would all expire; a fixed lease above any pair's
  /// simulated time keeps the farm on its recovery paths only.
  static rckalign::RckAlignOptions ft_options(int slaves, int host_threads) {
    rckalign::RckAlignOptions o = options(slaves, host_threads);
    o.fault_tolerant = true;
    o.ft.lease = 60 * noc::kPsPerSec;
    return o;
  }

  /// Options for the reference run replaying the fixture's cache.
  static rckalign::RckAlignOptions cached(int slaves) {
    rckalign::RckAlignOptions o = options(slaves, 1);
    o.cache = cache_;
    return o;
  }

  static void expect_identical(const rckalign::RckAlignRun& a,
                               const rckalign::RckAlignRun& b) {
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.results, b.results);
    EXPECT_EQ(a.core_reports, b.core_reports);
    EXPECT_EQ(a.network, b.network);
    EXPECT_EQ(a.events, b.events);
    EXPECT_EQ(a.trace, b.trace);
    EXPECT_TRUE(a.farm_report == b.farm_report);
  }

  static std::vector<bio::Protein>* dataset_;
  static rckalign::PairCache* cache_;
};

std::vector<bio::Protein>* Ck34Determinism::dataset_ = nullptr;
rckalign::PairCache* Ck34Determinism::cache_ = nullptr;

TEST_F(Ck34Determinism, AllVsAllBitIdenticalAcrossSlaveCounts) {
  for (const int slaves : {4, 12}) {
    const auto reference = rckalign::run_rckalign(*dataset_, cached(slaves));
    const auto ahead =
        rckalign::run_rckalign(*dataset_, options(slaves, kHostThreads));
    expect_identical(reference, ahead);
    EXPECT_EQ(reference.results.size(), 34u * 33u / 2u);
  }
}

TEST_F(Ck34Determinism, ReplayTwiceInEachMode) {
  for (const int threads : {1, kHostThreads}) {
    const auto a = rckalign::run_rckalign(*dataset_, options(8, threads));
    const auto b = rckalign::run_rckalign(*dataset_, options(8, threads));
    expect_identical(a, b);
  }
}

TEST_F(Ck34Determinism, FaultPlanEndToEndBitIdentical) {
  // Calibrate crash times off the clean makespan so faults land mid-run.
  const noc::SimTime base =
      rckalign::run_rckalign(*dataset_, cached(6)).makespan;
  auto faulty = [&](int threads) {
    rckalign::RckAlignOptions o = ft_options(6, threads);
    o.runtime.faults.crashes.push_back({2, base / 4});
    o.runtime.faults.crashes.push_back({5, base / 2});
    o.runtime.faults.messages.push_back(
        {FaultPlan::MessageFault::Kind::Corrupt, 3, 0, 2});
    return rckalign::run_rckalign(*dataset_, o);
  };
  const auto serial = faulty(1);
  const auto parallel = faulty(kHostThreads);
  expect_identical(serial, parallel);
  EXPECT_EQ(serial.farm_report.dead_ues.size(), 2u);
  EXPECT_EQ(serial.results.size(), 34u * 33u / 2u);
}

// Thread-count matrix at {1, 2, 4, 8} pre-pass threads. The outcome table
// itself must be identical at every width; then every simulated observable
// of a run that builds its own table, composed with everything that bends
// the schedule at once — a chaos FaultPlan (timed master crash under
// master_ft, slave crash + restart, an event-indexed crash, message
// corruption, a DRAM stall) and obs sinks enabled — must match the 1-thread
// run, and replay identically at its own width. The obs recorder bytes
// (Chrome trace JSON + metrics snapshot) are compared verbatim.
TEST_F(Ck34Determinism, ThreadMatrixChaosMasterFtObsBitIdentical) {
  constexpr int kSlaves = 6;

  for (const int threads : {1, 2, 4, 8}) {
    SCOPED_TRACE("table threads = " + std::to_string(threads));
    EXPECT_TRUE(rckalign::PairCache::build(*dataset_, threads) == *cache_);
  }

  // Calibrate fault times off the clean master-ft makespan so every fault
  // lands mid-run regardless of timing-model drift.
  auto base_opts = [&](int threads) {
    rckalign::RckAlignOptions o = ft_options(kSlaves, threads);
    o.master_ft = true;
    o.runtime.obs.enable = true;
    return o;
  };
  rckalign::RckAlignOptions clean = base_opts(1);
  clean.cache = cache_;
  const noc::SimTime base = rckalign::run_rckalign(*dataset_, clean).makespan;

  auto chaotic = [&](int threads) {
    rckalign::RckAlignOptions o = base_opts(threads);
    o.runtime.faults.crashes.push_back({0, base / 3});  // master, mid-farm
    o.runtime.faults.crashes.push_back({3, base / 4});  // plus a slave ...
    o.runtime.faults.restarts.push_back({3, base / 2});  // ... that revives
    o.runtime.faults.event_crashes.push_back({4, 400});
    o.runtime.faults.messages.push_back(
        {FaultPlan::MessageFault::Kind::Corrupt, 2, 0, 1});
    o.runtime.faults.stalls.push_back({5, 0, base / 2, 8.0});
    return rckalign::run_rckalign(*dataset_, o);
  };

  auto obs_bytes = [](const rckalign::RckAlignRun& run) {
    EXPECT_NE(run.obs, nullptr);
    return std::pair<std::string, std::string>{
        obs::chrome_trace_json(*run.obs), run.obs->snapshot().to_json()};
  };

  const auto serial = chaotic(1);
  const auto serial_obs = obs_bytes(serial);
  EXPECT_EQ(serial.results.size(), 34u * 33u / 2u);
  EXPECT_TRUE(serial.core_reports.at(0).crashed);  // failover actually ran
  EXPECT_TRUE(serial.core_reports.at(4).crashed);  // event-crash fired

  for (const int threads : {2, 4, 8}) {
    SCOPED_TRACE("host threads = " + std::to_string(threads));
    const auto a = chaotic(threads);
    const auto b = chaotic(threads);  // replay-twice at this width
    expect_identical(serial, a);
    expect_identical(a, b);
    EXPECT_EQ(serial_obs, obs_bytes(a));
    EXPECT_EQ(serial_obs, obs_bytes(b));
  }
}

TEST_F(Ck34Determinism, SeedSweepStaysBitIdentical) {
  // Several seeds, small scaled datasets so the sweep stays fast: the
  // determinism contract must hold regardless of the generated workload.
  for (const std::uint64_t seed : {1u, 77u, 4242u}) {
    const auto ds = bio::build_dataset(bio::scaled_spec("det", 10, seed));
    const auto cache = rckalign::PairCache::build(ds);
    rckalign::RckAlignOptions o;
    o.slave_count = 5;
    o.cache = &cache;
    o.runtime.enable_trace = true;
    const auto reference = rckalign::run_rckalign(ds, o);
    o.cache = nullptr;
    o.runtime.host.threads = kHostThreads;
    const auto ahead = rckalign::run_rckalign(ds, o);
    expect_identical(reference, ahead);
  }
}

}  // namespace
}  // namespace rck::scc
