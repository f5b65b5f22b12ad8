// Randomized cross-check of the compute-ahead pool.
//
// Host threads only ever run the pre-pass that fills a PairCache before the
// simulation replays it (the simulation itself is single-threaded fibers).
// These tests draw random ordered key sets — duplicates, self-comparisons,
// reversed pairs — over a small structure table and fill them at several
// thread counts, asserting the tables are identical; the run_pairs cases
// then check that every simulated observable is unchanged as well.
//
// This file doubles as the TSan workload: built with RCK_SANITIZE=thread it
// exercises the pool's work claiming, per-thread workspaces, result writes
// and error hand-off under real host concurrency.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "rck/bio/synthetic.hpp"
#include "rck/core/error.hpp"
#include "rck/rckalign/cost_cache.hpp"
#include "rck/rckalign/pairs.hpp"
#include "rck/scc/runtime.hpp"

namespace rck::scc {
namespace {

using rckalign::PairCache;

/// A small structure table of varied chain lengths.
std::vector<bio::Protein> make_structures(std::uint64_t seed, int n) {
  bio::Rng rng(seed);
  std::vector<bio::Protein> out;
  for (int i = 0; i < n; ++i)
    out.push_back(bio::make_protein("p" + std::to_string(i),
                                    24 + static_cast<int>(rng() % 40), rng));
  return out;
}

std::vector<const bio::Protein*> table_of(const std::vector<bio::Protein>& ps) {
  std::vector<const bio::Protein*> t;
  for (const bio::Protein& p : ps) t.push_back(&p);
  return t;
}

/// Random ordered keys over an n-entry table, duplicates and a == b included.
std::vector<PairCache::Key> random_keys(std::uint64_t seed, std::uint32_t n,
                                        std::size_t count) {
  std::mt19937_64 rng(seed);
  std::vector<PairCache::Key> keys;
  for (std::size_t k = 0; k < count; ++k)
    keys.emplace_back(static_cast<std::uint32_t>(rng() % n),
                      static_cast<std::uint32_t>(rng() % n));
  return keys;
}

/// Every simulated observable of one run_pairs call over random specs.
struct PairsSnapshot {
  noc::SimTime makespan = 0;
  std::vector<rckalign::PairsRow> rows;
  std::vector<CoreReport> reports;
  noc::NetworkStats net;

  bool operator==(const PairsSnapshot&) const = default;
};

PairsSnapshot run_specs(const std::vector<const bio::Protein*>& table,
                        const std::vector<rckalign::PairSpec>& specs,
                        int host_threads) {
  rckalign::PairsOptions o;
  o.slave_count = 5;
  o.runtime.host.threads = host_threads;
  const rckalign::PairsRun run = rckalign::run_pairs(table, specs, o);
  return {run.makespan, run.rows, run.core_reports, run.network};
}

std::vector<rckalign::PairSpec> random_specs(std::uint64_t seed, std::uint32_t n,
                                             std::size_t count) {
  std::vector<rckalign::PairSpec> specs;
  for (const auto& [a, b] : random_keys(seed, n, count))
    specs.push_back({a, b, (a + b) % 5 == 0 ? rckalign::Method::GaplessRmsd
                                            : rckalign::Method::TmAlign});
  return specs;
}

TEST(HostParallelStress, RandomProgramsMatchSerial) {
  const auto structures = make_structures(7, 6);
  const auto table = table_of(structures);
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const auto keys = random_keys(seed, 6, 20);
    const PairCache serial = PairCache::build(table, keys, 1);
    EXPECT_TRUE(PairCache::build(table, keys, 4) == serial);
    const auto specs = random_specs(seed, 6, 16);
    EXPECT_EQ(run_specs(table, specs, 1), run_specs(table, specs, 4));
  }
}

TEST(HostParallelStress, WiderThreadCountsAgreeToo) {
  const auto structures = make_structures(11, 7);
  const auto table = table_of(structures);
  const auto keys = random_keys(99, 7, 30);
  const PairCache serial = PairCache::build(table, keys, 1);
  for (const int threads : {2, 3, 8, 16}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    EXPECT_TRUE(PairCache::build(table, keys, threads) == serial);
  }
}

TEST(HostParallelStress, HardwareConvenienceMatchesSerial) {
  const auto structures = make_structures(5, 5);
  const auto table = table_of(structures);
  const auto specs = random_specs(3, 5, 12);
  const int hw = HostParallelism::hardware().threads;
  EXPECT_GE(hw, 1);
  EXPECT_EQ(run_specs(table, specs, 1), run_specs(table, specs, hw));
  // <= 0 asks the pool for one thread per hardware thread.
  const auto keys = random_keys(3, 5, 12);
  EXPECT_TRUE(PairCache::build(table, keys, 0) == PairCache::build(table, keys, 1));
}

TEST(HostParallelStress, RepeatedRunsUnderParallelAreStable) {
  const auto structures = make_structures(13, 6);
  const auto table = table_of(structures);
  const auto keys = random_keys(17, 6, 24);
  const PairCache first = PairCache::build(table, keys, 4);
  for (int rep = 0; rep < 6; ++rep)
    EXPECT_TRUE(PairCache::build(table, keys, 4) == first) << "repeat " << rep;
}

// More workers than entries: most threads find the claim counter exhausted
// at once, which is where a racy hand-off would show.
TEST(HostParallelStress, StealHeavyTinySectionsMatchSerial) {
  const auto structures = make_structures(21, 3);
  const auto table = table_of(structures);
  for (std::size_t count = 1; count <= 4; ++count) {
    const auto keys = random_keys(count, 3, count);
    EXPECT_TRUE(PairCache::build(table, keys, 8) == PairCache::build(table, keys, 1));
  }
  EXPECT_EQ(PairCache::build(table, {}, 8).pair_count(), 0u);
}

TEST(HostParallelStress, StealHeavyRepeatedRunsAreStable) {
  std::vector<bio::Protein> structures = make_structures(29, 4);
  // A chain below TM-align's minimum length: whichever worker meets it
  // first stops the pool, and the error surfaces from build() every time.
  structures.push_back(bio::Protein("tiny", {{'A', 1, {0, 0, 0}},
                                             {'G', 2, {3.8, 0, 0}},
                                             {'L', 3, {7.6, 0, 0}}}));
  const auto table = table_of(structures);
  std::vector<PairCache::Key> keys = random_keys(31, 4, 12);
  keys.emplace_back(4, 0);
  for (int rep = 0; rep < 4; ++rep)
    EXPECT_THROW(PairCache::build(table, keys, 8), core::CoreError);
  keys.pop_back();
  const PairCache good = PairCache::build(table, keys, 1);
  for (int rep = 0; rep < 4; ++rep)
    EXPECT_TRUE(PairCache::build(table, keys, 8) == good) << "repeat " << rep;
}

}  // namespace
}  // namespace rck::scc
