// Fiber runtime edge cases: every simulated core runs as a stackful fiber on
// the calling thread. These tests pin the rules that makes safe — stacks
// are unwound (RAII included) on crashes, shutdowns and stalls; a restart
// re-runs the program on a fresh fiber; no switch happens with an exception
// in flight or being handled — and that a full-size alignment fits on a
// fiber stack. Built with RCK_SANITIZE=address they double as the leak
// check for fiber teardown.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "rck/bio/dataset.hpp"
#include "rck/core/tmalign.hpp"
#include "rck/scc/runtime.hpp"

namespace rck::scc {
namespace {

/// Counts live instances; lives on fiber stacks and owns heap memory, so a
/// fiber that is dropped without unwinding shows up as a count (and as an
/// ASan leak).
struct Tracked {
  static inline int live = 0;
  static inline int destroyed = 0;
  std::unique_ptr<std::vector<int>> heap = std::make_unique<std::vector<int>>(64, 7);
  Tracked() { ++live; }
  ~Tracked() {
    --live;
    ++destroyed;
  }
  Tracked(const Tracked&) = delete;
  Tracked& operator=(const Tracked&) = delete;
};

class FiberTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracked::live = 0;
    Tracked::destroyed = 0;
  }
};

TEST_F(FiberTest, EveryCoreRunsOnTheCallingThread) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> seen(4);
  SpmdRuntime rt(RuntimeConfig{});
  rt.run(4, [&](CoreCtx& ctx) {
    seen[static_cast<std::size_t>(ctx.rank())] = std::this_thread::get_id();
    ctx.charge_cycles(1000);
    ctx.barrier();
  });
  for (const std::thread::id id : seen) EXPECT_EQ(id, caller);
}

TEST_F(FiberTest, CrashUnwindsRaiiObjectsOnTheFiberStack) {
  RuntimeConfig cfg;
  cfg.faults.crashes.push_back({1, 5 * noc::kPsPerUs});
  SpmdRuntime rt(cfg);
  int finished = 0;
  rt.run(3, [&](CoreCtx& ctx) {
    const Tracked outer;
    {
      const Tracked inner;
      for (int k = 0; k < 20; ++k) ctx.charge(noc::kPsPerUs);
    }
    ++finished;
  });
  EXPECT_TRUE(rt.core_reports()[1].crashed);
  EXPECT_EQ(finished, 2);               // ranks 0 and 2 ran to completion
  EXPECT_EQ(Tracked::live, 0);          // rank 1's objects were destroyed
  EXPECT_EQ(Tracked::destroyed, 6);     // two per rank
}

TEST_F(FiberTest, RestartRerunsTheProgramOnAFreshFiber) {
  RuntimeConfig cfg;
  cfg.faults.crashes.push_back({1, 3 * noc::kPsPerUs});
  cfg.faults.restarts.push_back({1, 50 * noc::kPsPerUs});
  SpmdRuntime rt(cfg);
  std::vector<int> starts(2, 0);
  std::vector<noc::SimTime> begun_at;
  rt.run(2, [&](CoreCtx& ctx) {
    const Tracked t;
    ++starts[static_cast<std::size_t>(ctx.rank())];
    if (ctx.rank() == 1) begun_at.push_back(ctx.now());
    // Rank 0 outlives the restart time; a run ends once every core is done.
    const int steps = ctx.rank() == 0 ? 100 : 10;
    for (int k = 0; k < steps; ++k) ctx.charge(noc::kPsPerUs);
  });
  EXPECT_EQ(starts[0], 1);
  EXPECT_EQ(starts[1], 2);  // the revived core started over from the top
  ASSERT_EQ(begun_at.size(), 2u);
  EXPECT_EQ(begun_at[0], 0u);
  EXPECT_EQ(begun_at[1], 50 * noc::kPsPerUs);
  EXPECT_EQ(rt.core_reports()[1].restarts, 1u);
  EXPECT_EQ(rt.core_reports()[1].finish, 60 * noc::kPsPerUs);
  EXPECT_EQ(Tracked::live, 0);
  EXPECT_EQ(Tracked::destroyed, 3);  // rank 0, rank 1's first and second life
}

TEST_F(FiberTest, DeadlockUnwindsEveryFiber) {
  SpmdRuntime rt(RuntimeConfig{});
  EXPECT_THROW(rt.run(4,
                      [](CoreCtx& ctx) {
                        const Tracked t;
                        ctx.charge(noc::kPsPerUs);
                        (void)ctx.recv((ctx.rank() + 1) % ctx.nranks());
                      }),
               DeadlockError);
  EXPECT_EQ(Tracked::live, 0);
  EXPECT_EQ(Tracked::destroyed, 4);
}

TEST_F(FiberTest, FaultStallUnwindsEveryFiber) {
  RuntimeConfig cfg;
  cfg.faults.crashes.push_back({1, 2 * noc::kPsPerUs});
  SpmdRuntime rt(cfg);
  EXPECT_THROW(rt.run(3,
                      [](CoreCtx& ctx) {
                        const Tracked t;
                        if (ctx.rank() == 1) {
                          for (int k = 0; k < 10; ++k) ctx.charge(noc::kPsPerUs);
                          ctx.send(0, bio::Bytes{std::byte{1}});
                        } else {
                          (void)ctx.recv(1);
                        }
                      }),
               FaultStallError);
  EXPECT_EQ(Tracked::live, 0);
  EXPECT_EQ(Tracked::destroyed, 3);
}

TEST_F(FiberTest, ProgramErrorUnwindsTheOtherFibers) {
  SpmdRuntime rt(RuntimeConfig{});
  EXPECT_THROW(rt.run(4,
                      [](CoreCtx& ctx) {
                        const Tracked t;
                        if (ctx.rank() == 2) {
                          ctx.charge(noc::kPsPerUs);
                          throw std::runtime_error("program failure");
                        }
                        (void)ctx.recv(2);  // never arrives
                      }),
               std::runtime_error);
  EXPECT_EQ(Tracked::live, 0);
  EXPECT_EQ(Tracked::destroyed, 4);
}

TEST_F(FiberTest, NoSwitchInsideAnExceptionHandler) {
  // libstdc++ keeps the caught-exception stack per OS thread, so a
  // simulated operation (a fiber switch) inside a handler is refused.
  SpmdRuntime rt(RuntimeConfig{});
  EXPECT_THROW(rt.run(2,
                      [](CoreCtx& ctx) {
                        try {
                          throw std::runtime_error("handled");
                        } catch (const std::runtime_error&) {
                          ctx.charge(noc::kPsPerUs);
                        }
                      }),
               SimError);
  // Handling first and operating afterwards is fine.
  SpmdRuntime ok(RuntimeConfig{});
  EXPECT_NO_THROW(ok.run(2, [](CoreCtx& ctx) {
    bool handled = false;
    try {
      throw std::runtime_error("handled");
    } catch (const std::runtime_error&) {
      handled = true;
    }
    if (handled) ctx.charge(noc::kPsPerUs);
  }));
}

TEST_F(FiberTest, LargestRs119PairFitsOnAFiberStack) {
  // The two longest RS119 chains, aligned uncached inside a simulated core:
  // the deepest kernel call the farm makes runs on a fiber stack, so it must
  // stay clear of the guard page and match a host-stack alignment exactly.
  std::vector<bio::Protein> rs119 = bio::build_dataset(bio::rs119_spec());
  std::sort(rs119.begin(), rs119.end(),
            [](const bio::Protein& x, const bio::Protein& y) { return x.size() > y.size(); });
  const bio::Protein& a = rs119[0];
  const bio::Protein& b = rs119[1];
  const core::TmAlignResult host = core::tmalign(a, b);

  core::TmAlignResult on_fiber;
  SpmdRuntime rt(RuntimeConfig{});
  rt.run(1, [&](CoreCtx& ctx) {
    core::TmAlignWorkspace ws;
    on_fiber = core::tmalign(a, b, ws);
    ctx.charge_cycles(on_fiber.stats.dp_cells);
  });
  EXPECT_EQ(on_fiber.tm_norm_a, host.tm_norm_a);
  EXPECT_EQ(on_fiber.tm_norm_b, host.tm_norm_b);
  EXPECT_EQ(on_fiber.rmsd, host.rmsd);
  EXPECT_EQ(on_fiber.stats, host.stats);
}

}  // namespace
}  // namespace rck::scc
