#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/runtime.hpp"
#include "test_util.hpp"
#include "viz/app.hpp"
#include "viz/distributed.hpp"

// Spill-vs-no-spill differential: under a budget far below one buffer every
// beyond-floor delivery is denied an elastic grant and spills, and the merged
// images must still be BIT-IDENTICAL to the unbounded fixed-window baseline —
// spilling changes where queued bytes live, never what the pipeline
// computes. 10 seeds x {RR, WRR, DD} on the native engine, plus 2-process
// distributed runs against the same baseline.
//
// The budget alone does not make anything spill: a delivery only asks the
// governor once its port already holds `window` buffers, i.e. once the
// consumer lags. The native governed runs therefore go through
// test::run_iso_app_native_held, which holds the Ra copy set in its first
// buffer until the RE source has finished the UOW, so beyond-floor
// deliveries are certain on any core count. The baselines run unheld (in the
// fixed regime a held consumer would block the source at `window`).
//
// NOTE on threading: the distributed tests fork rank processes, so the
// parent must be single-threaded there. The held runs' exec::Watchdog is
// scoped to each run and joined before it returns; the distributed cases
// rely on the process-group launcher's deadline, as in
// test_net_differential.

namespace dc {
namespace {

constexpr std::uint64_t kSeeds[] = {1,     7,      42,      97,     1234,
                                    5150,  90125,  424242,  7777777,
                                    987654321};

struct MemDifferential : ::testing::Test {
  test::TestDataset ds = test::make_dataset(24, 3, 16);

  viz::IsoAppSpec spec(viz::PipelineConfig config,
                       std::vector<viz::HostCopies> data,
                       std::vector<viz::HostCopies> raster, int merge) {
    std::vector<data::FileLocation> locs;
    for (const auto& hc : data) locs.push_back(data::FileLocation{hc.host, 0});
    ds.store->place_uniform(locs);

    viz::IsoAppSpec s;
    s.workload = test::make_workload(ds, 48, 48);
    s.config = config;
    s.hsr = viz::HsrAlgorithm::kActivePixel;
    s.data_hosts = std::move(data);
    s.raster_hosts = std::move(raster);
    s.merge_host = merge;
    return s;
  }
};

// ---------------------------------------------------------------------------
// Native engine: heavy spill vs unbounded baseline, 10 seeds x 3 policies.
// ---------------------------------------------------------------------------

class MemSeededPolicy : public MemDifferential,
                        public ::testing::WithParamInterface<core::Policy> {};

TEST_P(MemSeededPolicy, HeavySpillIsBitIdenticalToFixedWindowNative) {
  auto s = spec(viz::PipelineConfig::kRE_Ra_M, viz::one_each({0}),
                viz::one_each({0}), 0);
  for (std::uint64_t seed : kSeeds) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    core::RuntimeConfig cfg;
    cfg.policy = GetParam();
    cfg.rng_seed = seed;
    cfg.window = 2;  // small floor: the elastic/spill path carries the load

    // Baseline: budget 0 == the seed's fixed-window semantics, bit for bit.
    const viz::NativeRenderRun base = viz::run_iso_app_native(s, cfg, 1);
    EXPECT_EQ(base.governor.spilled_buffers, 0u);

    // One byte of budget: every beyond-floor delivery is denied and spills.
    // The held Ra copy makes such deliveries certain: RE pushes all of its
    // buffers while Ra sits on the first one.
    core::RuntimeConfig tiny = cfg;
    tiny.memory_budget_bytes = 1;
    const test::HeldRun spilled = test::run_iso_app_native_held(s, tiny, 1);

    EXPECT_GT(spilled.governor.spilled_buffers, 0u)
        << "a one-byte budget must force spilling";
    EXPECT_EQ(spilled.governor.spilled_buffers,
              spilled.governor.readmitted_buffers);
    // With zero elastic grants only the floor is ever resident.
    EXPECT_EQ(spilled.governor.grants, 0u);
    EXPECT_LE(spilled.governor.high_water_bytes,
              spilled.governor.floor_reserved_bytes);

    ASSERT_EQ(spilled.sink->images.size(), base.sink->images.size());
    for (std::size_t u = 0; u < base.sink->images.size(); ++u) {
      EXPECT_EQ(spilled.sink->images[u], base.sink->images[u]) << "uow " << u;
    }
    EXPECT_EQ(spilled.sink->digests, base.sink->digests);
  }
}

INSTANTIATE_TEST_SUITE_P(Policies, MemSeededPolicy,
                         ::testing::Values(core::Policy::kRoundRobin,
                                           core::Policy::kWeightedRoundRobin,
                                           core::Policy::kDemandDriven),
                         [](const auto& info) {
                           switch (info.param) {
                             case core::Policy::kRoundRobin: return "RR";
                             case core::Policy::kWeightedRoundRobin:
                               return "WRR";
                             case core::Policy::kDemandDriven: return "DD";
                             case core::Policy::kTileOwner: return "TILE";
                           }
                           return "unknown";
                         });

// Multi-UOW under pressure: the spill files rewind between episodes and the
// multi-timestep series still matches the baseline frame for frame. The Ra
// copy is held in every UOW, so every UOW is a spill episode.
TEST_F(MemDifferential, MultiUowSeriesSurvivesSustainedPressureNative) {
  auto s = spec(viz::PipelineConfig::kRE_Ra_M, viz::one_each({0}),
                viz::one_each({0}), 0);
  s.workload.vary_view_per_uow = true;
  core::RuntimeConfig cfg;
  cfg.policy = core::Policy::kDemandDriven;
  cfg.window = 2;

  const viz::NativeRenderRun base = viz::run_iso_app_native(s, cfg, 3);
  core::RuntimeConfig tiny = cfg;
  tiny.memory_budget_bytes = 1;
  const test::HeldRun spilled = test::run_iso_app_native_held(s, tiny, 3);

  EXPECT_GT(spilled.governor.spilled_buffers, 0u);
  ASSERT_EQ(spilled.sink->images.size(), 3u);
  for (std::size_t u = 0; u < 3; ++u) {
    EXPECT_EQ(spilled.sink->images[u], base.sink->images[u]) << "uow " << u;
  }
}

// ---------------------------------------------------------------------------
// Distributed: 2 real processes under a one-byte budget, against the
// unbounded native baseline. The wire credit protocol is untouched by the
// governor, so the frames on the wire — and therefore the merged images —
// must not change.
// ---------------------------------------------------------------------------

TEST_F(MemDifferential, HeavySpillIsBitIdenticalAcrossTwoProcesses) {
  // Three RE copies feed one Ra: the wire credit windows allow up to
  // 3 x window in-flight buffers while the governed floor is one window, so
  // the receiving rank MUST spill under a one-byte budget. (The recv thread
  // never blocks either way — that is the governed-channel invariant.)
  auto s = spec(viz::PipelineConfig::kRE_Ra_M, {{0, 3}},
                viz::one_each({1}), 1);
  for (std::uint64_t seed : {1ULL, 42ULL, 987654321ULL}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    core::RuntimeConfig cfg;
    cfg.policy = core::Policy::kDemandDriven;
    cfg.rng_seed = seed;
    cfg.window = 2;

    const viz::NativeRenderRun base = viz::run_iso_app_native(s, cfg, 1);

    core::RuntimeConfig tiny = cfg;
    tiny.memory_budget_bytes = 1;
    viz::DistributedRunOptions opts;
    opts.timeout_s = 180.0;
    const viz::DistributedRenderRun dist =
        viz::run_iso_app_distributed(s, tiny, 1, /*num_ranks=*/2, opts);
    ASSERT_TRUE(dist.ok) << dist.error;

    EXPECT_GT(dist.governor.spilled_buffers, 0u)
        << "a one-byte budget must force spilling on some rank";
    EXPECT_EQ(dist.governor.spilled_buffers,
              dist.governor.readmitted_buffers);

    EXPECT_EQ(dist.digests, base.sink->digests);
    ASSERT_EQ(dist.images.size(), base.sink->images.size());
    for (std::size_t u = 0; u < dist.images.size(); ++u) {
      EXPECT_EQ(dist.images[u], base.sink->images[u]) << "uow " << u;
    }
  }
}

// Distributed under a VALID budget (floor + surplus): same images, and the
// aggregated high water respects the bound on every rank (GovernorStats
// merges rank high waters by max, so the summed stat is the worst rank).
TEST_F(MemDifferential, BoundedBudgetHoldsAcrossTwoProcesses) {
  auto s = spec(viz::PipelineConfig::kRE_Ra_M, {{0, 3}},
                viz::one_each({1}), 1);
  core::RuntimeConfig cfg;
  cfg.policy = core::Policy::kRoundRobin;
  cfg.window = 2;

  const viz::NativeRenderRun base = viz::run_iso_app_native(s, cfg, 1);

  core::RuntimeConfig gov = cfg;
  gov.memory_budget_bytes = 8u << 20;  // far above any rank's floor
  viz::DistributedRunOptions opts;
  opts.timeout_s = 180.0;
  const viz::DistributedRenderRun dist =
      viz::run_iso_app_distributed(s, gov, 1, /*num_ranks=*/2, opts);
  ASSERT_TRUE(dist.ok) << dist.error;

  EXPECT_LE(dist.governor.high_water_bytes, dist.governor.budget_bytes);
  EXPECT_EQ(dist.digests, base.sink->digests);
}

}  // namespace
}  // namespace dc
