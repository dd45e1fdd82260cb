#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/arena.hpp"
#include "core/crc32c.hpp"
#include "core/filter.hpp"
#include "core/graph.hpp"
#include "core/mem_governor.hpp"
#include "core/placement.hpp"
#include "core/runtime.hpp"
#include "exec/engine.hpp"
#include "exec/queue.hpp"
#include "exec/watchdog.hpp"
#include "io/spill.hpp"
#include "test_util.hpp"
#include "viz/app.hpp"

// The memory-governed elastic queues (DESIGN §5.7), bottom-up:
//
//   1. core::MemoryGovernor policy — floor admissions never fail, elastic
//      admissions respect the budget as a STRICT high-water bound
//      (committed accounting: unused floor entitlement counts), demand
//      shifts the surplus toward hot queues, releases reclaim it.
//   2. io::SpillFile — CRC32C round trips, FIFO tokens, scratch reuse after
//      drain, $TMPDIR resolution (the satellite bugfix).
//   3. exec::PortChannel governed regime — push never blocks, spilling is
//      invisible: pop order is exactly push order, payloads intact.
//   4. exec::Engine — ISSUE 10 satellite regression: aborting a UOW while
//      spill is in flight leaks no arena slots and strands no spill files;
//      plus the 20-seed budget-conservation property on the real pipeline.

namespace dc {
namespace {

constexpr std::size_t kSlot = 64;

std::vector<std::byte> pattern_payload(std::size_t n, std::uint8_t tag) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::byte>(static_cast<std::uint8_t>(i * 31u + tag));
  }
  return v;
}

// ---------------------------------------------------------------------------
// 1. Governor policy
// ---------------------------------------------------------------------------

TEST(MemGovernor, FloorAlwaysAdmitsEvenWithZeroBudget) {
  core::MemoryGovernor gov(core::GovernorConfig{/*budget_bytes=*/0, {}});
  const int q = gov.register_queue(/*floor_slots=*/2, kSlot);
  // The fixed-window entitlement is a strict lower bound: never denied.
  EXPECT_TRUE(gov.try_admit(q, kSlot, /*within_floor=*/true));
  EXPECT_TRUE(gov.try_admit(q, kSlot, /*within_floor=*/true));
  // Beyond the floor with no budget: always spill.
  EXPECT_FALSE(gov.try_admit(q, kSlot, /*within_floor=*/false));
  const core::GovernorStats s = gov.stats();
  EXPECT_EQ(s.grants, 0u);
  EXPECT_EQ(s.denials, 1u);
  EXPECT_EQ(s.high_water_bytes, 2 * kSlot);
  EXPECT_EQ(s.floor_reserved_bytes, 2 * kSlot);
  EXPECT_EQ(s.queues_registered, 1u);
}

TEST(MemGovernor, ElasticGrantsStopAtBudgetAndReleasesReclaim) {
  core::MemoryGovernor gov(core::GovernorConfig{4 * kSlot, {}});
  const int a = gov.register_queue(0, kSlot);
  const int b = gov.register_queue(0, kSlot);

  // A hot queue takes the whole surplus (its proportional cap tracks its
  // demand and never drops below one slot).
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(gov.try_admit(a, kSlot, false)) << "grant " << i;
  }
  EXPECT_FALSE(gov.try_admit(a, kSlot, false));  // budget exhausted
  EXPECT_FALSE(gov.try_admit(b, kSlot, false));  // cold queue too

  // A release is a reclaim: the freed surplus is immediately grantable to
  // the other queue.
  gov.release(a, kSlot, /*was_elastic=*/true);
  EXPECT_TRUE(gov.try_admit(b, kSlot, false));

  const core::GovernorStats s = gov.stats();
  EXPECT_EQ(s.grants, 5u);
  EXPECT_EQ(s.denials, 2u);
  EXPECT_EQ(s.reclaims, 1u);
  EXPECT_EQ(s.high_water_bytes, 4 * kSlot);
  EXPECT_EQ(s.budget_bytes, 4 * kSlot);
}

TEST(MemGovernor, BudgetBoundsHighWaterAgainstLateFloorAdmissions) {
  // The adversarial interleaving: elastic grants land FIRST, floor
  // admissions later. Committed accounting (unused floor entitlement is
  // reserved) must keep used bytes at or under the budget throughout.
  core::MemoryGovernor gov(core::GovernorConfig{4 * kSlot, {}});
  const int a = gov.register_queue(/*floor_slots=*/2, kSlot);  // reserves 128
  const int b = gov.register_queue(0, kSlot);

  // Surplus is 2 slots; a third elastic grant would eat A's floor.
  EXPECT_TRUE(gov.try_admit(b, kSlot, false));
  EXPECT_TRUE(gov.try_admit(b, kSlot, false));
  EXPECT_FALSE(gov.try_admit(b, kSlot, false));

  // A's floor admissions still succeed — and the total stays at the budget.
  EXPECT_TRUE(gov.try_admit(a, kSlot, true));
  EXPECT_TRUE(gov.try_admit(a, kSlot, true));
  const core::GovernorStats s = gov.stats();
  EXPECT_EQ(s.high_water_bytes, 4 * kSlot);
  EXPECT_LE(s.high_water_bytes, s.budget_bytes);
}

TEST(MemGovernor, UnknownQueueThrowsAndTeardownReleaseIsIgnored) {
  core::MemoryGovernor gov(core::GovernorConfig{4 * kSlot, {}});
  EXPECT_THROW((void)gov.try_admit(99, kSlot, false), std::logic_error);
  const int q = gov.register_queue(1, kSlot);
  EXPECT_TRUE(gov.try_admit(q, kSlot, true));
  gov.unregister_queue(q);
  gov.release(q, kSlot, false);  // teardown ordering: must not throw
  // Peak floor reservation survives unregistration (teardown unregisters
  // every queue; the stat is a running maximum, not the current sum).
  EXPECT_EQ(gov.stats().floor_reserved_bytes, kSlot);
}

TEST(MemGovernor, GovernTightensArenaRetentionAndRestoresOnDestruction) {
  core::BufferArena arena;  // private arena: defaults == historical caps
  const core::ArenaOptions defaults;
  ASSERT_EQ(arena.retention().max_retained_bytes, defaults.max_retained_bytes);
  {
    core::MemoryGovernor gov(core::GovernorConfig{1u << 20, {}});
    gov.govern(arena);
    EXPECT_EQ(arena.retention().max_retained_bytes, 1u << 20);
    EXPECT_EQ(arena.retention().max_slots_per_class,
              defaults.max_slots_per_class);
  }
  // Scoped policy: the governor restores what it displaced.
  EXPECT_EQ(arena.retention().max_retained_bytes, defaults.max_retained_bytes);
}

// ---------------------------------------------------------------------------
// 2. SpillFile
// ---------------------------------------------------------------------------

TEST(SpillFile, FifoRoundTripVerifiesChecksums) {
  io::SpillFile spill;
  std::vector<std::uint64_t> tokens;
  for (std::uint8_t t = 0; t < 3; ++t) {
    const auto payload = pattern_payload(100 + 50u * t, t);
    tokens.push_back(spill.append(std::span<const std::byte>(payload)));
  }
  // Tokens are monotone: FIFO re-admission order is append order.
  EXPECT_LT(tokens[0], tokens[1]);
  EXPECT_LT(tokens[1], tokens[2]);

  std::vector<std::byte> out;
  for (std::uint8_t t = 0; t < 3; ++t) {
    spill.read(tokens[t], out);
    EXPECT_EQ(out, pattern_payload(100 + 50u * t, t)) << "record " << int{t};
  }
  const io::SpillStats s = spill.stats();
  EXPECT_EQ(s.records_written, 3u);
  EXPECT_EQ(s.records_read, 3u);
  EXPECT_EQ(s.live_records, 0u);
  EXPECT_EQ(s.bytes_written, s.bytes_read);
  // Consuming a record twice must fail loudly, not return stale bytes.
  EXPECT_THROW(spill.read(tokens[0], out), std::runtime_error);
}

TEST(SpillFile, ScratchSpaceIsReusedAfterDrain) {
  io::SpillFile spill;
  const auto payload = pattern_payload(1024, 7);
  std::vector<std::byte> out;
  // Episodic pressure: fill, drain, fill again. The physical high water must
  // not grow across episodes — the file rewinds when the last record drains.
  for (int episode = 0; episode < 3; ++episode) {
    const std::uint64_t tok = spill.append(std::span<const std::byte>(payload));
    spill.read(tok, out);
  }
  EXPECT_EQ(spill.stats().file_high_water_bytes, 1024u);
  EXPECT_EQ(spill.stats().records_written, 3u);
}

TEST(SpillFile, ChunkedPreadChainsToTheStoredCrc) {
  io::SpillFile spill;
  const auto payload = pattern_payload(1000, 3);
  const std::uint64_t tok = spill.append(std::span<const std::byte>(payload));
  ASSERT_EQ(spill.record_bytes(tok), 1000u);

  // The sort merge cursors read records in chunks and chain the CRC32C:
  // crc(b, crc(a)) == crc(a ++ b). The chain over chunked preads must land
  // on the stored record checksum.
  std::uint32_t crc = 0;
  std::vector<std::byte> chunk(256);
  for (std::size_t off = 0; off < 1000; off += chunk.size()) {
    const std::size_t n = std::min<std::size_t>(chunk.size(), 1000 - off);
    std::span<std::byte> dst(chunk.data(), n);
    spill.pread_at(tok, off, dst);
    crc = core::crc32c(std::span<const std::byte>(dst), crc);
  }
  EXPECT_EQ(crc, spill.record_crc(tok));
  EXPECT_EQ(crc, core::crc32c(std::span<const std::byte>(payload)));

  spill.discard(tok);
  EXPECT_EQ(spill.stats().live_records, 0u);
  std::vector<std::byte> out;
  EXPECT_THROW(spill.read(tok, out), std::runtime_error);
  spill.discard(tok);  // unknown tokens are ignored
}

TEST(SpillFile, TempRootHonorsTmpdir) {
  namespace fs = std::filesystem;
  const char* old = std::getenv("TMPDIR");
  const std::string saved = old != nullptr ? old : "";

  const fs::path scratch = fs::temp_directory_path() / "dc_tmpdir_probe";
  fs::create_directories(scratch);
  ::setenv("TMPDIR", scratch.string().c_str(), 1);
  EXPECT_EQ(io::temp_root(), scratch);

  // Empty and unset both fall back to /tmp (the pre-fix hardcoded value is
  // now only the fallback).
  ::setenv("TMPDIR", "", 1);
  EXPECT_EQ(io::temp_root(), fs::path("/tmp"));
  ::unsetenv("TMPDIR");
  EXPECT_EQ(io::temp_root(), fs::path("/tmp"));

  if (old != nullptr) {
    ::setenv("TMPDIR", saved.c_str(), 1);
  }
  fs::remove_all(scratch);
}

// ---------------------------------------------------------------------------
// 3. Governed PortChannel: spilling never reorders, never blocks
// ---------------------------------------------------------------------------

struct Item {
  int id = -1;
  std::vector<std::byte> data;
};

TEST(GovernedChannel, SpillingPreservesExactFifoOrder) {
  exec::Watchdog dog(std::chrono::seconds(60),
                     "SpillingPreservesExactFifoOrder");
  std::atomic<bool> aborted{false};
  // Floor of 2 slots, budget for the floor plus ONE elastic slot: pushes
  // 3..9 must spill.
  core::MemoryGovernor gov(core::GovernorConfig{3 * kSlot, {}});
  io::SpillFile spill;

  exec::PortChannel<Item> ch;
  ch.init(/*ports=*/1, /*capacity=*/2, &aborted);
  exec::SpillOps<Item> ops;
  ops.size = [](const Item& it) { return it.data.size(); };
  ops.evict = [&spill](Item& it) {
    const std::uint64_t tok =
        spill.append(std::span<const std::byte>(it.data));
    it.data.clear();  // the storage-less shell keeps only the id
    it.data.shrink_to_fit();
    return tok;
  };
  ops.restore = [&spill](Item& it, std::uint64_t tok) {
    spill.read(tok, it.data);  // CRC-verified
  };
  ch.bind_governor(&gov, kSlot, ops);
  ch.expect_eow(0, 1);

  constexpr int kItems = 10;
  for (int i = 0; i < kItems; ++i) {
    Item it;
    it.id = i;
    it.data = pattern_payload(kSlot, static_cast<std::uint8_t>(i));
    // Governed push never blocks — safe to saturate from a single thread
    // with no consumer running (the fixed regime would deadlock here).
    EXPECT_EQ(ch.push(0, std::move(it)), 0.0);
  }
  ch.producer_eow(0);

  ASSERT_GE(gov.stats().spilled_buffers, 7u);
  EXPECT_LE(gov.stats().high_water_bytes, gov.stats().budget_bytes);

  for (int i = 0; i < kItems; ++i) {
    Item out;
    int port = -1;
    double waited = 0.0;
    ASSERT_EQ(ch.pop(out, port, waited), exec::PortChannel<Item>::Pop::kItem);
    EXPECT_EQ(out.id, i) << "delivery order diverged from push order";
    EXPECT_EQ(out.data, pattern_payload(kSlot, static_cast<std::uint8_t>(i)));
  }
  Item out;
  int port = -1;
  double waited = 0.0;
  EXPECT_EQ(ch.pop(out, port, waited), exec::PortChannel<Item>::Pop::kEow);

  const core::GovernorStats s = gov.stats();
  EXPECT_EQ(s.spilled_buffers, s.readmitted_buffers);
  EXPECT_EQ(s.spilled_bytes, s.readmitted_bytes);
  EXPECT_EQ(spill.stats().live_records, 0u);
}

// ---------------------------------------------------------------------------
// 4. Engine level
// ---------------------------------------------------------------------------

class BurstSource : public core::SourceFilter {
 public:
  explicit BurstSource(int steps) : steps_(steps) {}
  bool step(core::FilterContext& ctx) override {
    core::Buffer b = ctx.make_buffer(0);
    b.push(std::uint64_t{1});
    ctx.write(0, b);
    return ++i_ < steps_;
  }

 private:
  int steps_;
  int i_ = 0;
};

class SlowThenThrowConsumer : public core::Filter {
 public:
  void process_buffer(core::FilterContext&, int, const core::Buffer&) override {
    // Let the unthrottled producer pile up spilled buffers first, then fail
    // the UOW with spill still in flight.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    throw std::runtime_error("consumer failure mid-spill");
  }
};

// ISSUE 10 satellite: abort while spill is in flight must unwind promptly,
// leak no arena slots, and strand no spill files.
TEST(GovernedEngine, AbortMidSpillLeaksNoSlotsAndStrandsNoFiles) {
  exec::Watchdog dog(std::chrono::seconds(120),
                     "AbortMidSpillLeaksNoSlotsAndStrandsNoFiles");
  namespace fs = std::filesystem;
  const fs::path spill_dir = fs::temp_directory_path() / "dc_gov_abort_spill";
  fs::create_directories(spill_dir);

  const std::uint64_t outstanding_before =
      core::BufferArena::global().stats().outstanding();
  core::GovernorStats gstats;
  {
    core::Graph g;
    const int src = g.add_source(
        "src", [] { return std::make_unique<BurstSource>(400); });
    const int sink = g.add_filter(
        "sink", [] { return std::make_unique<SlowThenThrowConsumer>(); });
    g.connect(src, 0, sink, 0);
    core::Placement p;
    p.place(src, 0, 1).place(sink, 0, 1);

    core::RuntimeConfig cfg;
    cfg.window = 2;
    cfg.memory_budget_bytes = 1;  // below one slot: everything elastic spills
    cfg.spill_dir = spill_dir.string();

    exec::Engine eng(g, p, cfg);
    EXPECT_THROW(eng.run_uow(), std::runtime_error);
    gstats = eng.governor_stats();
  }

  // The abort landed while the channel held spilled overflow.
  EXPECT_GE(gstats.spilled_buffers, 1u);
  EXPECT_GT(gstats.denials, 0u);

  // No leaked arena slots: every queued buffer (in-memory or shell) was
  // destroyed by teardown and returned its storage.
  EXPECT_EQ(core::BufferArena::global().stats().outstanding(),
            outstanding_before);

  // No stranded spill files: the backing file is unlinked at creation, so
  // nothing survives in the spill dir even after a mid-flight abort.
  std::size_t entries = 0;
  for (const auto& e : fs::directory_iterator(spill_dir)) {
    (void)e;
    ++entries;
  }
  EXPECT_EQ(entries, 0u);

  // The engine's governor restored the global arena's retention defaults.
  const core::ArenaOptions defaults;
  EXPECT_EQ(core::BufferArena::global().retention().max_retained_bytes,
            defaults.max_retained_bytes);
  fs::remove_all(spill_dir);
}

// Budget conservation on the real rendering pipeline, 20 seeds: with
// budget >= the floor reservation, the in-memory high water NEVER exceeds
// the configured budget, and every spilled buffer is re-admitted exactly
// once on a clean run.
TEST(GovernedEngine, BudgetConservationAcrossTwentySeeds) {
  exec::Watchdog dog(std::chrono::seconds(240),
                     "BudgetConservationAcrossTwentySeeds");
  test::TestDataset ds = test::make_dataset(24, 3, 16);
  ds.store->place_uniform({data::FileLocation{0, 0}});

  viz::IsoAppSpec s;
  s.workload = test::make_workload(ds, 48, 48);
  s.config = viz::PipelineConfig::kRE_Ra_M;
  s.data_hosts = viz::one_each({0});
  s.raster_hosts = viz::one_each({0});
  s.merge_host = 0;
  s.keep_images = false;

  // Learning run: discover the floor reservation this spec implies.
  core::RuntimeConfig cfg;
  cfg.window = 2;
  cfg.memory_budget_bytes = 1u << 30;
  const viz::NativeRenderRun probe = viz::run_iso_app_native(s, cfg, 1);
  const std::uint64_t floor = probe.governor.floor_reserved_bytes;
  ASSERT_GT(floor, 0u);

  // Tight-but-valid budget: floor plus a four-slot surplus, so elastic
  // grants, denials, and spills all exercise under the bound. The Ra copy is
  // held until RE finishes (test::run_iso_app_native_held), so the RE->Ra
  // queue outgrows its floor by construction, not by scheduler luck.
  cfg.memory_budget_bytes = floor + 4 * s.pix_buffer_bytes;
  std::uint64_t total_spilled = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    cfg.rng_seed = seed;
    SCOPED_TRACE("seed " + std::to_string(seed));
    const test::HeldRun run = test::run_iso_app_native_held(s, cfg, 1);
    const core::GovernorStats g = run.governor;
    ASSERT_LE(g.floor_reserved_bytes, g.budget_bytes)
        << "budget must cover the floor for the bound to apply";
    EXPECT_LE(g.high_water_bytes, g.budget_bytes);
    EXPECT_EQ(g.spilled_buffers, g.readmitted_buffers);
    EXPECT_EQ(g.spilled_bytes, g.readmitted_bytes);
    total_spilled += g.spilled_buffers;
    ASSERT_EQ(run.sink->digests.size(), 1u);
  }
  // The budget was tight enough that the held queue's overflow spilled.
  EXPECT_GT(total_spilled, 0u);
}

}  // namespace
}  // namespace dc
