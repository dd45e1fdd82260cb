#include "workloads.hpp"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <stdexcept>

#include "comp/app.hpp"
#include "core/mem_governor.hpp"
#include "core/policy.hpp"
#include "data/decluster.hpp"
#include "data/store.hpp"
#include "data/synth.hpp"
#include "exec/metrics.hpp"
#include "io/chunk_store.hpp"
#include "io/reader.hpp"
#include "net/metrics.hpp"
#include "obs/chrome.hpp"
#include "obs/recorder.hpp"
#include "sim/cluster.hpp"
#include "sim/simulation.hpp"
#include "viz/active_pixel.hpp"
#include "viz/app.hpp"
#include "viz/distributed.hpp"
#include "viz/raster.hpp"
#include "viz/zbuffer.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using namespace dc;

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---- the stated input ------------------------------------------------------

constexpr int kGrid = 96;          ///< grid cells per axis
constexpr int kChunksPerAxis = 8;  ///< 512 chunks
constexpr int kFiles = 64;
constexpr float kIso = 0.8f;
/// The frames of a run cycle through kCycle entries, each one plume field
/// at one timestep. A run renders several fields so that its figures
/// average over fields instead of depending on one field's surface. Each
/// entry's reference digest is rendered once, outside every timed region.
constexpr int kCycle = 16;
/// Frames per engine call on the engine workloads: timesteps b .. b+3 of
/// one field, one per camera view. Their cycle holds kCycle / kFrames fields.
constexpr int kFrames = 4;
/// Enough frames for a tail percentile with ten samples beyond the median.
constexpr std::size_t kMinFrames = 20;
constexpr std::size_t kMiB = 1024 * 1024;

/// Everything the program sees is generated from the seed: the plume
/// fields' own seeds and the first timestep b, which also fixes which
/// timestep each of the four camera views renders.
struct Inputs {
  std::vector<std::uint64_t> field_seeds;
  int base_timestep = 0;
};

Inputs inputs_from_seed(std::uint64_t seed) {
  auto splitmix64 = [&seed] {
    std::uint64_t z = (seed += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  };
  Inputs in;
  for (int f = 0; f < kCycle; ++f) in.field_seeds.push_back(splitmix64());
  in.base_timestep = static_cast<int>(splitmix64() % 8);
  return in;
}

/// The synthetic dataset: 96^3 cells in 512 chunks over 64 declustered
/// files, and one plume field per field seed.
struct Dataset {
  data::ChunkLayout layout;
  data::DatasetStore store;
  std::vector<data::PlumeField> fields;  ///< never resized after construction

  Dataset(const Inputs& in, const std::vector<data::FileLocation>& locations)
      : layout(data::GridDims{kGrid, kGrid, kGrid}, kChunksPerAxis,
               kChunksPerAxis, kChunksPerAxis),
        store(layout, data::hilbert_decluster(layout, kFiles), kFiles) {
    store.place_uniform(locations);
    for (std::uint64_t s : in.field_seeds) fields.emplace_back(s);
  }
};

viz::VizWorkload make_viz(const Dataset& ds, const Inputs& in, int field,
                          int image, bool vary_view) {
  viz::VizWorkload w;
  w.store = &ds.store;
  w.field = &ds.fields[static_cast<std::size_t>(field)];
  w.iso_value = kIso;
  w.width = image;
  w.height = image;
  w.base_timestep = in.base_timestep;
  w.vary_view_per_uow = vary_view;
  return w;
}

// ---- the single-threaded render: reference digests and the traced replay ---

struct ReplayCounts {
  std::uint64_t samples = 0;
  std::uint64_t cells = 0;
  std::uint64_t active_cells = 0;
  std::uint64_t triangles = 0;
  std::uint64_t fragments = 0;
  std::uint64_t ap_entries = 0;
  std::uint64_t payload_mismatches = 0;  ///< chunk reads != generated samples
};

/// Renders frame `uow` of `w` on one thread through the public layer calls.
/// With `spans` null it is the reference render (Z-buffer, generated
/// samples). With `spans` set it replays the workload's own path: `reader`
/// supplies the chunks when set, `hsr` selects Z-buffer or Active Pixel, and
/// every layer call is wrapped in a span.
std::uint64_t render_frame(const viz::VizWorkload& w, int uow,
                           viz::HsrAlgorithm hsr, std::size_t ap_capacity,
                           io::ChunkReader* reader, Spans* spans,
                           ReplayCounts& counts) {
  const data::ChunkLayout& layout = w.store->layout();
  const viz::Camera cam = w.make_camera(uow);
  const float scalar_norm = w.iso_value / w.field_max;
  const std::uint32_t background = viz::RenderSink{}.background;
  Spans::Scope frame(spans, "frame");

  viz::ZBuffer zb;
  {
    Spans::Scope s(spans, "viz.frame_pass");
    zb = viz::ZBuffer(w.width, w.height);
  }
  std::unique_ptr<viz::ActivePixelRaster> ap;
  if (hsr == viz::HsrAlgorithm::kActivePixel) {
    ap = std::make_unique<viz::ActivePixelRaster>(w.width, w.height, ap_capacity);
  }
  const viz::ActivePixelRaster::FlushFn merge =
      [&](const std::vector<viz::PixEntry>& entries) {
        counts.ap_entries += entries.size();
        for (const viz::PixEntry& e : entries) zb.apply(e);
      };

  std::vector<float> scratch;
  std::vector<viz::Triangle> tris;
  for (int c = 0; c < layout.num_chunks(); ++c) {
    const data::CellBox box = layout.chunk_box(c);
    {
      Spans::Scope s(spans, "data.fill_chunk");
      w.field->fill_chunk(layout, c, w.timestep(uow), scratch);
    }
    counts.samples += scratch.size();
    const float* samples = scratch.data();
    std::shared_ptr<const std::vector<std::byte>> payload;
    if (reader != nullptr) {
      {
        Spans::Scope s(spans, "io.read");
        payload = reader->read(c, w.base_timestep + uow);
      }
      if (payload->size() != scratch.size() * sizeof(float) ||
          std::memcmp(payload->data(), scratch.data(), payload->size()) != 0) {
        ++counts.payload_mismatches;
      } else {
        samples = reinterpret_cast<const float*>(payload->data());
      }
    }
    tris.clear();
    viz::McStats mc;
    {
      Spans::Scope s(spans, "viz.mc");
      mc = viz::marching_cubes(samples, box.hi[0] - box.lo[0],
                               box.hi[1] - box.lo[1], box.hi[2] - box.lo[2],
                               static_cast<float>(box.lo[0]),
                               static_cast<float>(box.lo[1]),
                               static_cast<float>(box.lo[2]), w.iso_value, tris);
    }
    counts.cells += mc.cells;
    counts.active_cells += mc.active_cells;
    counts.triangles += mc.triangles;

    Spans::Scope s(spans, "viz.raster");
    for (const viz::Triangle& t : tris) {
      viz::ScreenTriangle st;
      if (!cam.project(t, st)) continue;
      const std::uint32_t rgba =
          viz::shade_flat(st.world_normal, cam.view_dir(), scalar_norm);
      if (ap) {
        ap->add(st, rgba, merge);
        continue;
      }
      viz::rasterize(st, w.width, w.height, [&](int x, int y, float depth) {
        ++counts.fragments;
        zb.apply(static_cast<std::uint32_t>(y) *
                     static_cast<std::uint32_t>(w.width) +
                     static_cast<std::uint32_t>(x),
                 depth, rgba);
      });
    }
  }
  if (ap) {
    Spans::Scope s(spans, "viz.raster");
    ap->flush(merge);
    counts.fragments += ap->fragments_generated();
  }
  Spans::Scope s(spans, "viz.frame_pass");
  return zb.to_image(background).digest();
}

// ---- what one measurement collects -------------------------------------------

/// Per-filter-role totals of the threaded engine, summed over engine calls.
struct RoleTotals {
  double busy = 0.0, stall = 0.0, queue_wait = 0.0, io_wait = 0.0;
  /// One per (copy, frame): the engine reports every copy once per UOW.
  std::size_t copy_frames = 0;
};

struct Measurement {
  std::vector<double> frame_s;  ///< wall seconds per frame, in order
  std::vector<double> setup_s;  ///< one sample per Workload::setup()
  /// Per engine call: its wall time outside its frames (engine or rank
  /// start-up and teardown).
  std::vector<double> call_overhead_s;
  FrameLedger frames;
  std::vector<std::string> errors;

  std::map<std::string, RoleTotals> roles;
  std::size_t role_frames = 0;  ///< frames the role totals cover
  double role_frame_s = 0.0;    ///< and their summed wall time
  core::GovernorStats gov;
  net::NetMetricsSnapshot net;
  std::uint64_t sim_events = 0;
  double sim_virtual_s = 0.0;
  std::uint64_t comp_frag_bytes = 0;
  std::uint64_t comp_gather_bytes = 0;
  std::uint64_t comp_fragments = 0;
  std::uint64_t comp_tiles_partial = 0;

  [[nodiscard]] double render_s() const {
    double s = 0.0;
    for (double f : frame_s) s += f;
    return s;
  }
  [[nodiscard]] bool done(double seconds, std::size_t min_frames) const {
    return (render_s() >= seconds && frame_s.size() >= min_frames) ||
           !errors.empty();
  }
  void add_exec(const exec::Metrics& m, const core::Graph& g,
                const std::vector<double>& per_uow) {
    for (const exec::InstanceMetrics& im : m.instances) {
      RoleTotals& r = roles[g.filter(im.filter).name];
      r.busy += im.busy_time;
      r.stall += im.stall_time;
      r.queue_wait += im.queue_wait_time;
      r.io_wait += im.io_wait_time;
      ++r.copy_frames;
    }
    role_frames += per_uow.size();
    for (double f : per_uow) role_frame_s += f;
  }
};

/// Records a batch's frames, which render cycle entries `first_entry`,
/// `first_entry + 1`, ...: statuses, digests and wall times.
void record_frames(Measurement& m, const std::vector<double>& per_uow,
                   const std::vector<std::uint64_t>& digests,
                   const std::vector<bool>& status_ok,
                   const std::vector<std::uint64_t>& refs, int first_entry) {
  for (std::size_t u = 0; u < per_uow.size(); ++u) {
    const std::uint64_t ref = refs[static_cast<std::size_t>(first_entry) + u];
    const bool ok = u < status_ok.size() && status_ok[u] && u < digests.size();
    m.frames.record(ok, ok ? digests[u] : 0, ref);
    m.frame_s.push_back(per_uow[u]);
  }
}

// ---- workloads -----------------------------------------------------------------

/// One workload: a set-up, the frames it renders, and what its traced run
/// adds. Successive batches walk the cycle.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds everything the frames need; called several times, timed each.
  virtual void setup() = 0;
  /// Renders the next batch of frames into `m`, with `trace` attached when
  /// set.
  virtual void batch(Measurement& m, obs::TraceSession* trace) = 0;
  /// Field `f`'s render description (references and the traced replay).
  [[nodiscard]] virtual viz::VizWorkload viz(int f) const = 0;
  [[nodiscard]] virtual viz::HsrAlgorithm hsr() const = 0;
  /// The reader field `f`'s chunks come from; null when generated.
  [[nodiscard]] virtual io::ChunkReader* reader(int /*f*/) { return nullptr; }
  /// Rank processes whose peak memory adds to this process's.
  [[nodiscard]] virtual int rank_processes() const { return 0; }
  /// Traced run only: renders through a second entry point when the
  /// workload's own result lacks per-instance or compositor counters;
  /// false when the workload needs none.
  virtual bool companion(Measurement& /*c*/) { return false; }
  /// Cycle entry e renders frame e % frames_per_field() of field
  /// e / frames_per_field().
  [[nodiscard]] virtual int frames_per_field() const { return kFrames; }
  [[nodiscard]] int fields() const { return kCycle / frames_per_field(); }
  /// Set-up repetitions whose median is reported as setup_s; 0 when the
  /// set-up is each engine call's own (Measurement::call_overhead_s).
  [[nodiscard]] virtual int setup_repeats() const { return 3; }

  std::vector<std::uint64_t> refs;  ///< reference digest per cycle entry
  std::string out_dir;

 protected:
  /// The field of the next batch of kFrames frames.
  int next_field() { return next_batch_++ % fields(); }

 private:
  int next_batch_ = 0;
};

std::vector<std::uint64_t> reference_digests(const Workload& wl,
                                             int corrupt_entry) {
  std::vector<std::uint64_t> refs;
  ReplayCounts ignored;
  const int per = wl.frames_per_field();
  for (int e = 0; e < kCycle; ++e) {
    refs.push_back(render_frame(wl.viz(e / per), e % per,
                                viz::HsrAlgorithm::kZBuffer, 1, nullptr, nullptr,
                                ignored));
    if (e == corrupt_entry) refs.back() ^= 0x5A5A5A5AULL;
  }
  return refs;
}

viz::IsoAppSpec native_spec(const viz::VizWorkload& w, viz::HsrAlgorithm hsr) {
  viz::IsoAppSpec spec;
  spec.workload = w;
  spec.config = viz::PipelineConfig::kRE_Ra_M;
  spec.hsr = hsr;
  spec.data_hosts = {{0, 1}};
  spec.raster_hosts = {{1, 2}};
  spec.merge_host = 2;
  spec.keep_images = false;
  return spec;
}

/// One field's kFrames frames through viz::run_iso_app_native.
void native_batch(Measurement& m, viz::IsoAppSpec spec, int field,
                  const core::RuntimeConfig& cfg, const core::Graph& graph,
                  const std::vector<std::uint64_t>& refs,
                  obs::TraceSession* trace) {
  spec.trace = trace;
  const auto t0 = Clock::now();
  viz::NativeRenderRun run;
  try {
    run = viz::run_iso_app_native(spec, cfg, kFrames);
  } catch (const std::exception& e) {
    m.frames.record_lost(kFrames);
    m.errors.push_back(std::string("native render threw: ") + e.what());
    return;
  }
  const double wall = since(t0);
  double frames_s = 0.0;
  for (double f : run.per_uow) frames_s += f;
  m.call_overhead_s.push_back(wall - frames_s);
  record_frames(m, run.per_uow, run.sink->digests,
                std::vector<bool>(run.per_uow.size(), true), refs,
                field * kFrames);
  m.add_exec(run.metrics, graph, run.per_uow);
  m.gov += run.governor;
}

/// synth_ap_native: generator-bound RE-Ra-M Active Pixel render at 512^2.
class SynthApNative final : public Workload {
 public:
  explicit SynthApNative(const Inputs& in)
      : in_(in), ds_(in, {data::FileLocation{0, 0}}) {
    cfg_.policy = core::Policy::kDemandDriven;
    graph_ = viz::build_iso_app(native_spec(viz(0), hsr())).graph;
  }
  // Set-up is the engine's own: each call's wall time outside its frames.
  void setup() override {}
  [[nodiscard]] int setup_repeats() const override { return 0; }
  void batch(Measurement& m, obs::TraceSession* trace) override {
    const int f = next_field();
    native_batch(m, native_spec(viz(f), hsr()), f, cfg_, graph_, refs, trace);
  }
  [[nodiscard]] viz::VizWorkload viz(int f) const override {
    return make_viz(ds_, in_, f, 512, true);
  }
  [[nodiscard]] viz::HsrAlgorithm hsr() const override {
    return viz::HsrAlgorithm::kActivePixel;
  }

 private:
  Inputs in_;
  Dataset ds_;
  core::RuntimeConfig cfg_;
  core::Graph graph_;
};

/// ooc_zbuf_spill: the same pipeline with Z-buffer at 2048^2, reading
/// materialized chunk stores under a 32 MiB memory budget (spill to disk).
class OocZbufSpill final : public Workload {
 public:
  explicit OocZbufSpill(const Inputs& in)
      : in_(in), ds_(in, {data::FileLocation{0, 0}, data::FileLocation{0, 1}}) {
    cfg_.policy = core::Policy::kDemandDriven;
    cfg_.memory_budget_bytes = 32 * kMiB;
    graph_ = viz::build_iso_app(native_spec(viz(0), hsr())).graph;
  }
  ~OocZbufSpill() override {
    close();
    std::error_code ec;
    fs::remove_all(store_root(), ec);
    fs::remove_all(spill_dir(), ec);
  }
  /// Materializes each field's timesteps into a store of its own and opens
  /// the stores and their readers.
  void setup() override {
    close();
    fs::remove_all(store_root());
    io::ReaderOptions ro;
    // Below one field's frames of chunks (4 x ~4.5 MB), so the LRU cannot
    // keep them resident and every frame reads its chunks again.
    ro.cache_bytes = 8 * kMiB;
    for (int f = 0; f < fields(); ++f) {
      const std::string root = store_root() + "/f" + std::to_string(f);
      io::materialize_plume_dataset(root, ds_.store,
                                    ds_.fields[static_cast<std::size_t>(f)],
                                    in_.base_timestep, kFrames);
      stores_.push_back(std::make_unique<io::ChunkStore>(root));
      readers_.push_back(std::make_unique<io::ChunkReader>(*stores_.back(), ro));
    }
  }
  void batch(Measurement& m, obs::TraceSession* trace) override {
    const int f = next_field();
    viz::IsoAppSpec spec = native_spec(viz(f), hsr());
    spec.workload.reader = reader(f);
    core::RuntimeConfig cfg = cfg_;
    cfg.spill_dir = spill_dir();
    fs::create_directories(cfg.spill_dir);
    native_batch(m, spec, f, cfg, graph_, refs, trace);
  }
  [[nodiscard]] viz::VizWorkload viz(int f) const override {
    return make_viz(ds_, in_, f, 2048, true);
  }
  [[nodiscard]] viz::HsrAlgorithm hsr() const override {
    return viz::HsrAlgorithm::kZBuffer;
  }
  io::ChunkReader* reader(int f) override {
    return readers_[static_cast<std::size_t>(f)].get();
  }

 private:
  void close() {
    readers_.clear();  // before the stores they read
    stores_.clear();
  }
  [[nodiscard]] std::string store_root() const { return out_dir + "/store"; }
  [[nodiscard]] std::string spill_dir() const { return out_dir + "/spill"; }

  Inputs in_;
  Dataset ds_;
  core::RuntimeConfig cfg_;
  core::Graph graph_;
  std::vector<std::unique_ptr<io::ChunkStore>> stores_;
  std::vector<std::unique_ptr<io::ChunkReader>> readers_;
};

/// tiled_tcp_3rank: net::DistributedEngine on 3 loopback-TCP ranks with the
/// tile compositor, Active Pixel at 1024^2.
class TiledTcp3Rank final : public Workload {
 public:
  explicit TiledTcp3Rank(const Inputs& in)
      : in_(in), ds_(in, {data::FileLocation{0, 0}, data::FileLocation{1, 0}}) {
    cfg_.policy = core::Policy::kDemandDriven;
    comp_.owner_hosts = {0, 1, 2};
    comp_.gather_host = 0;
  }
  // Set-up is the ranks': each call's wall time outside its frames.
  void setup() override {}
  [[nodiscard]] int setup_repeats() const override { return 0; }
  void batch(Measurement& m, obs::TraceSession* trace) override {
    const int f = next_field();
    viz::DistributedRunOptions opts;
    opts.result_dir = out_dir + "/ranks";
    if (trace != nullptr) opts.trace_dir = out_dir + "/rank_traces";
    fs::create_directories(opts.result_dir);
    if (!opts.trace_dir.empty()) fs::create_directories(opts.trace_dir);
    const auto t0 = Clock::now();
    const viz::DistributedRenderRun run = comp::run_tiled_iso_app_distributed(
        spec_for(f), comp_, cfg_, kFrames, kRanks, opts);
    const double wall = since(t0);
    if (run.per_uow.size() != static_cast<std::size_t>(kFrames)) {
      m.frames.record_lost(kFrames);
      m.errors.push_back("distributed render failed: " + run.error);
      return;
    }
    bool ranks_ok = run.ok;
    for (const net::RankStatus& r : run.ranks) ranks_ok = ranks_ok && r.ok();
    std::vector<bool> status_ok;
    for (std::size_t u = 0; u < run.per_uow.size(); ++u) {
      status_ok.push_back(ranks_ok && u < run.uow_status.size() &&
                          run.uow_status[u] ==
                              static_cast<int>(net::RunStatus::kComplete));
    }
    double frames_s = 0.0;
    for (double t : run.per_uow) frames_s += t;
    m.call_overhead_s.push_back(wall - frames_s);
    record_frames(m, run.per_uow, run.digests, status_ok, refs, f * kFrames);
    m.net += run.net;
    m.gov += run.governor;
  }
  /// The distributed result carries stream ledgers and transport counters
  /// but no per-instance or compositor counters, so the traced run also
  /// renders one cycle of the same tiled app on the threaded engine for the
  /// exec.* and comp.* numbers.
  bool companion(Measurement& c) override {
    for (int f = 0; f < fields(); ++f) {
      const viz::IsoAppSpec spec = spec_for(f);
      const comp::TiledApp app = comp::build_tiled_iso_app(spec, comp_);
      comp::TiledNativeRun run;
      try {
        run = comp::run_tiled_iso_app_native(spec, comp_, cfg_, kFrames);
      } catch (const std::exception& e) {
        c.frames.record_lost(kFrames);
        c.errors.push_back(std::string("native tiled render threw: ") + e.what());
        continue;
      }
      const comp::CompStats& cs = *run.stats;
      const std::uint64_t partial = cs.tiles_partial.load();
      c.comp_frag_bytes += cs.frag_bytes.load();
      c.comp_gather_bytes += cs.gather_bytes.load();
      c.comp_fragments += cs.fragments_received.load();
      c.comp_tiles_partial += partial;
      // A partial tile fails the frame even when its digest matches.
      record_frames(c, run.per_uow, run.sink->digests,
                    std::vector<bool>(run.per_uow.size(), partial == 0), refs,
                    f * kFrames);
      c.add_exec(run.metrics, app.app.graph, run.per_uow);
    }
    return true;
  }
  [[nodiscard]] viz::VizWorkload viz(int f) const override {
    return make_viz(ds_, in_, f, 1024, true);
  }
  [[nodiscard]] viz::HsrAlgorithm hsr() const override {
    return viz::HsrAlgorithm::kActivePixel;
  }
  [[nodiscard]] int rank_processes() const override { return kRanks; }

 private:
  static constexpr int kRanks = 3;

  [[nodiscard]] viz::IsoAppSpec spec_for(int f) const {
    viz::IsoAppSpec spec;
    spec.workload = viz(f);
    spec.config = viz::PipelineConfig::kRE_Ra_M;
    spec.hsr = hsr();
    spec.data_hosts = viz::one_each({0, 1});
    spec.raster_hosts = {{2, 2}};
    spec.merge_host = 2;
    spec.keep_images = false;
    return spec;
  }

  Inputs in_;
  Dataset ds_;
  core::RuntimeConfig cfg_;
  comp::TiledCompSpec comp_;
};

/// sim_zbuf_8node: core::Runtime on 8 simulated Rogue nodes, RE-Ra-M
/// Z-buffer at 2048^2 (the paper's Fig. 4 point), timed in wall seconds.
class SimZbuf8Node final : public Workload {
 public:
  explicit SimZbuf8Node(const Inputs& in) : in_(in) {
    cfg_.policy = core::Policy::kDemandDriven;
  }
  /// Builds the simulated cluster and dataset, then a runtime with no frames.
  void setup() override {
    sim_ = std::make_unique<sim::Simulation>();
    topo_ = std::make_unique<sim::Topology>(*sim_);
    nodes_ = topo_->add_hosts(8, sim::testbed::rogue_node());
    std::vector<data::FileLocation> locs;
    for (int h : nodes_) {
      for (int d = 0; d < topo_->host(h).num_disks(); ++d) locs.push_back({h, d});
    }
    ds_ = std::make_unique<Dataset>(in_, locs);
    (void)viz::run_iso_app(*topo_, spec_for(0), cfg_, 0);
  }
  /// The set-up is small; many repetitions steady its median.
  [[nodiscard]] int setup_repeats() const override { return 25; }
  /// One frame per runtime call, so each frame's wall time is measurable;
  /// successive calls walk the cycle.
  void batch(Measurement& m, obs::TraceSession* trace) override {
    const int e = next_entry_++ % kCycle;
    viz::IsoAppSpec spec = spec_for(e);
    spec.trace = trace;
    const std::uint64_t events0 = sim_->events_fired();
    const auto t0 = Clock::now();
    viz::RenderRun run;
    try {
      run = viz::run_iso_app(*topo_, spec, cfg_, 1);
    } catch (const std::exception& ex) {
      m.frames.record_lost(1);
      m.errors.push_back(std::string("simulated render threw: ") + ex.what());
      return;
    }
    const double wall = since(t0);
    m.sim_events += sim_->events_fired() - events0;
    m.sim_virtual_s += run.per_uow.empty() ? 0.0 : run.per_uow[0];
    record_frames(m, {wall}, run.sink->digests, {true}, refs, e);
  }
  /// Field f at timestep b + f % 4, the fixed Fig. 4 view.
  [[nodiscard]] viz::VizWorkload viz(int f) const override {
    viz::VizWorkload w = make_viz(*ds_, in_, f, 2048, false);
    w.base_timestep += f % kFrames;
    return w;
  }
  [[nodiscard]] viz::HsrAlgorithm hsr() const override {
    return viz::HsrAlgorithm::kZBuffer;
  }
  /// One frame per field: the simulator's frame cost follows the field's
  /// surface most closely, so this workload averages over the most fields.
  [[nodiscard]] int frames_per_field() const override { return 1; }

 private:
  /// Cycle entry e as a one-frame run.
  [[nodiscard]] viz::IsoAppSpec spec_for(int e) const {
    viz::IsoAppSpec spec;
    spec.workload = viz(e);
    spec.config = viz::PipelineConfig::kRE_Ra_M;
    spec.hsr = hsr();
    spec.data_hosts = viz::one_each(nodes_);
    spec.raster_hosts = viz::one_each(nodes_);
    spec.merge_host = nodes_[0];
    spec.keep_images = false;
    return spec;
  }

  Inputs in_;
  core::RuntimeConfig cfg_;
  std::unique_ptr<sim::Simulation> sim_;
  std::unique_ptr<sim::Topology> topo_;
  std::vector<int> nodes_;
  std::unique_ptr<Dataset> ds_;
  int next_entry_ = 0;
};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const Inputs& in) {
  if (name == "synth_ap_native") return std::make_unique<SynthApNative>(in);
  if (name == "ooc_zbuf_spill") return std::make_unique<OocZbufSpill>(in);
  if (name == "tiled_tcp_3rank") return std::make_unique<TiledTcp3Rank>(in);
  if (name == "sim_zbuf_8node") return std::make_unique<SimZbuf8Node>(in);
  throw std::invalid_argument("unknown workload: " + name);
}

/// Block-cache and disk counters summed over a workload's readers.
struct IoTotals {
  std::uint64_t hits = 0, misses = 0, disk_bytes = 0;
  double read_wait_s = 0.0, queue_wait_s = 0.0;
};

IoTotals io_totals(Workload& wl) {
  IoTotals t;
  for (int f = 0; f < wl.fields(); ++f) {
    const io::ChunkReader* r = wl.reader(f);
    if (r == nullptr) continue;
    const io::IoMetrics m = r->metrics();
    t.hits += m.cache.hits;
    t.misses += m.cache.misses;
    t.disk_bytes += m.total_disk_bytes();
    t.read_wait_s += m.read_wait_s;
    t.queue_wait_s += m.total_queue_wait_s();
  }
  return t;
}

// ---- reporting ---------------------------------------------------------------

/// Peak resident memory of this process plus its rank processes. Each rank
/// is charged the peak of the largest child (getrusage reports only that).
double peak_rss_mb(int rank_processes) {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  const double kb = static_cast<double>(self.ru_maxrss) +
                    static_cast<double>(rank_processes) *
                        static_cast<double>(children.ru_maxrss);
  return kb / 1024.0;
}

void report_end_to_end(const Measurement& m, const Workload& wl,
                       RunResult& res) {
  const double render_s = m.render_s();
  const double frames = static_cast<double>(m.frame_s.size());
  res.report.set("frames_per_s", render_s > 0.0 ? frames / render_s : 0.0, "1/s");
  res.report.set("frame_p50_s", median(m.frame_s), "s");
  const std::optional<Tail> tail = tail_percentile(m.frame_s);
  if (!tail) throw std::runtime_error("too few frames for a tail percentile");
  res.report.set("frame_tail_s", tail->value, "s");
  const std::vector<double>& setups =
      wl.setup_repeats() > 0 ? m.setup_s : m.call_overhead_s;
  res.report.set("setup_s", median(setups), "s");
  res.report.set("peak_rss_mb", peak_rss_mb(wl.rank_processes()), "MB");
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "frame_tail_s is p%g of %zu frames (%zu beyond); setup_s is "
                "the median of %zu set-ups",
                tail->percentile, tail->samples, tail->beyond, setups.size());
  res.notes.push_back(buf);
}

/// Per filter role: mean per-copy seconds per frame, and the share of the
/// frame time a copy was busy.
void report_exec(const Measurement& m, Report& r) {
  for (const char* role : {"RE", "Ra", "M", "TM", "G"}) {
    const auto it = m.roles.find(role);
    const RoleTotals t = it == m.roles.end() ? RoleTotals{} : it->second;
    const double per =
        t.copy_frames > 0 ? 1.0 / static_cast<double>(t.copy_frames) : 0.0;
    const double frame_s =
        m.role_frames > 0 ? m.role_frame_s / static_cast<double>(m.role_frames)
                          : 0.0;
    const std::string k = std::string("exec.") + role;
    r.set(k + ".busy_s", t.busy * per, "s/frame");
    r.set(k + ".stall_s", t.stall * per, "s/frame");
    r.set(k + ".queue_wait_s", t.queue_wait * per, "s/frame");
    r.set(k + ".io_wait_s", t.io_wait * per, "s/frame");
    r.set(k + ".busy_share", frame_s > 0.0 ? t.busy * per / frame_s : 0.0,
          "ratio");
  }
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "synth_ap_native", "ooc_zbuf_spill", "tiled_tcp_3rank", "sim_zbuf_8node"};
  return names;
}

RunResult run_workload(const RunOptions& opts) {
  const Inputs in = inputs_from_seed(opts.seed);
  fs::create_directories(opts.out_dir);
  std::unique_ptr<Workload> wl = make_workload(opts.workload, in);
  wl->out_dir = opts.out_dir;

  Measurement m;
  for (int i = 0; i < wl->setup_repeats(); ++i) {
    const auto t0 = Clock::now();
    wl->setup();
    m.setup_s.push_back(since(t0));
  }
  wl->refs = reference_digests(*wl, opts.corrupt_reference_entry);
  // Hand the reference renders' freed buffers back to the system, so rank
  // processes forked later do not inherit them as resident memory.
  malloc_trim(0);

  RunResult res;
  if (!opts.trace) {
    while (!m.done(opts.seconds, kMinFrames)) wl->batch(m, nullptr);
    report_end_to_end(m, *wl, res);
    res.frames = m.frames;
    res.errors = m.errors;
    return res;
  }

  // Traced run: half the time untraced (the layer counters and the
  // overhead baseline), half with an obs::TraceSession attached, then a
  // single-threaded replay of the cycle with the benchmark's own spans.
  const IoTotals io0 = io_totals(*wl);
  while (!m.done(opts.seconds / 2, kCycle)) wl->batch(m, nullptr);
  const IoTotals io1 = io_totals(*wl);

  obs::TraceSession session;
  session.set_enabled(true);
  Measurement traced;
  while (!traced.done(opts.seconds / 2, kCycle)) wl->batch(traced, &session);
  session.set_enabled(false);

  Spans spans;
  ReplayCounts counts;
  std::size_t replay_failed = 0;
  const std::size_t ap_capacity = viz::IsoAppSpec{}.pix_buffer_bytes /
                                  sizeof(viz::PixEntry);
  const int per = wl->frames_per_field();
  for (int e = 0; e < kCycle; ++e) {
    const std::uint64_t mismatches = counts.payload_mismatches;
    const std::uint64_t d =
        render_frame(wl->viz(e / per), e % per, wl->hsr(), ap_capacity,
                     wl->reader(e / per), &spans, counts);
    // A chunk read that differs from the generated samples fails the frame.
    if (d != wl->refs[static_cast<std::size_t>(e)] ||
        counts.payload_mismatches != mismatches) {
      ++replay_failed;
    }
  }

  Measurement extra;
  const bool has_companion = wl->companion(extra);

  Report& r = res.report;
  const double cyc = static_cast<double>(kCycle);
  const std::map<std::string, double> self = spans.self_s();
  auto span_s = [&](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second / cyc;
  };
  r.set("data.fill_chunk_s", span_s("data.fill_chunk"), "s/frame");
  r.set("data.samples", static_cast<double>(counts.samples) / cyc, "count/frame");

  const double frames = static_cast<double>(m.frame_s.size());
  const std::uint64_t hits = io1.hits - io0.hits;
  const std::uint64_t misses = io1.misses - io0.misses;
  r.set("io.read_s", span_s("io.read"), "s/frame");
  r.set("io.read_wait_s", (io1.read_wait_s - io0.read_wait_s) / frames, "s/frame");
  r.set("io.queue_wait_s", (io1.queue_wait_s - io0.queue_wait_s) / frames,
        "s/frame");
  r.set("io.disk_bytes", static_cast<double>(io1.disk_bytes - io0.disk_bytes) / frames,
        "bytes/frame");
  r.set("io.cache_hit_ratio",
        hits + misses > 0 ? static_cast<double>(hits) /
                                static_cast<double>(hits + misses)
                          : 0.0,
        "ratio");

  r.set("gov.spilled_bytes", static_cast<double>(m.gov.spilled_bytes) / frames,
        "bytes/frame");
  r.set("gov.readmitted_bytes",
        static_cast<double>(m.gov.readmitted_bytes) / frames, "bytes/frame");
  r.set("gov.grants", static_cast<double>(m.gov.grants) / frames, "count/frame");
  r.set("gov.denials", static_cast<double>(m.gov.denials) / frames, "count/frame");
  r.set("gov.high_water_bytes", static_cast<double>(m.gov.high_water_bytes),
        "bytes");

  r.set("viz.mc_s", span_s("viz.mc"), "s/frame");
  r.set("viz.triangles", static_cast<double>(counts.triangles) / cyc,
        "count/frame");
  r.set("viz.active_cell_ratio",
        counts.cells > 0 ? static_cast<double>(counts.active_cells) /
                               static_cast<double>(counts.cells)
                         : 0.0,
        "ratio");
  r.set("viz.raster_s", span_s("viz.raster"), "s/frame");
  r.set("viz.fragments", static_cast<double>(counts.fragments) / cyc,
        "count/frame");
  r.set("viz.frame_pass_s", span_s("viz.frame_pass"), "s/frame");
  r.set("viz.ap_dedup_ratio",
        counts.fragments > 0 && wl->hsr() == viz::HsrAlgorithm::kActivePixel
            ? static_cast<double>(counts.ap_entries) /
                  static_cast<double>(counts.fragments)
            : 0.0,
        "ratio");

  report_exec(has_companion ? extra : m, r);
  const double extra_frames = std::max<double>(1.0, extra.frame_s.size());
  r.set("comp.frag_bytes", static_cast<double>(extra.comp_frag_bytes) / extra_frames,
        "bytes/frame");
  r.set("comp.gather_bytes",
        static_cast<double>(extra.comp_gather_bytes) / extra_frames, "bytes/frame");
  r.set("comp.fragments_received",
        static_cast<double>(extra.comp_fragments) / extra_frames, "count/frame");
  r.set("comp.tiles_partial", static_cast<double>(extra.comp_tiles_partial),
        "count");

  r.set("net.bytes_sent", static_cast<double>(m.net.bytes_sent) / frames,
        "bytes/frame");
  r.set("net.frames_sent", static_cast<double>(m.net.frames_sent) / frames,
        "count/frame");
  r.set("net.send_batches", static_cast<double>(m.net.send_batches) / frames,
        "count/frame");
  r.set("net.credit_stalls", static_cast<double>(m.net.credit_stalls) / frames,
        "count/frame");
  r.set("net.credit_stall_s",
        static_cast<double>(m.net.credit_stall_us) * 1e-6 / frames, "s/frame");

  r.set("sim.events", static_cast<double>(m.sim_events) / frames, "count/frame");
  r.set("sim.wall_us_per_event",
        m.sim_events > 0 ? m.render_s() * 1e6 / static_cast<double>(m.sim_events)
                         : 0.0,
        "us");
  r.set("sim.virtual_s_per_frame", m.sim_virtual_s / frames, "s/frame");

  const double base = median(m.frame_s);
  r.set("trace.overhead_pct",
        base > 0.0 ? (median(traced.frame_s) / base - 1.0) * 100.0 : 0.0, "%");

  const std::string spans_path = opts.out_dir + "/spans.trace.json";
  const std::string session_path = opts.out_dir + "/engine.trace.json";
  if (!spans.write_chrome(spans_path) ||
      !obs::write_chrome_trace(session, session_path)) {
    res.errors.push_back("could not write the trace files to " + opts.out_dir);
  }
  res.notes.push_back("spans: " + spans_path + " (" +
                      std::to_string(spans.size()) + " spans), engine trace: " +
                      session_path);

  res.frames = m.frames;
  res.errors.insert(res.errors.end(), m.errors.begin(), m.errors.end());
  for (const Measurement* part : {&traced, &extra}) {
    res.frames.attempted += part->frames.attempted;
    res.frames.failed += part->frames.failed;
    res.errors.insert(res.errors.end(), part->errors.begin(), part->errors.end());
  }
  // The replay is one more frame check per cycle entry.
  res.frames.attempted += kCycle;
  res.frames.failed += replay_failed;
  return res;
}

}  // namespace perfbench
