#pragma once

#include <chrono>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/filter.hpp"
#include "core/graph.hpp"
#include "data/decluster.hpp"
#include "data/store.hpp"
#include "data/synth.hpp"
#include "exec/engine.hpp"
#include "exec/watchdog.hpp"
#include "sim/cluster.hpp"
#include "viz/app.hpp"
#include "viz/filters.hpp"
#include "viz/image.hpp"
#include "viz/marching_cubes.hpp"
#include "viz/raster.hpp"
#include "viz/zbuffer.hpp"

namespace dc::test {

/// A small homogeneous test cluster: `n` identical 1-core nodes.
inline std::vector<int> add_plain_nodes(sim::Topology& topo, int n,
                                        const std::string& cls = "plain",
                                        int cores = 1, double mhz = 500.0) {
  sim::HostSpec spec;
  spec.name = cls;
  spec.host_class = cls;
  spec.cores = cores;
  spec.cpu_mhz = mhz;
  spec.num_disks = 1;
  spec.disk_bandwidth = 50e6;
  spec.nic_bandwidth = 125e6;
  return topo.add_hosts(n, spec);
}

/// A small dataset: grid^3 cells in chunks^3 chunks, declustered over files.
struct TestDataset {
  data::ChunkLayout layout;
  std::unique_ptr<data::DatasetStore> store;
  std::unique_ptr<data::PlumeField> field;
};

inline TestDataset make_dataset(int grid = 24, int chunks = 3, int files = 16,
                                std::uint64_t seed = 7) {
  TestDataset d;
  d.layout = data::ChunkLayout(data::GridDims{grid, grid, grid}, chunks, chunks,
                               chunks);
  d.store = std::make_unique<data::DatasetStore>(
      d.layout, data::hilbert_decluster(d.layout, files), files);
  d.field = std::make_unique<data::PlumeField>(seed);
  return d;
}

inline viz::VizWorkload make_workload(const TestDataset& d, int width = 64,
                                      int height = 64, float iso = 0.8f) {
  viz::VizWorkload w;
  w.store = d.store.get();
  w.field = d.field.get();
  w.iso_value = iso;
  w.width = width;
  w.height = height;
  return w;
}

/// Scales the compute costs so runs are CPU-bound (Raster-dominated, as in
/// the paper's workload) instead of disk-seek-bound at test scale.
inline void make_compute_bound(viz::VizWorkload& w, double factor = 100.0) {
  w.cost.mc_per_cell *= factor;
  w.cost.mc_per_active_cell *= factor;
  w.cost.mc_per_triangle *= factor;
  w.cost.raster_per_triangle *= factor;
  w.cost.raster_per_fragment *= factor;
}

/// Scales only the raster-stage costs: the regime of the paper's evaluation,
/// where Raster dominates (Table 2) and is the stage worth replicating and
/// offloading. Read/extract stay pinned to the data hosts.
inline void make_raster_bound(viz::VizWorkload& w, double factor = 1000.0) {
  w.cost.raster_per_triangle *= factor;
  w.cost.raster_per_fragment *= factor;
}

/// Reference renderer: extracts and rasterizes the whole dataset directly
/// into one z-buffer, bypassing the filter runtime entirely. Every
/// distributed configuration must reproduce this image bit-for-bit.
inline viz::Image direct_render(const viz::VizWorkload& w, int uow = 0,
                                std::uint32_t background = viz::RenderSink{}.background) {
  const viz::Camera cam = w.make_camera(uow);
  viz::ZBuffer zb(w.width, w.height);
  std::vector<float> scratch;
  std::vector<viz::Triangle> tris;
  const float scalar_norm = w.iso_value / w.field_max;
  for (int c = 0; c < w.store->layout().num_chunks(); ++c) {
    tris.clear();
    const data::CellBox box = w.store->layout().chunk_box(c);
    w.field->fill_chunk(w.store->layout(), c, w.timestep(uow), scratch);
    viz::marching_cubes(scratch.data(), box.hi[0] - box.lo[0],
                        box.hi[1] - box.lo[1], box.hi[2] - box.lo[2],
                        static_cast<float>(box.lo[0]),
                        static_cast<float>(box.lo[1]),
                        static_cast<float>(box.lo[2]), w.iso_value, tris);
    for (const viz::Triangle& t : tris) {
      viz::ScreenTriangle st;
      if (!cam.project(t, st)) continue;
      const std::uint32_t rgba =
          viz::shade_flat(st.world_normal, cam.view_dir(), scalar_norm);
      viz::rasterize(st, w.width, w.height, [&](int x, int y, float depth) {
        zb.apply(static_cast<std::uint32_t>(y) * static_cast<std::uint32_t>(w.width) +
                     static_cast<std::uint32_t>(x),
                 depth, rgba);
      });
    }
  }
  return zb.to_image(background);
}

/// Per-UOW countdown: opens for UOW u once `sources` source copies have
/// reported that their step() loop for u is over.
class SourcesDoneLatch {
 public:
  explicit SourcesDoneLatch(int sources) : sources_(sources) {}

  void source_done(int uow) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      ++done_[uow];
    }
    cv_.notify_all();
  }

  void wait(int uow) {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [&] { return done_[uow] >= sources_; });
  }

 private:
  const int sources_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::map<int, int> done_;
};

/// Forwards to a source filter and reports to the latch when step() returns
/// false.
class LatchedSource final : public core::SourceFilter {
 public:
  LatchedSource(std::unique_ptr<core::Filter> inner,
                std::shared_ptr<SourcesDoneLatch> latch)
      : latch_(std::move(latch)) {
    if (dynamic_cast<core::SourceFilter*>(inner.get()) == nullptr) {
      throw std::invalid_argument("LatchedSource: not a SourceFilter");
    }
    inner_.reset(static_cast<core::SourceFilter*>(inner.release()));
  }
  void init(core::FilterContext& ctx) override { inner_->init(ctx); }
  bool step(core::FilterContext& ctx) override {
    const bool more = inner_->step(ctx);
    if (!more) latch_->source_done(ctx.uow_index());
    return more;
  }
  void process_eow(core::FilterContext& ctx) override { inner_->process_eow(ctx); }
  void finalize(core::FilterContext& ctx) override { inner_->finalize(ctx); }

 private:
  std::unique_ptr<core::SourceFilter> inner_;
  std::shared_ptr<SourcesDoneLatch> latch_;
};

/// Forwards to a consumer filter, but its first process_buffer() of a UOW
/// blocks until every source copy has finished that UOW.
class HeldFilter final : public core::Filter {
 public:
  HeldFilter(std::unique_ptr<core::Filter> inner,
             std::shared_ptr<SourcesDoneLatch> latch)
      : inner_(std::move(inner)), latch_(std::move(latch)) {}
  void init(core::FilterContext& ctx) override { inner_->init(ctx); }
  void process_buffer(core::FilterContext& ctx, int port,
                      const core::Buffer& buf) override {
    if (!released_) {
      latch_->wait(ctx.uow_index());
      released_ = true;
    }
    inner_->process_buffer(ctx, port, buf);
  }
  void process_eow(core::FilterContext& ctx) override { inner_->process_eow(ctx); }
  void finalize(core::FilterContext& ctx) override { inner_->finalize(ctx); }

 private:
  std::unique_ptr<core::Filter> inner_;
  std::shared_ptr<SourcesDoneLatch> latch_;
  bool released_ = false;  // one Filter object per copy per UOW
};

/// What a held run yields: the merged frames and the governor's counters.
struct HeldRun {
  std::shared_ptr<viz::RenderSink> sink;
  core::GovernorStats governor;
};

/// viz::run_iso_app_native with the raster copies held: each copy of
/// `app.raster_filter` takes its first buffer, then waits until every source
/// copy of the UOW has stepped to the end. The source keeps pushing
/// meanwhile, so every delivery beyond a port's `window` floor meets the
/// governor while the consumer lags — on any core count, not only when the
/// scheduler happens to starve the raster thread.
///
/// Governed runs only (`memory_budget_bytes > 0`): there push() and the
/// dispatch window never block, so the held run completes. In the fixed
/// regime the source would block at `window` and never finish. A scoped
/// exec::Watchdog turns a regression to a blocking push into a loud abort
/// instead of a hang; it is joined before this returns, so callers that
/// fork afterwards stay single-threaded.
inline HeldRun run_iso_app_native_held(const viz::IsoAppSpec& spec,
                                       const core::RuntimeConfig& cfg,
                                       int uows) {
  if (cfg.memory_budget_bytes == 0) {
    throw std::invalid_argument(
        "run_iso_app_native_held: a held consumer deadlocks the fixed regime");
  }
  exec::Watchdog dog(std::chrono::seconds(120),
                     "run_iso_app_native_held: governed push blocked");
  viz::IsoApp app = viz::build_iso_app(spec);
  if (app.raster_filter < 0) {
    throw std::invalid_argument("run_iso_app_native_held: no raster filter");
  }

  int sources = 0;
  for (int f = 0; f < app.graph.num_filters(); ++f) {
    if (app.graph.filter(f).is_source) sources += app.placement.total_copies(f);
  }
  auto latch = std::make_shared<SourcesDoneLatch>(sources);

  // Same filters, ids and streams; only the factories are wrapped.
  core::Graph held;
  for (int f = 0; f < app.graph.num_filters(); ++f) {
    const core::FilterSpec& fs = app.graph.filter(f);
    core::FilterFactory factory = fs.factory;
    if (fs.is_source) {
      factory = [inner = fs.factory, latch] {
        return std::make_unique<LatchedSource>(inner(), latch);
      };
    } else if (f == app.raster_filter) {
      factory = [inner = fs.factory, latch] {
        return std::make_unique<HeldFilter>(inner(), latch);
      };
    }
    held.add_filter(fs.name, std::move(factory), fs.is_source);
  }
  for (int s = 0; s < app.graph.num_streams(); ++s) {
    const core::StreamSpec& ss = app.graph.stream(s);
    const int id = held.connect(ss.from_filter, ss.from_port, ss.to_filter,
                                ss.to_port, ss.min_buffer_bytes,
                                ss.max_buffer_bytes);
    held.stream(id).policy = ss.policy;
  }

  exec::Engine eng(held, app.placement, cfg);
  for (int u = 0; u < uows; ++u) (void)eng.run_uow();
  return HeldRun{app.sink, eng.governor_stats()};
}

}  // namespace dc::test
