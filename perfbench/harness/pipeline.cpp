// Pipeline workloads: the end-to-end repetition and the traced replay.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include <omp.h>

#include "delaunay/hull_projection.h"
#include "delaunay/triangulation.h"
#include "dtfe/audit.h"
#include "dtfe/density.h"
#include "dtfe/march_tables.h"
#include "dtfe/marching_kernel.h"
#include "dtfe/velocity_model.h"
#include "engine/config.h"
#include "engine/engine.h"
#include "framework/decomposition.h"
#include "framework/des.h"
#include "framework/durable.h"
#include "framework/schedule.h"
#include "harness.h"
#include "nbody/fof.h"
#include "nbody/particles.h"
#include "nbody/snapshot_io.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "spans.h"
#include "util/grid_index.h"
#include "util/rng.h"

namespace perfbench {

using namespace dtfe;

namespace {

/// Largest accepted |window mass from the grid − particle mass in the
/// window| / particle mass, checked on grids of at least kMassCheckMinGrid
/// pixels a side. The DTFE interpolant conserves mass over the hull; over
/// one field window the error comes from the window boundary (under 2% at
/// 512²) and from sampling one line of sight per pixel, which alone reaches
/// 30% on 64² grids over halo cores. Coarser grids are checked for
/// negative density only; the traced run's bitwise replay is the exact
/// check at every size.
constexpr double kMassRelTol = 0.05;
constexpr std::size_t kMassCheckMinGrid = 256;

/// The same per-item kernel seed the pipeline derives (engine/stages.cpp):
/// a pure function of the run seed and the wrapped field center's bits.
std::uint64_t item_seed(std::uint64_t base, const Vec3& center) {
  std::uint64_t h = base ^ 0x9e3779b97f4a7c15ull;
  for (const double v : {center.x, center.y, center.z}) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    h ^= bits;
    h = detail::splitmix64(h);
  }
  return h ? h : 0x9e3779b97f4a7c15ull;
}

bool lex_less(const Vec3& a, const Vec3& b) {
  if (a.x != b.x) return a.x < b.x;
  if (a.y != b.y) return a.y < b.y;
  return a.z < b.z;
}

/// Every particle's periodic images within `pad` of the box, made by the
/// program's with_periodic_pad with the ghost exchange's p + shift
/// arithmetic, and a GridIndex over them, as each rank builds one over its
/// owned and ghost particles. A cube of half-side up to `pad` around a
/// wrapped center gathers exactly the points the rank that renders it
/// holds. The index refers to `points`, so the object stays in place.
struct PaddedParticles {
  std::vector<Vec3> points;
  GridIndex index;

  PaddedParticles(const ParticleSet& set, double pad, std::size_t cells)
      : points(with_periodic_pad(set, pad)),
        index(points, Vec3{-pad, -pad, -pad}, set.box_length + 2.0 * pad,
              cells) {}
  PaddedParticles(const PaddedParticles&) = delete;
  PaddedParticles& operator=(const PaddedParticles&) = delete;
};

/// The field requests `pdtfe pipeline` makes: the largest FOF groups.
std::vector<engine::FieldRequest> select_requests(
    const std::vector<FofGroup>& groups, std::size_t n) {
  std::vector<engine::FieldRequest> requests;
  for (std::size_t i = 0; i < groups.size() && requests.size() < n; ++i)
    requests.push_back({groups[i].center});
  return requests;
}

std::vector<double> channel_sums(const FieldGrid& g) {
  std::vector<double> out;
  for (std::size_t c = 0; c < g.channels(); ++c) out.push_back(g.plane_sum(c));
  return out;
}

bool all_finite(const FieldGrid& g) {
  for (std::size_t c = 0; c < g.channels(); ++c)
    for (const double v : g.plane(c).values())
      if (!std::isfinite(v)) return false;
  return true;
}

/// Relative difference between the mass the density grid integrates to
/// over its window and the particle mass inside the window's cube.
double window_mass_rel_err(const ParticleSet& set, const Vec3& center,
                           double length, const FieldGrid& grid) {
  const double h = 0.5 * length;
  std::size_t inside = 0;
  for (const Vec3& p : set.positions) {
    const Vec3 d = min_image(p - center, set.box_length);
    if (std::abs(d.x) < h && std::abs(d.y) < h && std::abs(d.z) < h) ++inside;
  }
  const double cell = length / static_cast<double>(grid.plane(0).nx());
  const double grid_mass = grid.plane(0).sum() * cell * cell;
  const double particle_mass =
      set.particle_mass * static_cast<double>(inside);
  return std::abs(grid_mass - particle_mass) / std::max(particle_mass, 1e-300);
}

/// Each computed item's (actual, predicted) cost, grouped by the rank that
/// owns its center — the input simulate_work_sharing takes.
struct OwnerCosts {
  std::vector<std::vector<double>> actual, predicted;
};

OwnerCosts owner_costs(const engine::Engine& eng, int ranks, double box) {
  const Decomposition decomp(ranks, box);
  OwnerCosts out;
  out.actual.resize(static_cast<std::size_t>(ranks));
  out.predicted.resize(static_cast<std::size_t>(ranks));
  std::set<std::ptrdiff_t> seen;
  for (const engine::RankRun& run : eng.last_rank_runs())
    for (const ItemRecord& it : run.result.items) {
      if (it.request_index < 0 || !seen.insert(it.request_index).second)
        continue;
      const auto r = static_cast<std::size_t>(decomp.owner_of(it.center));
      out.actual[r].push_back(it.actual_tri + it.actual_interp);
      out.predicted[r].push_back(it.predicted_tri + it.predicted_interp);
    }
  return out;
}

struct RankSummary {
  double busy_max = 0.0, busy_mean = 0.0;
  double partition_max = 0.0, model_max = 0.0;
  std::size_t items_received = 0, items_replayed = 0, audit_violations = 0;
  std::size_t items_audit_failed = 0;
};

RankSummary summarize(const engine::Engine& eng) {
  RankSummary s;
  double busy_sum = 0.0;
  for (const engine::RankRun& run : eng.last_rank_runs()) {
    const PipelineResult& res = run.result;
    s.busy_max = std::max(s.busy_max, res.phases.total());
    busy_sum += res.phases.total();
    s.partition_max = std::max(s.partition_max, res.phases.partition);
    s.model_max = std::max(s.model_max, res.phases.model);
    s.items_received += res.items_received;
    s.items_replayed += res.items_replayed;
    s.audit_violations += res.audit_violations;
    for (const ItemRecord& it : res.items)
      if (!it.audit.empty() && it.audit != "pass") ++s.items_audit_failed;
  }
  if (!eng.last_rank_runs().empty())
    s.busy_mean =
        busy_sum / static_cast<double>(eng.last_rank_runs().size());
  return s;
}

void write_report(const std::string& path, const engine::Engine& eng,
                  const std::vector<engine::FieldResult>& fields,
                  double batch_s) {
  obs::RunReport report;
  std::size_t completed = 0;
  for (const engine::FieldResult& f : fields) completed += f.completed;
  for (const engine::RankRun& run : eng.last_rank_runs()) {
    const PipelineResult& res = run.result;
    report.add_rank_values(
        run.rank, {{"partition_s", res.phases.partition},
                   {"model_s", res.phases.model},
                   {"work_share_s", res.phases.work_share},
                   {"triangulate_s", res.phases.triangulate},
                   {"render_s", res.phases.render},
                   {"recover_s", res.phases.recover},
                   {"total_s", res.phases.total()},
                   {"local_items", static_cast<double>(res.local_items)},
                   {"items_received", static_cast<double>(res.items_received)},
                   {"items_failed", static_cast<double>(res.items_failed)}});
  }
  report.add_summary("ranks", eng.config().ranks);
  report.add_summary("fields", static_cast<double>(fields.size()));
  report.add_summary("fields_completed", static_cast<double>(completed));
  report.add_summary("wall_s", batch_s);
  DTFE_CHECK_MSG(report.write_json(path), "cannot write report " << path);
}

}  // namespace

int run_pipeline(const CliArgs& args) {
  const engine::EngineConfig cfg = engine::EngineConfig::from_cli(args);
  const PipelineOptions& opt = cfg.pipeline;
  const std::string report_path = args.get("report", std::string{}) + ".json";

  // ---- timed: the public call sequence of `pdtfe pipeline` ----------------
  const double t0 = mono_s();
  const ParticleSet set = read_snapshot(cfg.snapshot);
  const double t1 = mono_s();
  const std::vector<FofGroup> groups = find_fof_groups(set);
  const double t2 = mono_s();
  const std::vector<engine::FieldRequest> requests =
      select_requests(groups, cfg.n_fields);
  const double t3 = mono_s();
  engine::Engine eng(cfg);
  const std::vector<engine::FieldResult> fields = eng.run_batch(requests);
  const double t4 = mono_s();
  write_report(report_path, eng, fields, t4 - t3);
  const double t5 = mono_s();

  // ---- untimed: correctness gate and bookkeeping ----------------------------
  std::size_t bad = 0;
  double worst_mass_err = 0.0;
  std::vector<double> sums, chans;
  for (const engine::FieldResult& f : fields) {
    bool ok = f.completed && !f.failed && all_finite(f.grid);
    if (ok && opt.field == FieldKind::kDensity) {
      const Grid2D& g = f.grid.plane(0);
      ok = *std::min_element(g.values().begin(), g.values().end()) >= 0.0;
      if (ok && opt.field_resolution >= kMassCheckMinGrid) {
        const double err = window_mass_rel_err(
            set,
            wrap_periodic(requests[static_cast<std::size_t>(f.request)].center,
                          set.box_length),
            opt.field_length, f.grid);
        worst_mass_err = std::max(worst_mass_err, err);
        ok = err <= kMassRelTol;
      }
    }
    bad += !ok;
    sums.push_back(f.grid.sum());
    const std::vector<double> cs = channel_sums(f.grid);
    if (chans.empty()) chans.assign(cs.size(), 0.0);
    for (std::size_t c = 0; c < cs.size() && c < chans.size(); ++c)
      chans[c] += cs[c];
  }
  const RankSummary rs = summarize(eng);
  bad += rs.items_audit_failed;
  const OwnerCosts oc = owner_costs(eng, cfg.ranks, set.box_length);
  const DesResult des = simulate_work_sharing(oc.actual, oc.predicted);
  const std::size_t records =
      opt.checkpoint_dir.empty() ? 0 : load_checkpoints(opt.checkpoint_dir).size();

  JsonObject out;
  out.num("read_s", t1 - t0);
  out.num("fof_s", t2 - t1);
  out.num("select_s", t3 - t2);
  out.num("setup_s", t3 - t0);
  out.num("batch_s", t4 - t3);
  out.num("report_s", t5 - t4);
  out.num("wall_s", t5 - t0);
  out.num("peak_rss_mb", peak_rss_mb());
  out.integer("particles", static_cast<std::int64_t>(set.size()));
  out.integer("fof_groups", static_cast<std::int64_t>(groups.size()));
  out.integer("fields", static_cast<std::int64_t>(requests.size()));
  out.integer("fields_failed", static_cast<std::int64_t>(bad));
  out.num("worst_mass_rel_err", worst_mass_err);
  out.nums("field_sums", sums);
  out.nums("channel_sums", chans);
  out.integer("items_shipped", static_cast<std::int64_t>(rs.items_received));
  out.integer("items_replayed", static_cast<std::int64_t>(rs.items_replayed));
  out.integer("journal_records", static_cast<std::int64_t>(records));
  out.num("busy_max_s", rs.busy_max);
  out.num("busy_mean_s", rs.busy_mean);
  out.num("balance_gain", des.makespan_unbalanced /
                              std::max(des.makespan_balanced, 1e-300));
  out.print();
  return 0;
}

namespace {

/// What the serial replay counted, layer by layer.
struct ReplayTally {
  double gather_particles = 0.0;
  double items = 0.0;
  double geom_cells = 0.0;
  double coef_builds = 0.0;
  double crossings = 0.0;
  double rays = 0.0;
  double perturb_restarts = 0.0;
  double failed_cells = 0.0;
  double audit_violations = 0.0;
  double commit_records = 0.0;
  double commit_bytes = 0.0;
  std::vector<double> field_sums;
};

/// One coefficient-table build (the MarchingKernel constructor) plus its
/// render, each in its own span.
Grid2D march_one(SpanLog& log, int item, const DensityField& f,
                 const HullProjection& hull, const MarchingOptions& mopt,
                 const std::shared_ptr<const TetraGeomTable>& geom,
                 const FieldSpec& spec, ReplayTally& t, double* ray_mass) {
  std::optional<MarchingKernel> kernel;
  {
    const ScopedSpan s(log, "coef_table", item);
    kernel.emplace(f, hull, mopt, geom);
  }
  t.coef_builds += 1.0;
  Grid2D grid;
  {
    const ScopedSpan s(log, "march", item);
    grid = kernel->render(spec);
  }
  const MarchingStats& stats = kernel->stats();
  t.crossings += static_cast<double>(stats.tetra_crossed);
  t.rays += static_cast<double>(stats.rays_marched);
  t.perturb_restarts += static_cast<double>(stats.perturb_restarts);
  t.failed_cells += static_cast<double>(stats.failed_cells);
  if (ray_mass != nullptr) *ray_mass = stats.ray_mass;
  return grid;
}

Grid2D los_ratio(const Grid2D& integral, const Grid2D& path) {
  Grid2D out(integral.nx(), integral.ny());
  for (std::size_t i = 0; i < out.size(); ++i)
    out.flat(i) = path.flat(i) > 0.0 ? integral.flat(i) / path.flat(i) : 0.0;
  return out;
}

/// Render one item through each layer's public constructor or call, in the
/// order engine::prepare_item / render_prepared / FieldCube run them.
FieldGrid replay_item(SpanLog& log, int k, const ParticleSet& set,
                      const PaddedParticles& padded, const Vec3& center,
                      const PipelineOptions& opt, CheckpointWriter* journal,
                      ReplayTally& t) {
  const ScopedSpan item_span(log, "item", k);
  std::vector<Vec3> cube;
  {
    // engine::StageContext::execute_local's gather, then prepare_item's
    // canonical sort.
    const ScopedSpan s(log, "gather", k);
    std::vector<std::uint32_t> ids;
    padded.index.gather_in_cube(center, opt.cube_pad * opt.field_length, ids);
    cube.reserve(ids.size());
    for (const std::uint32_t id : ids) cube.push_back(padded.points[id]);
    std::sort(cube.begin(), cube.end(), lex_less);
  }
  t.gather_particles += static_cast<double>(cube.size());
  t.items += 1.0;
  if (cube.size() < opt.min_particles)
    return FieldGrid(opt.field, opt.field_resolution, opt.field_resolution);

  std::optional<Triangulation> tri;
  {
    const ScopedSpan s(log, "delaunay", k);
    tri.emplace(cube, TriangulationOptions{});
  }
  std::optional<DensityField> rho;
  {
    const ScopedSpan s(log, "density", k);
    rho.emplace(*tri, set.particle_mass);
  }
  std::optional<HullProjection> hull;
  {
    const ScopedSpan s(log, "hull", k);
    hull.emplace(*tri);
  }
  std::shared_ptr<const TetraGeomTable> geom;
  {
    const ScopedSpan s(log, "geom_table", k);
    geom = std::make_shared<const TetraGeomTable>(*tri);
  }
  t.geom_cells += static_cast<double>(geom->size());

  const FieldSpec spec =
      FieldSpec::centered(center, opt.field_length, opt.field_resolution);
  MarchingOptions mopt;
  mopt.use_simd = opt.use_simd;
  mopt.seed = item_seed(opt.seed, center);
  FieldGrid grid;
  double ray_mass = std::numeric_limits<double>::quiet_NaN();
  if (opt.field == FieldKind::kDensity) {
    grid = FieldGrid(
        march_one(log, k, *rho, *hull, mopt, geom, spec, t, &ray_mass));
  } else {
    DTFE_CHECK_MSG(opt.field == FieldKind::kVelocity,
                   "the replay covers the density and velocity fields");
    // Volume-weighted LOS velocity: march the unit field (path length) and
    // each velocity component, then take the per-pixel ratio.
    std::vector<DensityField> fields;
    {
      const ScopedSpan s(log, "density", k);
      const VelocityModel model(opt.seed, spec.length > 0.0 ? spec.length
                                                            : 1.0);
      std::vector<std::vector<double>> comp(
          3, std::vector<double>(tri->num_vertices()));
      for (std::size_t v = 0; v < tri->num_vertices(); ++v) {
        const Vec3 vel = model(tri->point(static_cast<VertexId>(v)));
        comp[0][v] = vel.x;
        comp[1][v] = vel.y;
        comp[2][v] = vel.z;
      }
      const std::vector<double> ones(tri->num_vertices(), 1.0);
      fields.push_back(DensityField::with_vertex_values(*tri, ones));
      for (const std::vector<double>& values : comp)
        fields.push_back(DensityField::with_vertex_values(*tri, values));
    }
    const Grid2D path =
        march_one(log, k, fields[0], *hull, mopt, geom, spec, t, nullptr);
    std::vector<Grid2D> planes;
    for (std::size_t c = 1; c < fields.size(); ++c)
      planes.push_back(los_ratio(
          march_one(log, k, fields[c], *hull, mopt, geom, spec, t, nullptr),
          path));
    grid = FieldGrid(opt.field, std::move(planes));
  }

  if (opt.audit.level != AuditLevel::kOff) {
    const ScopedSpan s(log, "audit", k);
    AuditOptions aopt = opt.audit;
    std::uint64_t aseed = mopt.seed;
    aopt.seed = detail::splitmix64(aseed);
    const AuditResult audit = audit_field_item(grid, spec, ray_mass, &*rho,
                                               &*hull, aopt, opt.seed);
    t.audit_violations += audit.ok() ? 0.0 : 1.0;
  }
  if (journal != nullptr) {
    const ScopedSpan s(log, "commit", k);
    journal->append(k, grid);
    t.commit_records += 1.0;
  }
  return grid;
}

}  // namespace

int run_pipeline_trace(const CliArgs& args) {
  const engine::EngineConfig cfg = engine::EngineConfig::from_cli(args);
  const PipelineOptions& opt = cfg.pipeline;
  const std::string trace_path = args.get("trace-out", std::string{});
  // The replay journals into its own directory, never the engine's.
  const std::string journal_dir = args.get("journal-dir", std::string{});
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::global();

  // ---- part 1: the serial layer replay, spans in memory --------------------
  // One thread: the replay's layer times add up to single-core work, the
  // base of trace.parallel_speedup. The engine sets its own team sizes.
  const int omp_threads = omp_get_max_threads();
  omp_set_num_threads(1);
  metrics.reset();
  metrics.set_enabled(true);  // the Delaunay counters come from the registry
  SpanLog log;
  ReplayTally tally;
  std::vector<engine::FieldRequest> requests;
  std::size_t n_groups = 0;
  double replay_batch_s = 0.0;
  {
    const ScopedSpan root(log, "replay");
    std::optional<ParticleSet> set;
    {
      const ScopedSpan s(log, "nbody.read");
      set.emplace(read_snapshot(cfg.snapshot));
    }
    std::vector<FofGroup> groups;
    {
      const ScopedSpan s(log, "nbody.fof");
      groups = find_fof_groups(*set);
    }
    n_groups = groups.size();
    requests = select_requests(groups, cfg.n_fields);
    std::optional<CheckpointWriter> journal;
    const double b0 = log.now();
    if (!journal_dir.empty()) {
      const ScopedSpan s(log, "commit");
      journal.emplace(journal_dir, 0);
    }
    std::optional<PaddedParticles> padded;
    {
      const ScopedSpan s(log, "gather");
      padded.emplace(*set, 0.5 * opt.cube_pad * opt.field_length,
                     opt.count_grid_cells);
    }
    for (std::size_t k = 0; k < requests.size(); ++k) {
      const FieldGrid g = replay_item(
          log, static_cast<int>(k), *set, *padded,
          wrap_periodic(requests[k].center, set->box_length), opt,
          journal ? &*journal : nullptr, tally);
      tally.field_sums.push_back(g.sum());
    }
    replay_batch_s = log.now() - b0;
    if (journal)
      tally.commit_bytes =
          static_cast<double>(std::filesystem::file_size(journal->path()));
  }
  const double replay_wall_s = log.now();
  const obs::MetricsSnapshot replay_counters = metrics.snapshot();

  // ---- part 2: run_batch with metrics on -----------------------------------
  omp_set_num_threads(omp_threads);
  metrics.reset();
  const double e0 = mono_s();
  engine::Engine eng(cfg);
  const std::vector<engine::FieldResult> fields = eng.run_batch(requests);
  const double batch_s = mono_s() - e0;
  const obs::MetricsSnapshot run_counters = metrics.snapshot();
  metrics.set_enabled(false);

  // The schedule layer alone: one create_communication_list call over this
  // batch's per-rank predictions, and the DES over its measured item costs.
  std::vector<RankWork> work;
  for (const engine::RankRun& run : eng.last_rank_runs())
    work.push_back({run.rank, run.result.predicted_local_time});
  const double c0 = mono_s();
  (void)create_communication_list(work, 0);
  const double comm_list_s = mono_s() - c0;
  const OwnerCosts oc =
      owner_costs(eng, cfg.ranks, read_snapshot_header(cfg.snapshot).box_length);
  const double d0 = mono_s();
  (void)simulate_work_sharing(oc.actual, oc.predicted);
  const double des_s = mono_s() - d0;

  // ---- gate: the replay is the same computation as the run ----------------
  const double run_crossings = run_counters.counter("dtfe.kernel.tetra_crossings");
  const double run_walk = run_counters.counter("dtfe.delaunay.walk_steps");
  const double replay_walk = replay_counters.counter("dtfe.delaunay.walk_steps");
  bool sums_equal = fields.size() == tally.field_sums.size();
  for (std::size_t i = 0; sums_equal && i < fields.size(); ++i)
    sums_equal = fields[i].completed && fields[i].grid.sum() == tally.field_sums[i];
  const RankSummary rs = summarize(eng);

  bool trace_written = true;
  if (!trace_path.empty()) trace_written = log.write_chrome_trace(trace_path);

  JsonObject c;
  c.num("nbody.fof_groups", static_cast<double>(n_groups));
  c.num("gather.items", tally.items);
  c.num("gather.particles", tally.gather_particles);
  c.num("delaunay.points_inserted",
        replay_counters.counter("dtfe.delaunay.points_inserted"));
  c.num("delaunay.walk_steps", replay_walk);
  c.num("delaunay.conflict_cells",
        replay_counters.counter("dtfe.delaunay.conflict_cells"));
  c.num("delaunay.cells_created",
        replay_counters.counter("dtfe.delaunay.cells_created"));
  c.num("geom_table.cells", tally.geom_cells);
  c.num("coef_table.builds", tally.coef_builds);
  c.num("march.crossings", tally.crossings);
  c.num("march.rays", tally.rays);
  c.num("march.perturb_restarts", tally.perturb_restarts);
  c.num("march.failed_cells", tally.failed_cells);
  c.num("audit.violations", tally.audit_violations);
  c.num("commit.records", tally.commit_records);
  c.num("commit.bytes", tally.commit_bytes);
  c.num("engine.partition_s", rs.partition_max);
  c.num("engine.model_s", rs.model_max);
  c.num("engine.busy_max_s", rs.busy_max);
  c.num("engine.busy_mean_s", rs.busy_mean);
  c.num("simmpi.messages", run_counters.counter("dtfe.simmpi.messages_sent"));
  c.num("simmpi.bytes", run_counters.counter("dtfe.simmpi.bytes_sent"));
  c.num("schedule.items_shipped",
        run_counters.counter("dtfe.pipeline.items_sent"));
  c.num("schedule.planned_sends",
        run_counters.counter("dtfe.schedule.planned_sends"));
  c.num("schedule.comm_list_call_s", comm_list_s);
  c.num("des.simulate_s", des_s);
  c.num("trace.overhead_s", log.overhead_s());

  JsonObject out;
  out.object("counters", c);
  out.num("replay_wall_s", replay_wall_s);
  out.num("replay_batch_s", replay_batch_s);
  out.num("batch_s", batch_s);
  out.num("run.tetra_crossings", run_crossings);
  out.num("run.walk_steps", run_walk);
  out.num("run.items_replayed",
          run_counters.counter("dtfe.pipeline.items_replayed"));
  out.boolean("gate_crossings", run_crossings == tally.crossings);
  out.boolean("gate_walk_steps", run_walk == replay_walk);
  out.boolean("gate_field_sums", sums_equal);
  out.boolean("trace_written", trace_written);
  out.integer("spans", static_cast<std::int64_t>(log.size()));
  out.print();
  return 0;
}

}  // namespace perfbench
