// The large-scale scheduling workload: simulate_work_sharing over a cost
// file that the `schedule-input` mode generated from the benchmark seed.
//
// Cost file (little-endian): "PBCOST01", u64 items, u64 ranks, f64 box,
// then per item f64 x, y, z, predicted, actual.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "framework/decomposition.h"
#include "framework/des.h"
#include "framework/schedule.h"
#include "framework/workload_model.h"
#include "harness.h"
#include "nbody/fof.h"
#include "nbody/generators.h"
#include "obs/metrics.h"
#include "spans.h"
#include "util/error.h"
#include "util/grid_index.h"
#include "util/rng.h"

namespace perfbench {

using namespace dtfe;

namespace {

/// Message latency of fig13_large_scale's large-scale study.
constexpr double kMessageLatency = 2e-4;
/// Set-ups per repetition; setup_s is their median. One set-up takes ~10 ms,
/// short enough for timer and allocator noise to matter on its own.
constexpr int kSetups = 9;

struct RankCosts {
  std::vector<std::vector<double>> actual, predicted;
  std::size_t items = 0;
};

/// Read the cost file and assign every item to the rank that owns its
/// position under the program's spatial decomposition.
RankCosts load_costs(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  DTFE_CHECK_MSG(in.good(), "cannot open cost file " << path);
  char magic[8] = {};
  std::uint64_t items = 0, ranks = 0;
  double box = 0.0;
  in.read(magic, sizeof magic);
  in.read(reinterpret_cast<char*>(&items), sizeof items);
  in.read(reinterpret_cast<char*>(&ranks), sizeof ranks);
  in.read(reinterpret_cast<char*>(&box), sizeof box);
  DTFE_CHECK_MSG(in.good() && std::memcmp(magic, "PBCOST01", 8) == 0,
                 "bad cost file header in " << path);
  DTFE_CHECK_MSG(ranks >= 1 && ranks <= (1u << 20) && items <= (1u << 26) &&
                     std::isfinite(box) && box > 0.0,
                 "cost file " << path << " is out of range");
  std::vector<double> rows(static_cast<std::size_t>(items) * 5);
  in.read(reinterpret_cast<char*>(rows.data()),
          static_cast<std::streamsize>(rows.size() * sizeof(double)));
  DTFE_CHECK_MSG(in.gcount() ==
                     static_cast<std::streamsize>(rows.size() * sizeof(double)),
                 "cost file " << path << " is truncated");

  const Decomposition decomp(static_cast<int>(ranks), box);
  RankCosts out;
  out.items = static_cast<std::size_t>(items);
  out.actual.resize(static_cast<std::size_t>(ranks));
  out.predicted.resize(static_cast<std::size_t>(ranks));
  for (std::size_t i = 0; i < out.items; ++i) {
    const double* r = &rows[5 * i];
    const auto owner =
        static_cast<std::size_t>(decomp.owner_of({r[0], r[1], r[2]}));
    out.predicted[owner].push_back(r[3]);
    out.actual[owner].push_back(r[4]);
  }
  return out;
}

/// Invariants every DES outcome must satisfy; false means a wrong result.
bool des_consistent(const RankCosts& costs, const DesResult& des) {
  double total = 0.0, largest_rank = 0.0;
  for (const std::vector<double>& rank : costs.actual) {
    double sum = 0.0;
    for (const double c : rank) sum += c;
    total += sum;
    largest_rank = std::max(largest_rank, sum);
  }
  const double P = static_cast<double>(costs.actual.size());
  const double eps = 1e-9 * std::max(total, 1.0);
  bool ok = std::isfinite(des.makespan_balanced) &&
            des.finish_times.size() == costs.actual.size();
  ok = ok && std::abs(des.average_work * P - total) <= eps;
  ok = ok && std::abs(des.makespan_unbalanced - largest_rank) <= eps;
  // No schedule finishes before the perfectly levelled time.
  ok = ok && des.makespan_balanced >= des.average_work - eps;
  return ok;
}

}  // namespace

int run_schedule_input(const CliArgs& args) {
  // fig13_large_scale's generator, with the benchmark seed in place of its
  // fixed seeds: a 400k-particle halo-model box of side 256, FOF centers
  // (padded with members of the largest groups) plus satellite requests
  // scattered N(0, 16) around them, per-item particle counts in cubes of
  // side 6, costs from the fitted workload model's shape. Actual costs
  // equal predicted ones, as in fig13 at every rank count below 16384.
  const auto seed = static_cast<std::uint64_t>(args.get("seed", 1L));
  const auto items = static_cast<std::size_t>(args.get("items", 120000L));
  const auto ranks = static_cast<std::uint64_t>(args.get("ranks", 8192L));
  const std::string out_path = args.get("out", std::string{});
  constexpr double kBox = 256.0;
  constexpr double kCubeSide = 6.0;
  constexpr std::size_t kMaxFofCenters = 4096;

  HaloModelOptions gen;
  gen.n_particles = 400000;
  gen.box_length = kBox;
  gen.n_halos = 2048;
  gen.mass_min_fraction = 0.05;
  gen.radius_fraction = 0.02;
  gen.background_fraction = 0.2;
  gen.seed = seed;
  const ParticleSet set = generate_halo_model(gen);

  FofOptions fof;
  fof.linking_parameter = 0.2;
  fof.min_group_size = 16;
  const std::vector<FofGroup> groups = find_fof_groups(set, fof);
  DTFE_CHECK_MSG(!groups.empty(), "no FOF groups in the schedule box");
  // bench::fof_centers: the FOF centers, padded to kMaxFofCenters with
  // random members of the 8 largest groups.
  const std::size_t n_seeds = std::min(items, kMaxFofCenters);
  std::vector<Vec3> centers;
  for (std::size_t i = 0; i < groups.size() && centers.size() < n_seeds; ++i)
    centers.push_back(groups[i].center);
  Rng pad = Rng(seed).split(1234);
  while (centers.size() < n_seeds) {
    const FofGroup& g =
        groups[pad.uniform_index(std::min<std::size_t>(8, groups.size()))];
    centers.push_back(set.positions[g.members[pad.uniform_index(g.size())]]);
  }
  Rng rng = Rng(seed).split(17);
  while (centers.size() < items) {
    const Vec3 base = centers[rng.uniform_index(n_seeds)];
    centers.push_back(wrap_periodic(
        base + Vec3{rng.normal(), rng.normal(), rng.normal()} * 16.0, kBox));
  }

  const GridIndex index(set.positions, {0, 0, 0}, kBox, 128,
                        /*periodic=*/true);
  WorkloadModel model;
  model.c_tri = 2.5e-7;
  model.interp.alpha = 1.0e-6;
  model.interp.beta = 1.15;

  std::ofstream out(out_path, std::ios::binary);
  DTFE_CHECK_MSG(out.good(), "cannot write cost file " << out_path);
  const std::uint64_t n_items = items;
  out.write("PBCOST01", 8);
  out.write(reinterpret_cast<const char*>(&n_items), sizeof n_items);
  out.write(reinterpret_cast<const char*>(&ranks), sizeof ranks);
  out.write(reinterpret_cast<const char*>(&kBox), sizeof kBox);
  for (const Vec3& c : centers) {
    const auto n = static_cast<double>(index.count_in_cube(c, kCubeSide));
    const double cost = model.predict(std::clamp(n, 2000.0, 25000.0));
    const double row[5] = {c.x, c.y, c.z, cost, cost};
    out.write(reinterpret_cast<const char*>(row), sizeof row);
  }
  DTFE_CHECK_MSG(out.good(), "cannot write cost file " << out_path);
  JsonObject res;
  res.integer("particles", static_cast<std::int64_t>(set.size()));
  res.integer("fof_groups", static_cast<std::int64_t>(groups.size()));
  res.integer("items", static_cast<std::int64_t>(n_items));
  res.print();
  return 0;
}

int run_schedule(const CliArgs& args, bool traced) {
  const std::string costs_path = args.get("costs", std::string{});
  const std::string result_path = args.get("result", std::string{});
  DesOptions dopt;
  dopt.message_latency = kMessageLatency;

  if (!traced) {
    // setup_s is the median of kSetups loads, the last of which starts the
    // timed load -> DES -> result write sequence that wall_s measures.
    std::vector<double> setups;
    for (int i = 0; i + 1 < kSetups; ++i) {
      const double s0 = mono_s();
      (void)load_costs(costs_path);
      setups.push_back(mono_s() - s0);
    }
    const double t0 = mono_s();
    const RankCosts costs = load_costs(costs_path);
    const double t1 = mono_s();
    const DesResult des = simulate_work_sharing(costs.actual, costs.predicted,
                                                dopt);
    const double t2 = mono_s();
    JsonObject res;
    res.num("makespan_unbalanced", des.makespan_unbalanced);
    res.num("makespan_balanced", des.makespan_balanced);
    res.num("average_work", des.average_work);
    res.num("shipped_work", des.shipped_work);
    {
      std::ofstream f(result_path);
      f << res.dump() << "\n";
      DTFE_CHECK_MSG(f.good(), "cannot write " << result_path);
    }
    const double t3 = mono_s();
    setups.push_back(t1 - t0);
    std::sort(setups.begin(), setups.end());

    JsonObject out;
    out.num("setup_s", setups[setups.size() / 2]);
    out.num("batch_s", t2 - t1);
    out.num("wall_s", t3 - t0);
    out.num("peak_rss_mb", peak_rss_mb());
    out.integer("items", static_cast<std::int64_t>(costs.items));
    out.integer("ranks", static_cast<std::int64_t>(costs.actual.size()));
    out.boolean("consistent", des_consistent(costs, des));
    out.num("balance_gain", des.makespan_unbalanced / des.makespan_balanced);
    out.num("makespan_unbalanced", des.makespan_unbalanced);
    out.num("makespan_balanced", des.makespan_balanced);
    out.num("shipped_work", des.shipped_work);
    out.print();
    return 0;
  }

  obs::MetricsRegistry& metrics = obs::MetricsRegistry::global();
  metrics.reset();
  metrics.set_enabled(true);
  SpanLog log;
  double comm_list_s = 0.0, des_s = 0.0;
  bool consistent = false;
  {
    const ScopedSpan root(log, "replay");
    const RankCosts costs = load_costs(costs_path);
    std::vector<RankWork> work;
    for (std::size_t r = 0; r < costs.predicted.size(); ++r) {
      double t = 0.0;
      for (const double c : costs.predicted[r]) t += c;
      work.push_back({static_cast<int>(r), t});
    }
    {
      const ScopedSpan s(log, "schedule.comm_list");
      const double c0 = log.now();
      (void)create_communication_list(work, 0);
      comm_list_s = log.now() - c0;
    }
    metrics.reset();  // count the DES's own schedule only
    DesResult des;
    {
      const ScopedSpan s(log, "des.simulate");
      const double d0 = log.now();
      des = simulate_work_sharing(costs.actual, costs.predicted, dopt);
      des_s = log.now() - d0;
    }
    consistent = des_consistent(costs, des);
  }
  const double replay_wall_s = log.now();
  const obs::MetricsSnapshot counters = metrics.snapshot();
  metrics.set_enabled(false);
  const std::string trace_path = args.get("trace-out", std::string{});
  const bool trace_written =
      trace_path.empty() || log.write_chrome_trace(trace_path);

  JsonObject c;
  c.num("schedule.items_shipped",
        counters.counter("dtfe.schedule.items_packed"));
  c.num("schedule.planned_sends",
        counters.counter("dtfe.schedule.planned_sends"));
  c.num("schedule.comm_list_call_s", comm_list_s);
  c.num("des.simulate_s", des_s);
  c.num("trace.overhead_s", log.overhead_s());
  JsonObject out;
  out.object("counters", c);
  out.num("replay_wall_s", replay_wall_s);
  out.boolean("consistent", consistent);
  out.boolean("trace_written", trace_written);
  out.integer("spans", static_cast<std::int64_t>(log.size()));
  out.print();
  return 0;
}

}  // namespace perfbench
