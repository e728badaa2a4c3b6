// Workload sim_elastic: the deterministic ClusterSimulation of elastic
// PrimeTester at the 1/4 scale bench/fig6_primetester_elastic runs by
// default (8-source-equivalent rates, PrimeTester p in [1, 130], 20 ms
// constraint, 30 s steps; 8 to 130 tasks under the control plane).  Only the
// elastic run is measured; the engine's threaded runtime is not used.
//
// The benchmark reads the simulator from outside: a decorator on the Sink
// logic records each item's simulated source-to-sink latency, and after the
// run the public qos/model/core/graph calls are replayed on the final
// summary and graph.
#include <algorithm>
#include <cmath>
#include <functional>

#include "bench.h"
#include "common/histogram.h"
#include "core/batching.h"
#include "core/elastic_scaler.h"
#include "graph/runtime_graph.h"
#include "qos/manager.h"
#include "qos/summary.h"
#include "sim/task_logic.h"
#include "trace.h"
#include "workloads/prime_tester.h"

namespace espbench {

using esp::FromMillis;
using esp::FromSeconds;
using esp::LogHistogram;
using esp::sim::RunResult;
using esp::sim::SimItem;
using esp::sim::StatelessLogic;
using esp::sim::TaskLogic;

namespace {

// bench/fig6_primetester_elastic.cpp ElasticParams(full=false).
esp::workloads::PrimeTesterParams ElasticParams() {
  esp::workloads::PrimeTesterParams p;
  const double scale = 0.25;
  p.sources = 32;
  p.sinks = 32;
  p.prime_testers = static_cast<std::uint32_t>(64 * scale);
  p.pt_min_parallelism = 1;
  p.pt_max_parallelism = static_cast<std::uint32_t>(520 * scale);
  p.elastic = true;
  p.warmup_rate = 10'000 * scale;
  p.rate_increment = 10'000 * scale;
  p.increments = 6;
  p.step_duration = FromSeconds(30);
  p.constraint_bound = FromMillis(20);
  return p;
}

esp::sim::SimConfig ElasticConfig(std::uint64_t seed) {
  esp::sim::SimConfig config;
  config.shipping = esp::ShippingStrategy::kAdaptive;
  config.scaler.enabled = true;
  config.workers = 40;
  config.seed = seed;
  return config;
}

struct SinkTap {
  LogHistogram latency_ns{1.0, 1.02};
  std::uint64_t items = 0;
  bool timed = false;  // traced run: time every OnItem call
};

// Wraps the sink logic BuildPrimeTesterSim installs (same parameters, so
// the task's random stream and hence the whole run are unchanged) and taps
// each consumed item's simulated latency.
class TappedSink final : public TaskLogic {
 public:
  explicit TappedSink(SinkTap* tap) : tap_(tap), inner_(Params()) {}

  double OnItem(esp::SimTime now, const SimItem& item, esp::Rng& rng,
                std::vector<esp::sim::EmitRequest>& out) override {
    ++tap_->items;
    tap_->latency_ns.Add(static_cast<double>(now - item.source_emit));
    if (!tap_->timed) return inner_.OnItem(now, item, rng, out);
    SpanScope span(0, Kind::kOnRecord, kNoTag);
    return inner_.OnItem(now, item, rng, out);
  }

 private:
  static StatelessLogic::Params Params() {
    StatelessLogic::Params p;  // = the Sink logic of workloads/prime_tester.cpp
    p.service_mean = 0.00005;
    p.service_cv = 0.2;
    return p;
  }
  SinkTap* tap_;
  StatelessLogic inner_;
};

struct SimRun {
  RunResult result;
  SinkTap tap;
  double wall_s = 0;
  double cpu_s = 0;
  double simulated_s = 0;
  double steal_share = 0;  // host CPU stolen by the hypervisor during Run
  esp::GlobalSummary last_summary;
  std::unique_ptr<esp::JobGraph> graph;
};

// Set-up: BuildPrimeTesterSim plus the first simulated millisecond, which
// is where the simulator creates its tasks, channels and first events.  One
// sample averages 20 set-ups (a single one takes tens of microseconds).
double SetupSeconds(std::uint64_t seed) {
  constexpr int kPerSample = 20;
  const std::int64_t t0 = NowNs();
  for (int i = 0; i < kPerSample; ++i) {
    esp::workloads::PrimeTesterSim sim =
        esp::workloads::BuildPrimeTesterSim(ElasticParams(), ElasticConfig(seed));
    sim.sim->Run(FromMillis(1));
  }
  return static_cast<double>(NowNs() - t0) * 1e-9 / kPerSample;
}

void RunSim(std::uint64_t seed, bool timed, SimRun& run) {
  esp::workloads::PrimeTesterSim sim =
      esp::workloads::BuildPrimeTesterSim(ElasticParams(), ElasticConfig(seed));
  run.tap.timed = timed;
  SinkTap* tap = &run.tap;
  sim.sim->SetLogic("Sink", [tap](std::uint32_t, esp::Rng) {
    return std::make_unique<TappedSink>(tap);
  });
  const double cpu0 = ProcessCpuSeconds();
  const HostCpuTimes host0 = ReadHostCpuTimes();
  const std::int64_t t0 = NowNs();
  run.result = sim.sim->Run(sim.schedule_length);
  run.wall_s = static_cast<double>(NowNs() - t0) * 1e-9;
  run.cpu_s = ProcessCpuSeconds() - cpu0;
  run.steal_share = StealShare(host0, ReadHostCpuTimes());
  run.simulated_s = esp::ToSeconds(sim.schedule_length);
  run.last_summary = sim.sim->last_summary();
  run.graph = std::make_unique<esp::JobGraph>(sim.sim->graph());
}

std::uint32_t PrimeTesterParallelism(const esp::sim::AdjustmentRecord& rec) {
  for (const auto& ps : rec.parallelism) {
    if (ps.vertex == "PrimeTester") return ps.parallelism;
  }
  return 0;
}

template <typename Fn>
double UsPerCall(Fn&& fn) {
  std::uint64_t iterations = 1;
  for (;;) {  // calibrate to >= 10 ms per block
    const std::int64_t t0 = NowNs();
    for (std::uint64_t i = 0; i < iterations; ++i) fn();
    if (NowNs() - t0 > 10'000'000 || iterations > (1ULL << 24)) break;
    iterations *= 2;
  }
  std::vector<double> samples;
  for (int block = 0; block < 5; ++block) {
    const std::int64_t t0 = NowNs();
    for (std::uint64_t i = 0; i < iterations; ++i) fn();
    samples.push_back(static_cast<double>(NowNs() - t0) * 1e-3 / static_cast<double>(iterations));
  }
  return Median(samples);
}

volatile double g_sink;

// The seed of trajectory k of a run: one run simulates several seeded
// trajectories (scaler decisions, and so latency tails and work per item,
// differ from seed to seed) and pools them.
std::uint64_t TrajectorySeed(std::uint64_t seed, int k) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + static_cast<std::uint64_t>(k) + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

int RunSimElastic(const Options& options, Report& report) {
  // One trajectory per 7.5 s of --seconds (at least one), with three set-up
  // samples before each, so host noise moves a few samples, not the median.
  // A trajectory during which the hypervisor stole more than 2 % of the
  // host's CPU is simulated again (same seed, so only its timing changes),
  // while the run is within 1.5 x --seconds.  A traced run simulates the
  // first trajectory untraced and then traced.
  constexpr double kMaxStealShare = 0.02;
  const int trajectories =
      options.trace ? 1 : std::max(1, static_cast<int>(options.seconds / 7.5));
  const std::int64_t give_up_ns = NowNs() + static_cast<std::int64_t>(1.5e9 * options.seconds);
  std::vector<double> setup_s;
  std::vector<std::unique_ptr<SimRun>> runs;
  LogHistogram latency_ns{1.0, 1.02};
  double delivered = 0, wall_s = 0, cpu_s = 0, simulated_s = 0, held = 0, task_s = 0;
  std::vector<double> trajectory_cpu_us, steal;
  for (int k = 0; k < trajectories; ++k) {
    for (int i = 0; i < 3; ++i) setup_s.push_back(SetupSeconds(options.seed));
    runs.push_back(std::make_unique<SimRun>());
    RunSim(TrajectorySeed(options.seed, k), false, *runs.back());
    steal.push_back(runs.back()->steal_share);
    // Rerun only while the trajectories still to come fit before giving up.
    while (runs.back()->steal_share > kMaxStealShare &&
           NowNs() + static_cast<std::int64_t>(runs.back()->wall_s * 1e9) * (trajectories - k) <
               give_up_ns) {
      runs.back() = std::make_unique<SimRun>();
      RunSim(TrajectorySeed(options.seed, k), false, *runs.back());
      steal.push_back(runs.back()->steal_share);
    }
    SimRun& run = *runs.back();
    const RunResult& r = run.result;
    const std::string label = "trajectory " + std::to_string(k);
    report.attempted += r.total_items_emitted;
    report.failed += r.items_lost;
    report.Check(r.total_items_delivered <= r.total_items_emitted,
                 label + ": delivered <= emitted (" + std::to_string(r.total_items_delivered) +
                     " <= " + std::to_string(r.total_items_emitted) + ")");
    report.Check(r.items_lost == 0, label + ": items_lost == 0");
    report.Check(run.tap.items == r.total_items_delivered,
                 label + ": sink tap saw every delivered item (" + std::to_string(run.tap.items) +
                     ")");
    report.Check(!r.adjustments.empty(), label + ": the run made adjustment rounds");
    latency_ns.Merge(run.tap.latency_ns);
    trajectory_cpu_us.push_back(run.cpu_s * 1e6 /
                                static_cast<double>(std::max<std::uint64_t>(1, r.total_items_delivered)));
    delivered += static_cast<double>(r.total_items_delivered);
    wall_s += run.wall_s;
    cpu_s += run.cpu_s;
    simulated_s += run.simulated_s;
    held += r.FulfillmentFraction({esp::ToSeconds(ElasticParams().constraint_bound)})[0];
    const auto pt_hours = r.task_hours_by_vertex.find("PrimeTester");
    task_s += pt_hours == r.task_hours_by_vertex.end() ? 0 : pt_hours->second * 3600;
  }
  held /= trajectories;
  task_s /= trajectories;
  const double rps = delivered / wall_s;
  const double speedup = simulated_s / wall_s;
  report.Meta("latency_samples", static_cast<double>(latency_ns.count()));
  report.Meta("latency_p99_ms", latency_ns.Quantile(0.99) * 1e-6);
  report.Meta("setup_probe_s", setup_s);
  report.Meta("trajectories", static_cast<double>(trajectories));
  report.Meta("trajectory_cpu_us_per_rec", trajectory_cpu_us);
  report.Meta("trajectory_host_steal_share_all", steal);
  report.Meta("simulated_s", simulated_s);

  if (!options.trace) {
    report.Set("records_per_s", rps, "rec/s");
    report.Set("latency_p50_ms", latency_ns.Quantile(0.50) * 1e-6, "ms");
    report.Set("latency_p95_ms", latency_ns.Quantile(0.95) * 1e-6, "ms");
    report.Set("cpu_us_per_rec", cpu_s * 1e6 / delivered, "us");
    report.Set("setup_s", Median(setup_s), "s");
    report.Set("peak_rss_mb", PeakRssMiB(), "MiB");
    report.Meta("constraint_held_frac", held);
    report.Meta("task_s", task_s);
    report.Meta("sim_speedup", speedup);
    return 0;
  }

  const SimRun& first = *runs.front();
  const RunResult& r = first.result;
  Tracer::Reset(1);
  SimRun traced;
  RunSim(TrajectorySeed(options.seed, 0), true, traced);
  report.Check(traced.result.total_items_delivered == r.total_items_delivered &&
                   traced.result.total_items_emitted == r.total_items_emitted &&
                   traced.result.task_hours == r.task_hours &&
                   traced.tap.latency_ns.Quantile(0.99) == first.tap.latency_ns.Quantile(0.99),
               "the traced run reproduces the untraced run bit for bit (same seed)");
  const LayerStats sink_calls = Tracer::Merged(0, Kind::kOnRecord);
  report.Meta("sink_onitem_ns_mean", sink_calls.count ? static_cast<double>(sink_calls.total_ns) /
                                                            static_cast<double>(sink_calls.count)
                                                      : 0.0);

  report.Set("sim.speedup", speedup, "s/s");
  report.Set("sim.items_per_wall_s", rps, "rec/s");
  report.Set("core.constraint_held_frac", held, "1");
  report.Set("core.task_s", task_s, "s");
  std::uint32_t rescales = 0, ups = 0, downs = 0, peak = 0, prev = ElasticParams().prime_testers;
  double react_s = 0;
  const esp::SimTime step_up = ElasticParams().step_duration;  // Warm-Up ends
  std::uint32_t p_at_step = 0;
  for (const auto& rec : r.adjustments) {
    const std::uint32_t p = PrimeTesterParallelism(rec);
    peak = std::max(peak, p);
    if (p != prev) {
      ++rescales;
      (p > prev ? ups : downs) += 1;
    }
    if (rec.time <= step_up) p_at_step = p;
    if (react_s == 0 && rec.time > step_up && p > p_at_step && p_at_step > 0) {
      react_s = esp::ToSeconds(rec.time - step_up);
    }
    prev = p;
  }
  report.Set("core.rescales", rescales, "count");
  report.Set("core.scale_ups", ups, "count");
  report.Set("core.scale_downs", downs, "count");
  report.Set("core.peak_parallelism", peak, "count");
  report.Set("core.react_s", react_s, "s");
  std::vector<double> ratio, err;
  for (const auto& rec : r.adjustments) {
    if (rec.estimated_latency.empty() || rec.measured_latency.empty()) continue;
    const double est = rec.estimated_latency[0];
    const double meas = rec.measured_latency[0];
    if (est <= 0 || meas <= 0) continue;
    ratio.push_back(est / meas);
    err.push_back(std::fabs(est / meas - 1.0));
  }
  report.Set("model.est_bias", std::fabs(Median(ratio) - 1.0), "1");
  report.Meta("model_est_ratio_p50", Median(ratio));
  report.Set("model.est_err_p50", Median(err), "1");

  // Replayed public calls on the final summary and graph.
  const esp::JobGraph& graph = *first.graph;
  const esp::GlobalSummary& summary = first.last_summary;
  const std::vector<esp::JobEdgeId> edges = graph.EdgeIds();
  const std::vector<esp::LatencyConstraint> constraints = {
      {esp::JobSequence::FromEdgeChain(graph, edges), ElasticParams().constraint_bound,
       ElasticParams().constraint_window, "source-to-sink"}};
  std::vector<esp::PartialSummary> partials(ElasticConfig(options.seed).qos_manager_count);
  for (auto& partial : partials) {
    partial.time = summary.time;
    for (const auto& [v, s] : summary.vertices) partial.vertices[v] = {s, 1};
    for (const auto& [e, s] : summary.edges) partial.edges[e] = {s, 1};
  }
  report.Set("qos.merge_us", UsPerCall([&] {
               g_sink = g_sink + static_cast<double>(esp::MergeSummaries(partials).vertices.size());
             }),
             "us");
  report.Set("model.estimate_us", UsPerCall([&] {
               double est = 0;
               esp::EstimateSequenceLatency(summary, constraints[0].sequence, &est);
               g_sink = g_sink + est;
             }),
             "us");
  const esp::ElasticScalerOptions scaler_options = ElasticConfig(options.seed).scaler;
  report.Set("core.adjust_us", UsPerCall([&] {
               esp::ElasticScaler scaler(scaler_options);
               g_sink = g_sink + static_cast<double>(scaler.Adjust(graph, constraints, summary).size());
             }),
             "us");
  report.Set("core.deadlines_us", UsPerCall([&] {
               g_sink = g_sink +
                        static_cast<double>(esp::ComputeFlushDeadlines(graph, constraints, summary).size());
             }),
             "us");
  report.Set("graph.expand_us", UsPerCall([&] {
               g_sink = g_sink + static_cast<double>(esp::RuntimeGraph::Expand(graph).task_count());
             }),
             "us");
  report.Set("bench.trace_overhead_frac", traced.wall_s / first.wall_s - 1.0, "1");
  return 0;
}

}  // namespace espbench
