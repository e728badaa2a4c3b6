// Micro-benchmarks (google-benchmark) for the latency model and the
// Rebalance gradient descent, including the paper's §IV-D complexity claim:
// the variable step size needs far fewer iterations than unit steps, making
// Rebalance cheap even for huge maximum parallelism m.  The last group
// measures the simulator's per-event layers: the event queue and the
// random draws behind every simulated service time.
#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "core/rebalance.h"
#include "core/scale_reactively.h"
#include "model/latency_model.h"
#include "qos/manager.h"
#include "sim/event_queue.h"
#include "sim/task_logic.h"

namespace esp {
namespace {

// Linear pipeline with n identical-shape (but load-skewed) worker vertices.
struct ModelFixture {
  JobGraph graph;
  GlobalSummary summary;

  ModelFixture(int n, std::uint32_t p_max) {
    JobVertexId prev =
        graph.AddVertex({.name = "Src", .parallelism = 1, .max_parallelism = 1});
    for (int i = 0; i < n; ++i) {
      const JobVertexId v = graph.AddVertex({.name = "V" + std::to_string(i),
                                             .parallelism = 4,
                                             .min_parallelism = 1,
                                             .max_parallelism = p_max,
                                             .elastic = true});
      graph.Connect(prev, v);
      VertexSummary vs;
      vs.service_mean = 0.002 + 0.0005 * (i % 5);
      vs.service_cv = 0.8;
      vs.arrival_rate = 300.0 + 40.0 * (i % 7);
      vs.interarrival_mean = 1.0 / vs.arrival_rate;
      vs.interarrival_cv = 1.0;
      vs.measured_parallelism = 4;
      summary.vertices[Value(v)] = vs;
      prev = v;
    }
    const JobVertexId sink =
        graph.AddVertex({.name = "Sink", .parallelism = 1, .max_parallelism = 1});
    graph.Connect(prev, sink);
  }

  JobSequence Sequence() const {
    std::vector<JobEdgeId> edges;
    for (std::uint32_t e = 0; e < graph.edge_count(); ++e) edges.push_back(JobEdgeId{e});
    return JobSequence::FromEdgeChain(graph, edges);
  }
};

void BM_KingmanWait(benchmark::State& state) {
  double rho = 0.1;
  for (auto _ : state) {
    rho = rho >= 0.95 ? 0.1 : rho + 0.01;
    benchmark::DoNotOptimize(KingmanWait(rho, 0.002, 1.1, 0.7));
  }
}
BENCHMARK(BM_KingmanWait);

void BM_LatencyModelBuild(benchmark::State& state) {
  const ModelFixture fixture(static_cast<int>(state.range(0)), 512);
  const JobSequence seq = fixture.Sequence();
  for (auto _ : state) {
    benchmark::DoNotOptimize(LatencyModel::Build(fixture.graph, fixture.summary, seq, {}));
  }
}
BENCHMARK(BM_LatencyModelBuild)->Arg(2)->Arg(8)->Arg(32);

void BM_RebalanceVariableStep(benchmark::State& state) {
  const ModelFixture fixture(static_cast<int>(state.range(0)),
                             static_cast<std::uint32_t>(state.range(1)));
  const LatencyModel model =
      LatencyModel::Build(fixture.graph, fixture.summary, fixture.Sequence(), {});
  std::uint32_t iterations = 0;
  for (auto _ : state) {
    const RebalanceResult res = Rebalance(model, 0.0005);
    iterations = res.iterations;
    benchmark::DoNotOptimize(res);
  }
  state.counters["iterations"] = iterations;
}
BENCHMARK(BM_RebalanceVariableStep)
    ->Args({2, 512})
    ->Args({8, 512})
    ->Args({8, 4096})
    ->Args({32, 4096});

void BM_RebalanceUnitStep(benchmark::State& state) {
  const ModelFixture fixture(static_cast<int>(state.range(0)),
                             static_cast<std::uint32_t>(state.range(1)));
  const LatencyModel model =
      LatencyModel::Build(fixture.graph, fixture.summary, fixture.Sequence(), {});
  std::uint32_t iterations = 0;
  for (auto _ : state) {
    const RebalanceResult res = RebalanceUnitStep(model, 0.0005);
    iterations = res.iterations;
    benchmark::DoNotOptimize(res);
  }
  state.counters["iterations"] = iterations;
}
BENCHMARK(BM_RebalanceUnitStep)->Args({2, 512})->Args({8, 512})->Args({8, 4096});

void BM_ScaleReactively(benchmark::State& state) {
  ModelFixture fixture(static_cast<int>(state.range(0)), 512);
  const LatencyConstraint constraint{fixture.Sequence(), FromMillis(20), FromSeconds(10),
                                     "bench"};
  const std::vector<LatencyConstraint> constraints{constraint};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ScaleReactively(fixture.graph, constraints, fixture.summary, {}));
  }
}
BENCHMARK(BM_ScaleReactively)->Arg(2)->Arg(8)->Arg(32);

void BM_MergeSummaries(benchmark::State& state) {
  // One partial summary per manager, each covering `vertices` vertices.
  const int managers = 8;
  const int vertices = static_cast<int>(state.range(0));
  std::vector<PartialSummary> partials(managers);
  for (int m = 0; m < managers; ++m) {
    for (int v = 0; v < vertices; ++v) {
      VertexSummary vs;
      vs.service_mean = 0.002;
      vs.arrival_rate = 100 + v;
      partials[m].vertices[v] = {vs, 4};
      partials[m].edges[v] = {EdgeSummary{0.01, 0.002}, 16};
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(MergeSummaries(partials));
  }
}
BENCHMARK(BM_MergeSummaries)->Arg(8)->Arg(64);

void BM_PartialSummary(benchmark::State& state) {
  QosManager manager(5);
  const int tasks = static_cast<int>(state.range(0));
  QosReport report;
  report.time = FromSeconds(1);
  for (int t = 0; t < tasks; ++t) {
    TaskMeasurement m;
    m.service_mean = 0.002;
    m.interarrival_mean = 0.01;
    m.items = 100;
    report.tasks.emplace_back(TaskId{JobVertexId{static_cast<std::uint32_t>(t % 8)},
                                     static_cast<std::uint32_t>(t / 8)},
                              m);
  }
  for (int i = 0; i < 5; ++i) manager.Ingest(report);
  for (auto _ : state) {
    benchmark::DoNotOptimize(manager.MakePartialSummary(FromSeconds(2)));
  }
}
BENCHMARK(BM_PartialSummary)->Arg(64)->Arg(512);

// ------------------------------------------------------------- simulator

// Scheduling delays in the proportions the elastic PrimeTester simulation
// (espbench sim_elastic) produces them, measured per event type:
//   15 % source emissions: a quarter due at once (catch-up), the rest
//        exponential with a 4 ms mean;
//   44 % service completions: sink-sized (32-128 us), 0.5-2 ms, 2-8 ms;
//   20 % flush deadlines, 4.2-8.4 ms;  20 % batch arrivals, 262-524 us;
//   a few ticks and task start-ups 1-10 s ahead.
std::vector<SimDuration> SimulatorDelayMix() {
  Rng rng(15);
  std::vector<SimDuration> delays(1 << 16);
  for (SimDuration& d : delays) {
    const double kind = rng.NextDouble();
    if (kind < 0.15) {
      d = rng.Bernoulli(0.25) ? 0 : FromSeconds(rng.Exponential(250.0));
    } else if (kind < 0.59) {
      const double size = rng.NextDouble();
      d = size < 0.3    ? FromMicros(rng.Uniform(32, 128))
          : size < 0.65 ? FromMicros(rng.Uniform(500, 2000))
                        : FromMicros(rng.Uniform(2000, 8000));
    } else if (kind < 0.79) {
      d = FromMicros(rng.Uniform(4200, 8400));
    } else if (kind < 0.999) {
      d = FromMicros(rng.Uniform(262, 524));
    } else {
      d = FromSeconds(rng.Uniform(1, 10));
    }
  }
  return delays;
}

// One Pop plus one Schedule per iteration at a constant number of pending
// events (the simulator holds ~100-300 at 8-130 tasks).
void BM_EventQueue(benchmark::State& state) {
  const std::vector<SimDuration> delays = SimulatorDelayMix();
  const std::size_t mask = delays.size() - 1;
  sim::EventQueue queue;
  std::size_t next = 0;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    queue.Schedule(delays[next++ & mask], sim::EventType::kServiceDone,
                   static_cast<std::uint32_t>(i));
  }
  for (auto _ : state) {
    const sim::Event e = queue.Pop();
    benchmark::DoNotOptimize(e);
    queue.Schedule(queue.Now() + delays[next++ & mask], sim::EventType::kServiceDone, e.a);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueue)->Arg(64)->Arg(256)->Arg(1024);

// A log-normal draw from (mean, cv), deriving the underlying normal's
// parameters on every call.
void BM_RngLogNormal(benchmark::State& state) {
  Rng rng(15);
  const double mean = 1e-3 * static_cast<double>(state.range(0));
  for (auto _ : state) {
    const double draw = rng.LogNormalMeanCv(mean, 0.3);
    benchmark::DoNotOptimize(draw);
  }
}
BENCHMARK(BM_RngLogNormal)->Arg(3);

// The simulated service-time draw of a sink-like StatelessLogic (no
// outputs): the same log-normal variate, as the simulator makes it.
void BM_ServiceTimeDraw(benchmark::State& state) {
  sim::StatelessLogic::Params params;
  params.service_mean = 0.003;
  params.service_cv = 0.3;
  sim::StatelessLogic logic(params);
  Rng rng(15);
  const sim::SimItem item;
  std::vector<sim::EmitRequest> out;
  for (auto _ : state) {
    const double draw = logic.OnItem(0, item, rng, out);
    benchmark::DoNotOptimize(draw);
  }
}
BENCHMARK(BM_ServiceTimeDraw);

}  // namespace
}  // namespace esp

BENCHMARK_MAIN();
