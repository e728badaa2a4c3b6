// Integration tests for the discrete-event cluster simulator: item flow,
// queueing, backpressure, batching economics, QoS plumbing and elastic
// scaling end-to-end.
#include <cmath>

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <queue>
#include <sstream>
#include <utility>
#include <vector>

#include "sim/cluster.h"
#include "sim/event_queue.h"
#include "model/latency_model.h"
#include "sim/metrics_io.h"
#include "sim/rate_schedule.h"

namespace esp::sim {
namespace {

// ------------------------------------------------------------- event queue

TEST(EventQueue, OrdersByTimeThenInsertion) {
  EventQueue q;
  q.Schedule(FromSeconds(2), EventType::kMetricsTick, 1);
  q.Schedule(FromSeconds(1), EventType::kMetricsTick, 2);
  q.Schedule(FromSeconds(1), EventType::kMetricsTick, 3);
  EXPECT_EQ(q.Pop().a, 2u);
  EXPECT_EQ(q.Pop().a, 3u);  // FIFO among equal timestamps
  EXPECT_EQ(q.Pop().a, 1u);
  EXPECT_TRUE(q.Empty());
}

TEST(EventQueue, ClockAdvancesMonotonically) {
  EventQueue q;
  q.Schedule(FromSeconds(5), EventType::kMetricsTick);
  q.Pop();
  EXPECT_EQ(q.Now(), FromSeconds(5));
  // Scheduling in the past clamps to now.
  q.Schedule(FromSeconds(1), EventType::kMetricsTick);
  EXPECT_EQ(q.Pop().time, FromSeconds(5));
}

// Differential test against a std::priority_queue of (time, seq): random
// Schedule / Pop / PeekTime mixes covering equal-time ties, times in the
// past (clamped to now), the simulator's 1-10 s ticks and start-up delays
// beyond the queue's near window, delays straddling the window's edge, and
// Schedule at Now() straight after a Pop.
TEST(EventQueue, MatchesReferenceHeapOnRandomOperations) {
  using Ref = std::pair<SimTime, std::uint64_t>;  // (time, seq)
  std::priority_queue<Ref, std::vector<Ref>, std::greater<Ref>> ref;
  EventQueue q;
  Rng rng(2015);
  std::uint64_t seq = 0;
  auto schedule = [&](SimTime when) {
    q.Schedule(when, EventType::kServiceDone, static_cast<std::uint32_t>(seq));
    ref.emplace(std::max(when, q.Now()), seq++);
  };
  auto pop = [&] {
    const Event e = q.Pop();
    ASSERT_EQ(e.time, ref.top().first);
    ASSERT_EQ(e.seq(), ref.top().second);
    ASSERT_EQ(e.a, static_cast<std::uint32_t>(ref.top().second));
    ASSERT_EQ(e.type(), EventType::kServiceDone);
    ASSERT_EQ(q.Now(), e.time);
    ref.pop();
  };

  constexpr int kOperations = 1'200'000;
  for (int op = 0; op < kOperations; ++op) {
    // Phases of 100k operations drift towards a target backlog: nearly
    // empty (the window drains and Pop jumps to the far heap), a few
    // hundred pending as in the simulator, or a few thousand.
    constexpr std::size_t kTargets[] = {300, 8, 3000, 300};
    const std::size_t target = kTargets[(op / 100'000) % 4];
    const double schedule_share = ref.size() < target ? 0.6 : 0.35;
    const double r = rng.NextDouble();
    if (ref.empty() || r < schedule_share) {
      const SimTime now = q.Now();
      const double kind = rng.NextDouble();
      if (kind < 0.15) {
        schedule(now + 1000 * rng.UniformInt(0, 3));  // coarse grid: many exact ties
      } else if (kind < 0.25) {
        schedule(now - FromMicros(rng.Uniform(0, 5000)));  // in the past
      } else if (kind < 0.80) {
        schedule(now + FromMicros(rng.Uniform(0, 10'000)));
      } else if (kind < 0.93) {
        schedule(now + FromMillis(rng.Uniform(20, 200)));  // around the window's edge
      } else {
        // Ticks and start-ups, some on whole seconds so they tie.
        schedule(rng.Bernoulli(0.5) ? FromSeconds(static_cast<double>(rng.UniformInt(1, 10))) +
                                          now / 1'000'000'000 * 1'000'000'000
                                    : now + FromSeconds(rng.Uniform(1, 10)));
      }
    } else if (r < 0.95) {
      pop();
      if (::testing::Test::HasFatalFailure()) return;
      if (rng.Bernoulli(0.2)) schedule(q.Now());
    } else if (r < 0.975) {
      ASSERT_EQ(q.PeekTime(), ref.top().first);
    } else {
      // PopUntil: a limit before the earliest event pops nothing and leaves
      // the clock alone; a limit at or after it pops exactly that event.
      const SimTime top = ref.top().first;
      const SimTime now = q.Now();
      Event e;
      if (top > 0 && rng.Bernoulli(0.5)) {
        ASSERT_FALSE(q.PopUntil(top - 1 - rng.UniformInt(0, 1000), e));
        ASSERT_EQ(q.Now(), now);
      } else {
        ASSERT_TRUE(q.PopUntil(top + rng.UniformInt(0, 1000), e));
        ASSERT_EQ(e.time, top);
        ASSERT_EQ(e.seq(), ref.top().second);
        ASSERT_EQ(q.Now(), top);
        ref.pop();
      }
    }
    ASSERT_EQ(q.Size(), ref.size());
  }
  while (!ref.empty()) {
    ASSERT_FALSE(q.Empty());
    ASSERT_EQ(q.PeekTime(), ref.top().first);
    pop();
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_TRUE(q.Empty());
}

// ------------------------------------------------------------ rate schedule

TEST(PiecewiseRate, StepsAndEnd) {
  PiecewiseRate r({{FromSeconds(10), 100.0}, {FromSeconds(10), 200.0}});
  EXPECT_DOUBLE_EQ(r.RateAt(0), 100.0);
  EXPECT_DOUBLE_EQ(r.RateAt(FromSeconds(9.9)), 100.0);
  EXPECT_DOUBLE_EQ(r.RateAt(FromSeconds(10)), 200.0);
  EXPECT_DOUBLE_EQ(r.RateAt(FromSeconds(20)), 0.0);
  EXPECT_EQ(r.EndTime(), FromSeconds(20));
}

TEST(PiecewiseRate, RejectsBadSteps) {
  EXPECT_THROW(PiecewiseRate({}), std::invalid_argument);
  EXPECT_THROW(PiecewiseRate({{0, 10.0}}), std::invalid_argument);
  EXPECT_THROW(PiecewiseRate({{FromSeconds(1), -1.0}}), std::invalid_argument);
}

TEST(PrimeTesterSchedule, HasWarmupIncrementsPlateauDecrements) {
  const PiecewiseRate r = MakePrimeTesterSchedule(100, 50, 3, FromSeconds(10));
  // warmup + 3 up + plateau + 3 down = 8 steps.
  ASSERT_EQ(r.steps().size(), 8u);
  EXPECT_DOUBLE_EQ(r.steps()[0].rate, 100.0);
  EXPECT_DOUBLE_EQ(r.steps()[3].rate, 250.0);  // peak
  EXPECT_DOUBLE_EQ(r.steps()[4].rate, 250.0);  // plateau
  EXPECT_DOUBLE_EQ(r.steps()[7].rate, 100.0);  // back to warmup
}

TEST(DiurnalRate, OscillatesBetweenBaseAndPeak) {
  DiurnalRate::Params p;
  p.base_rate = 100;
  p.amplitude = 400;
  p.period = FromSeconds(100);
  DiurnalRate r(p);
  EXPECT_NEAR(r.RateAt(0), 100.0, 1e-9);                 // trough at t=0
  EXPECT_NEAR(r.RateAt(FromSeconds(50)), 500.0, 1e-9);   // crest mid-period
  EXPECT_NEAR(r.RateAt(FromSeconds(100)), 100.0, 1e-9);  // trough again
}

TEST(DiurnalRate, BurstAddsRateDuringWindow) {
  DiurnalRate::Params p;
  p.base_rate = 100;
  p.amplitude = 0;
  p.period = FromSeconds(100);
  p.burst_rate = 1000;
  p.burst_start = FromSeconds(10);
  p.burst_duration = FromSeconds(5);
  DiurnalRate r(p);
  EXPECT_NEAR(r.RateAt(FromSeconds(9)), 100.0, 1e-9);
  EXPECT_NEAR(r.RateAt(FromSeconds(12)), 1100.0, 1e-9);
  EXPECT_NEAR(r.RateAt(FromSeconds(15)), 100.0, 1e-9);
}

// ---------------------------------------------------------------- UDF logic

// Both logics derive their log-normal parameters once, at construction;
// their draws must stay the ones Rng::LogNormalMeanCv makes, bit for bit.
TEST(StatelessLogic, LogNormalDrawsMatchLogNormalMeanCvBitForBit) {
  StatelessLogic::Params sp;
  sp.service_mean = 0.003;
  sp.service_cv = 0.3;
  StatelessLogic logic(sp);
  SourceLogic::Params src;
  src.schedule = std::make_shared<PiecewiseRate>(PiecewiseRate({{FromSeconds(10), 250.0}}));
  src.interval_cv = 0.5;
  const SourceLogic source(src);
  Rng a(7);
  Rng b(7);
  const SimItem item;
  std::vector<EmitRequest> out;
  for (int i = 0; i < 10'000; ++i) {
    ASSERT_EQ(logic.OnItem(0, item, a, out), b.LogNormalMeanCv(0.003, 0.3));
    ASSERT_EQ(source.NextInterval(FromSeconds(1), a), b.LogNormalMeanCv(1.0 / 250.0, 0.5));
  }
  EXPECT_TRUE(out.empty());
}

TEST(StatelessLogic, SelectivityControlsExpectedEmissions) {
  StatelessLogic::Params p;
  p.service_mean = 0.001;
  p.outputs = {{.output_index = 0, .selectivity = 0.4}};
  StatelessLogic logic(p);
  Rng rng(3);
  SimItem item;
  std::vector<EmitRequest> out;
  int emitted = 0;
  for (int i = 0; i < 20000; ++i) {
    out.clear();
    logic.OnItem(0, item, rng, out);
    emitted += static_cast<int>(out.size());
  }
  EXPECT_NEAR(emitted / 20000.0, 0.4, 0.02);
}

TEST(StatelessLogic, InputTagFilterGatesOutputs) {
  StatelessLogic::Params p;
  p.outputs = {{.output_index = 0, .selectivity = 1.0, .input_tag_filter = 7}};
  StatelessLogic logic(p);
  Rng rng(3);
  std::vector<EmitRequest> out;
  SimItem wrong;
  wrong.tag = 1;
  logic.OnItem(0, wrong, rng, out);
  EXPECT_TRUE(out.empty());
  SimItem right;
  right.tag = 7;
  logic.OnItem(0, right, rng, out);
  EXPECT_EQ(out.size(), 1u);
}

TEST(WindowedLogic, EmitsOnlyWhenItemsArrivedUnlessConfigured) {
  WindowedLogic::Params p;
  p.window = FromMillis(100);
  WindowedLogic logic(p);
  Rng rng(3);
  std::vector<EmitRequest> out;
  logic.OnTimer(0, rng, out);
  EXPECT_TRUE(out.empty());  // empty window, emit_when_empty = false
  SimItem item;
  logic.OnItem(0, item, rng, out);
  logic.OnTimer(FromMillis(100), rng, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_FALSE(out[0].inherit_lineage);  // window results start fresh lineage

  WindowedLogic::Params always = p;
  always.emit_when_empty = true;
  WindowedLogic eager(always);
  out.clear();
  eager.OnTimer(0, rng, out);
  EXPECT_EQ(out.size(), 1u);
}

TEST(SourceLogic, MetronomeIntervalIsExact) {
  SourceLogic::Params p;
  p.schedule = std::make_shared<PiecewiseRate>(PiecewiseRate({{FromSeconds(10), 250.0}}));
  p.interval_cv = 0.0;
  SourceLogic logic(p);
  Rng rng(3);
  EXPECT_DOUBLE_EQ(logic.NextInterval(0, rng), 1.0 / 250.0);
  // Past the schedule's end the source reports completion.
  EXPECT_LT(logic.NextInterval(FromSeconds(11), rng), 0.0);
}

// ---------------------------------------------------------------- pipelines

// Source -> Worker -> Sink job; returns the configured simulation.
struct PipelineBuilder {
  JobGraph graph;
  JobEdgeId e_in{}, e_out{};

  PipelineBuilder(std::uint32_t sources, std::uint32_t workers, std::uint32_t worker_max,
                  bool elastic, WiringPattern pattern = WiringPattern::kPointwise) {
    const auto src = graph.AddVertex(
        {.name = "Source", .parallelism = sources, .max_parallelism = sources});
    const auto mid = graph.AddVertex({.name = "Worker",
                                      .parallelism = workers,
                                      .min_parallelism = 1,
                                      .max_parallelism = worker_max,
                                      .elastic = elastic});
    const auto snk = graph.AddVertex(
        {.name = "Sink", .parallelism = sources, .max_parallelism = sources});
    e_in = graph.Connect(src, mid, pattern);
    e_out = graph.Connect(mid, snk, pattern);
  }

  LatencyConstraint Constraint(SimDuration bound) const {
    return LatencyConstraint{JobSequence::FromEdgeChain(graph, {e_in, e_out}), bound,
                             FromSeconds(10), "c"};
  }

  std::unique_ptr<ClusterSimulation> Build(SimConfig config, double rate_per_source,
                                           double service_mean,
                                           SimDuration run = FromSeconds(0)) {
    auto schedule = std::make_shared<PiecewiseRate>(PiecewiseRate(
        {{run > 0 ? run : FromSeconds(3600), rate_per_source}}));
    auto sim = std::make_unique<ClusterSimulation>(std::move(graph), config);
    sim->SetSource("Source", [schedule](std::uint32_t, Rng) {
      SourceLogic::Params p;
      p.schedule = schedule;
      p.item_size_bytes = 100;
      return std::make_unique<SourceLogic>(p);
    });
    sim->SetLogic("Worker", [service_mean](std::uint32_t, Rng) {
      StatelessLogic::Params p;
      p.service_mean = service_mean;
      p.service_cv = 0.3;
      p.outputs = {{.output_index = 0, .selectivity = 1.0, .size_bytes = 100}};
      return std::make_unique<StatelessLogic>(p);
    });
    sim->SetLogic("Sink", [](std::uint32_t, Rng) {
      StatelessLogic::Params p;
      p.service_mean = 0.00002;
      p.service_cv = 0.1;
      return std::make_unique<StatelessLogic>(p);
    });
    return sim;
  }
};

SimConfig BaseConfig(ShippingStrategy shipping, bool elastic_scaler) {
  SimConfig cfg;
  cfg.shipping = shipping;
  cfg.workers = 16;
  cfg.scaler.enabled = elastic_scaler;
  cfg.probe_sample_probability = 0.2;
  cfg.seed = 42;
  return cfg;
}

TEST(ClusterSimulation, DeliversItemsEndToEnd) {
  PipelineBuilder b(2, 4, 4, false);
  const auto constraint = b.Constraint(FromMillis(50));
  auto sim = b.Build(BaseConfig(ShippingStrategy::kInstantFlush, false), 200.0, 0.001);
  sim->AddConstraint(constraint);
  const RunResult r = sim->Run(FromSeconds(20));

  // 2 sources x 200/s x 20 s = ~8000 items.
  EXPECT_NEAR(static_cast<double>(r.total_items_emitted), 8000.0, 800.0);
  // Everything but in-flight tail reaches the sink.
  EXPECT_GT(r.total_items_delivered, r.total_items_emitted * 95 / 100);
  ASSERT_FALSE(r.windows.empty());
  // Low load, instant flush: latency is a few ms at most.
  const auto& last = r.windows.back();
  ASSERT_EQ(last.constraints.size(), 1u);
  EXPECT_GT(last.constraints[0].samples, 0u);
  EXPECT_LT(last.constraints[0].mean_latency, 0.010);
}

TEST(ClusterSimulation, DeterministicAcrossRuns) {
  auto run = [] {
    PipelineBuilder b(2, 4, 4, false);
    const auto constraint = b.Constraint(FromMillis(30));
    auto sim = b.Build(BaseConfig(ShippingStrategy::kAdaptive, false), 300.0, 0.002);
    sim->AddConstraint(constraint);
    return sim->Run(FromSeconds(15));
  };
  const RunResult r1 = run();
  const RunResult r2 = run();
  EXPECT_EQ(r1.total_items_emitted, r2.total_items_emitted);
  EXPECT_EQ(r1.total_items_delivered, r2.total_items_delivered);
  ASSERT_EQ(r1.windows.size(), r2.windows.size());
  for (std::size_t i = 0; i < r1.windows.size(); ++i) {
    EXPECT_DOUBLE_EQ(r1.windows[i].effective_rate, r2.windows[i].effective_rate);
    EXPECT_DOUBLE_EQ(r1.windows[i].constraints[0].mean_latency,
                     r2.windows[i].constraints[0].mean_latency);
  }
}

TEST(ClusterSimulation, BackpressureThrottlesEffectiveThroughput) {
  // Offered load 2x the worker capacity: 4 workers x (1/2ms) = 2000/s
  // capacity, 2 sources x 2000/s = 4000/s attempted.
  PipelineBuilder b(2, 4, 4, false);
  SimConfig cfg = BaseConfig(ShippingStrategy::kInstantFlush, false);
  cfg.network.queue_capacity = 200;
  const auto constraint = b.Constraint(FromMillis(50));
  auto sim = b.Build(cfg, 2000.0, 0.002);
  sim->AddConstraint(constraint);
  const RunResult r = sim->Run(FromSeconds(20));

  const auto& last = r.windows.back();
  EXPECT_GT(last.attempted_rate, 3500.0);
  EXPECT_LT(last.effective_rate, last.attempted_rate * 0.75);
  // Queue-bound latency: roughly capacity x effective service time.
  EXPECT_GT(last.constraints[0].mean_latency, 0.100);
}

TEST(ClusterSimulation, BatchingRaisesMaxThroughput) {
  // The §III claim: per-flush overhead dominates unbatched shipping, so
  // fixed 16 KiB buffers sustain a higher effective rate than instant
  // flushing under overload, while idle latency is far worse.
  auto measure = [](ShippingStrategy s, double rate) {
    PipelineBuilder b(2, 4, 4, false);
    SimConfig cfg = BaseConfig(s, false);
    auto sim = b.Build(cfg, rate, 0.003);
    const RunResult r = sim->Run(FromSeconds(25));
    double best = 0;
    for (const auto& w : r.windows) best = std::max(best, w.effective_rate);
    return best;
  };
  // Overload both configurations (capacity is ~1333/s for the UDF alone).
  const double instant = measure(ShippingStrategy::kInstantFlush, 1500.0);
  const double batched = measure(ShippingStrategy::kFixedBuffer, 1500.0);
  EXPECT_GT(batched, instant * 1.2) << "instant=" << instant << " batched=" << batched;
}

TEST(ClusterSimulation, FixedBufferHasHighIdleLatency) {
  // At a low rate a 16 KiB buffer takes seconds to fill, so latency is
  // orders of magnitude above instant flushing (paper: ~3 s vs 1-2 ms).
  auto mean_latency = [](ShippingStrategy s) {
    PipelineBuilder b(2, 4, 4, false);
    const auto constraint = b.Constraint(FromSeconds(60));
    auto sim = b.Build(BaseConfig(s, false), 100.0, 0.001);
    sim->AddConstraint(constraint);
    const RunResult r = sim->Run(FromSeconds(30));
    return r.windows.back().constraints[0].mean_latency;
  };
  const double instant = mean_latency(ShippingStrategy::kInstantFlush);
  const double fixed = mean_latency(ShippingStrategy::kFixedBuffer);
  EXPECT_LT(instant, 0.010);
  EXPECT_GT(fixed, instant * 20) << "instant=" << instant << " fixed=" << fixed;
}

TEST(ClusterSimulation, AdaptiveBatchingRespectsConstraint) {
  PipelineBuilder b(2, 4, 4, false);
  const auto constraint = b.Constraint(FromMillis(20));
  auto sim = b.Build(BaseConfig(ShippingStrategy::kAdaptive, false), 400.0, 0.001);
  sim->AddConstraint(constraint);
  const RunResult r = sim->Run(FromSeconds(30));
  // Skip the first window (deadline bootstrapping) and require the bound.
  for (std::size_t i = 1; i < r.windows.size(); ++i) {
    EXPECT_LE(r.windows[i].constraints[0].mean_latency, 0.020)
        << "window " << i;
  }
  // And batching must actually delay items (latency above instant-flush
  // levels, which would be ~2 ms here).
  EXPECT_GT(r.windows.back().constraints[0].mean_latency, 0.004);
}

TEST(ClusterSimulation, QosSummaryDrivesEstimates) {
  PipelineBuilder b(2, 4, 4, false);
  const auto constraint = b.Constraint(FromMillis(25));
  auto sim = b.Build(BaseConfig(ShippingStrategy::kAdaptive, false), 300.0, 0.002);
  sim->AddConstraint(constraint);
  const RunResult r = sim->Run(FromSeconds(45));
  // After warm-up the engine's own estimate tracks the measured latency
  // within a factor of a few.
  int checked = 0;
  for (std::size_t i = 3; i < r.adjustments.size(); ++i) {
    const auto& rec = r.adjustments[i];
    if (rec.measured_latency[0] < 0 || rec.estimated_latency[0] < 0) continue;
    EXPECT_GT(rec.estimated_latency[0], rec.measured_latency[0] * 0.2);
    EXPECT_LT(rec.estimated_latency[0], rec.measured_latency[0] * 5.0 + 0.005);
    ++checked;
  }
  EXPECT_GT(checked, 3);
}

TEST(ClusterSimulation, ElasticScalerResolvesBottleneck) {
  // One worker task cannot sustain 2 x 600/s x 2 ms = 2.4 busy servers.
  PipelineBuilder b(2, 1, 32, true);
  SimConfig cfg = BaseConfig(ShippingStrategy::kAdaptive, true);
  const auto constraint = b.Constraint(FromMillis(30));
  auto sim = b.Build(cfg, 600.0, 0.002);
  sim->AddConstraint(constraint);
  const RunResult r = sim->Run(FromSeconds(60));

  // Parallelism must have risen well above 1...
  std::uint32_t max_p = 0;
  for (const auto& w : r.windows) {
    for (const auto& p : w.parallelism) {
      if (p.vertex == "Worker") max_p = std::max(max_p, p.parallelism);
    }
  }
  EXPECT_GE(max_p, 3u);
  // ...and the last windows must satisfy the constraint.
  const auto& last = r.windows.back();
  EXPECT_LT(last.constraints[0].mean_latency, 0.030);
  // Throughput keeps up (no lasting backpressure).
  EXPECT_GT(last.effective_rate, 1100.0);
}

TEST(ClusterSimulation, ElasticScalerScalesDownAfterLoadDrop) {
  JobGraph graph;
  const auto src =
      graph.AddVertex({.name = "Source", .parallelism = 2, .max_parallelism = 2});
  const auto mid = graph.AddVertex({.name = "Worker",
                                    .parallelism = 24,
                                    .min_parallelism = 1,
                                    .max_parallelism = 32,
                                    .elastic = true});
  const auto snk =
      graph.AddVertex({.name = "Sink", .parallelism = 2, .max_parallelism = 2});
  const auto e1 = graph.Connect(src, mid, WiringPattern::kPointwise);
  const auto e2 = graph.Connect(mid, snk, WiringPattern::kPointwise);
  const LatencyConstraint constraint{JobSequence::FromEdgeChain(graph, {e1, e2}),
                                     FromMillis(50), FromSeconds(10), "c"};

  SimConfig cfg = BaseConfig(ShippingStrategy::kAdaptive, true);
  auto schedule =
      std::make_shared<PiecewiseRate>(PiecewiseRate({{FromSeconds(3600), 100.0}}));
  ClusterSimulation sim(std::move(graph), cfg);
  sim.SetSource("Source", [schedule](std::uint32_t, Rng) {
    SourceLogic::Params p;
    p.schedule = schedule;
    return std::make_unique<SourceLogic>(p);
  });
  sim.SetLogic("Worker", [](std::uint32_t, Rng) {
    StatelessLogic::Params p;
    p.service_mean = 0.002;
    p.outputs = {{.output_index = 0}};
    return std::make_unique<StatelessLogic>(p);
  });
  sim.SetLogic("Sink", [](std::uint32_t, Rng) {
    StatelessLogic::Params p;
    p.service_mean = 0.00002;
    return std::make_unique<StatelessLogic>(p);
  });
  sim.AddConstraint(constraint);
  const RunResult r = sim.Run(FromSeconds(60));

  // 2 x 100/s x 2 ms = 0.4 busy servers; 24 tasks are gross over-provision
  // and Rebalance must shed most of them.
  std::uint32_t final_p = 0;
  for (const auto& p : r.windows.back().parallelism) {
    if (p.vertex == "Worker") final_p = p.parallelism;
  }
  EXPECT_LT(final_p, 8u);
  EXPECT_GE(final_p, 1u);
  // The constraint still holds after the scale-down.
  EXPECT_LT(r.windows.back().constraints[0].mean_latency, 0.050);
}

TEST(ClusterSimulation, InjectedCrashRestartsTaskAndKeepsDelivering) {
  PipelineBuilder b(2, 4, 4, false);
  SimConfig cfg = BaseConfig(ShippingStrategy::kInstantFlush, false);
  cfg.faults.push_back({.vertex = "Worker", .subtask = 1, .at = FromSeconds(10)});
  const auto constraint = b.Constraint(FromMillis(50));
  auto sim = b.Build(cfg, 200.0, 0.001);
  sim->AddConstraint(constraint);
  const RunResult r = sim->Run(FromSeconds(30));

  EXPECT_EQ(r.task_crashes, 1u);
  EXPECT_EQ(r.task_restarts, 1u);
  // The crash loses only what was in flight around Worker[1]; the other
  // subtasks keep the pipeline going and the replacement rejoins after the
  // start delay, so the vast majority of items still arrive.
  EXPECT_GT(r.total_items_delivered, r.total_items_emitted * 90 / 100);
  EXPECT_LT(r.items_lost, r.total_items_emitted / 10);
  // The replacement is back: full task census in the last window.
  EXPECT_EQ(r.windows.back().running_tasks, 8u);
}

TEST(ClusterSimulation, CrashWithoutRestartShrinksTheVertex) {
  PipelineBuilder b(2, 4, 4, false);
  SimConfig cfg = BaseConfig(ShippingStrategy::kInstantFlush, false);
  cfg.faults.push_back(
      {.vertex = "Worker", .subtask = 2, .at = FromSeconds(5), .restart = false});
  auto sim = b.Build(cfg, 200.0, 0.001);
  const RunResult r = sim->Run(FromSeconds(20));

  EXPECT_EQ(r.task_crashes, 1u);
  EXPECT_EQ(r.task_restarts, 0u);
  EXPECT_EQ(r.windows.back().running_tasks, 7u);  // hole never refilled
  // Remaining subtasks absorb the load (3 x 1000/s capacity vs 400/s).
  EXPECT_GT(r.total_items_delivered, r.total_items_emitted * 90 / 100);
}

TEST(ClusterSimulation, FaultOnUnknownTaskIsSkippedAndBadSpecThrows) {
  {
    PipelineBuilder b(2, 4, 4, false);
    SimConfig cfg = BaseConfig(ShippingStrategy::kInstantFlush, false);
    cfg.faults.push_back({.vertex = "Worker", .subtask = 99, .at = FromSeconds(1)});
    auto sim = b.Build(cfg, 100.0, 0.001);
    const RunResult r = sim->Run(FromSeconds(5));
    EXPECT_EQ(r.task_crashes, 0u);  // no such subtask: logged and skipped
    EXPECT_EQ(r.items_lost, 0u);
  }
  {
    PipelineBuilder b(2, 4, 4, false);
    SimConfig cfg = BaseConfig(ShippingStrategy::kInstantFlush, false);
    cfg.faults.push_back({.vertex = "NoSuchVertex", .at = FromSeconds(1)});
    auto sim = b.Build(cfg, 100.0, 0.001);
    EXPECT_THROW(sim->Run(FromSeconds(5)), std::out_of_range);
  }
  {
    PipelineBuilder b(2, 4, 4, false);
    SimConfig cfg = BaseConfig(ShippingStrategy::kInstantFlush, false);
    cfg.faults.push_back({.vertex = "Worker", .at = 0});  // fault time missing
    auto sim = b.Build(cfg, 100.0, 0.001);
    EXPECT_THROW(sim->Run(FromSeconds(5)), std::invalid_argument);
  }
}

TEST(ClusterSimulation, DeterministicAcrossRunsWithFaults) {
  auto run = [] {
    PipelineBuilder b(2, 4, 4, false);
    SimConfig cfg = BaseConfig(ShippingStrategy::kAdaptive, false);
    cfg.faults.push_back({.vertex = "Worker", .subtask = 0, .at = FromSeconds(6)});
    const auto constraint = b.Constraint(FromMillis(30));
    auto sim = b.Build(cfg, 300.0, 0.002);
    sim->AddConstraint(constraint);
    return sim->Run(FromSeconds(15));
  };
  const RunResult r1 = run();
  const RunResult r2 = run();
  EXPECT_EQ(r1.total_items_emitted, r2.total_items_emitted);
  EXPECT_EQ(r1.total_items_delivered, r2.total_items_delivered);
  EXPECT_EQ(r1.items_lost, r2.items_lost);
  EXPECT_EQ(r1.task_crashes, 1u);
  ASSERT_EQ(r1.windows.size(), r2.windows.size());
  for (std::size_t i = 0; i < r1.windows.size(); ++i) {
    EXPECT_DOUBLE_EQ(r1.windows[i].effective_rate, r2.windows[i].effective_rate);
  }
}

TEST(ClusterSimulation, WindowedLogicMeasuresReadWriteLatency) {
  JobGraph graph;
  const auto src =
      graph.AddVertex({.name = "Source", .parallelism = 1, .max_parallelism = 1});
  const auto agg = graph.AddVertex({.name = "Agg",
                                    .parallelism = 2,
                                    .min_parallelism = 1,
                                    .max_parallelism = 4,
                                    .latency_mode = LatencyMode::kReadWrite});
  const auto snk =
      graph.AddVertex({.name = "Sink", .parallelism = 1, .max_parallelism = 1});
  const auto e1 = graph.Connect(src, agg, WiringPattern::kRoundRobin);
  const auto e2 = graph.Connect(agg, snk, WiringPattern::kRoundRobin);
  const LatencyConstraint constraint{JobSequence::FromEdgeChain(graph, {e1, e2}),
                                     FromMillis(400), FromSeconds(10), "c"};

  SimConfig cfg = BaseConfig(ShippingStrategy::kInstantFlush, false);
  auto schedule =
      std::make_shared<PiecewiseRate>(PiecewiseRate({{FromSeconds(3600), 500.0}}));
  ClusterSimulation sim(std::move(graph), cfg);
  sim.SetSource("Source", [schedule](std::uint32_t, Rng) {
    SourceLogic::Params p;
    p.schedule = schedule;
    return std::make_unique<SourceLogic>(p);
  });
  sim.SetLogic("Agg", [](std::uint32_t, Rng) {
    WindowedLogic::Params p;
    p.window = FromMillis(200);
    return std::make_unique<WindowedLogic>(p);
  });
  sim.SetLogic("Sink", [](std::uint32_t, Rng) {
    StatelessLogic::Params p;
    p.service_mean = 0.00002;
    return std::make_unique<StatelessLogic>(p);
  });
  sim.AddConstraint(constraint);
  const RunResult r = sim.Run(FromSeconds(20));

  // Probes pass through the window: their end-to-end latency must include
  // window residence (mean ~window/2 = 100 ms, at least 20 ms).
  const auto& last = r.windows.back();
  ASSERT_GT(last.constraints[0].samples, 0u);
  EXPECT_GT(last.constraints[0].mean_latency, 0.020);
  EXPECT_LT(last.constraints[0].mean_latency, 0.400);
}

TEST(ClusterSimulation, CpuUtilizationIsSane) {
  PipelineBuilder b(2, 4, 4, false);
  const auto constraint = b.Constraint(FromMillis(30));
  auto sim = b.Build(BaseConfig(ShippingStrategy::kAdaptive, false), 300.0, 0.002);
  sim->AddConstraint(constraint);
  const RunResult r = sim->Run(FromSeconds(20));
  const auto& last = r.windows.back();
  EXPECT_GT(last.cpu_utilization, 0.01);
  EXPECT_LT(last.cpu_utilization, 1.01);
  EXPECT_EQ(last.running_tasks, 8u);  // 2 sources + 4 workers + 2 sinks
}

TEST(ClusterSimulation, TaskHoursAccounting) {
  PipelineBuilder b(2, 4, 4, false);
  auto sim = b.Build(BaseConfig(ShippingStrategy::kAdaptive, false), 100.0, 0.001);
  const RunResult r = sim->Run(FromSeconds(36));
  // 8 static tasks x 36 s = 288 task-seconds = 0.08 task-hours.
  EXPECT_NEAR(r.task_hours, 0.08, 0.005);
}

TEST(ClusterSimulation, SummaryMatchesConfiguredGroundTruth) {
  // A static run at known rates must produce a global summary whose values
  // match the configured workload: per-task arrival rate = total / p, and
  // service time = UDF time + per-item overheads (within sampling noise).
  PipelineBuilder b(2, 4, 4, false);
  SimConfig cfg = BaseConfig(ShippingStrategy::kInstantFlush, false);
  auto sim = b.Build(cfg, /*rate_per_source=*/200.0, /*service_mean=*/0.002);
  sim->Run(FromSeconds(30));

  const GlobalSummary& s = sim->last_summary();
  const JobVertexId worker = sim->graph().VertexByName("Worker");
  ASSERT_TRUE(s.HasVertex(worker));
  const VertexSummary& vs = s.vertex(worker);
  EXPECT_NEAR(vs.arrival_rate, 400.0 / 4, 10.0);  // per-task rate
  EXPECT_NEAR(vs.measured_parallelism, 4.0, 0.01);
  // Service = 2 ms UDF + ~1.9 ms unbatched shipping overhead.
  EXPECT_NEAR(vs.service_mean, 0.0039, 0.0006);
  EXPECT_GT(vs.Utilization(), 0.30);
  EXPECT_LT(vs.Utilization(), 0.55);
}

TEST(ClusterSimulation, KingmanPredictsSimulatedQueueWait) {
  // The model layer's core assumption: at moderate utilization the measured
  // queue wait (l_e - obl_e minus the wire time) is within a small factor
  // of Kingman's approximation fed with the measured summary.
  PipelineBuilder b(2, 4, 4, false);
  SimConfig cfg = BaseConfig(ShippingStrategy::kInstantFlush, false);
  auto sim = b.Build(cfg, /*rate_per_source=*/300.0, /*service_mean=*/0.003);
  sim->Run(FromSeconds(40));

  const GlobalSummary& s = sim->last_summary();
  const JobVertexId worker = sim->graph().VertexByName("Worker");
  const VertexSummary& vs = s.vertex(worker);
  ASSERT_GT(vs.Utilization(), 0.5);  // meaningfully loaded
  ASSERT_LT(vs.Utilization(), 0.95);

  ASSERT_TRUE(s.HasEdge(JobEdgeId{0}));
  const EdgeSummary& es = s.edge(JobEdgeId{0});
  const double wire = 0.0003;  // configured wire latency
  const double measured_wait =
      std::max(0.0, es.channel_latency - es.output_batch_latency - wire);
  const double kingman =
      KingmanWait(vs.Utilization(), vs.service_mean, vs.interarrival_cv, vs.service_cv);
  EXPECT_GT(measured_wait, kingman * 0.25)
      << "measured=" << measured_wait << " kingman=" << kingman;
  EXPECT_LT(measured_wait, kingman * 4.0)
      << "measured=" << measured_wait << " kingman=" << kingman;
}

TEST(ClusterSimulation, NodeHoursDependOnPlacement) {
  // 8 static tasks on 16 workers x 4 slots for 20 s: spreading leases 8
  // nodes, compact packing leases ceil(8/4) = 2.
  auto run = [](PlacementStrategy placement) {
    PipelineBuilder b(2, 4, 4, false);
    SimConfig cfg = BaseConfig(ShippingStrategy::kInstantFlush, false);
    cfg.placement = placement;
    auto sim = b.Build(cfg, 100.0, 0.001);
    return sim->Run(FromSeconds(20));
  };
  const RunResult spread = run(PlacementStrategy::kLeastLoaded);
  const RunResult compact = run(PlacementStrategy::kCompact);
  EXPECT_NEAR(spread.node_hours, 8.0 * 20.0 / 3600.0, 1e-6);
  EXPECT_NEAR(compact.node_hours, 2.0 * 20.0 / 3600.0, 1e-6);
  // Task-hours are placement-independent.
  EXPECT_NEAR(spread.task_hours, compact.task_hours, 1e-9);
}

TEST(ClusterSimulation, NodeLeasesReleaseAfterScaleDown) {
  // Over-provisioned elastic run with compact placement: after the scaler
  // shrinks the Worker vertex, emptied nodes release their leases, so
  // node-hours fall well below "initially leased nodes x duration".
  PipelineBuilder b(2, 24, 32, true);
  SimConfig cfg = BaseConfig(ShippingStrategy::kAdaptive, true);
  cfg.placement = PlacementStrategy::kCompact;
  const auto constraint = b.Constraint(FromMillis(50));
  auto sim = b.Build(cfg, 100.0, 0.002);
  sim->AddConstraint(constraint);
  const RunResult r = sim->Run(FromSeconds(60));

  // 28 initial tasks on 7 nodes; held for the whole hour that would be
  // 7 * 60 s.  The scale-down must release several of them.
  EXPECT_LT(r.node_hours, 6.0 * 60.0 / 3600.0);
  EXPECT_GT(r.node_hours, 1.0 * 60.0 / 3600.0);
}

TEST(MetricsIo, TsvRoundTripHasHeaderAndRows) {
  PipelineBuilder b(2, 4, 4, false);
  const auto constraint = b.Constraint(FromMillis(30));
  auto sim = b.Build(BaseConfig(ShippingStrategy::kAdaptive, false), 200.0, 0.001);
  sim->AddConstraint(constraint);
  const RunResult r = sim->Run(FromSeconds(25));

  std::ostringstream windows;
  WriteWindowsTsv(windows, r, {"e2e"});
  const std::string w = windows.str();
  EXPECT_NE(w.find("e2e_mean_ms"), std::string::npos);
  EXPECT_NE(w.find("p_Worker"), std::string::npos);
  // Header + one line per window.
  EXPECT_EQ(static_cast<std::size_t>(std::count(w.begin(), w.end(), '\n')),
            r.windows.size() + 1);

  std::ostringstream adjustments;
  WriteAdjustmentsTsv(adjustments, r, {"e2e"});
  const std::string a = adjustments.str();
  EXPECT_NE(a.find("e2e_measured_ms"), std::string::npos);
  EXPECT_EQ(static_cast<std::size_t>(std::count(a.begin(), a.end(), '\n')),
            r.adjustments.size() + 1);
}

TEST(MetricsIo, EmptyResultWritesNothing) {
  std::ostringstream os;
  WriteWindowsTsv(os, RunResult{}, {});
  WriteAdjustmentsTsv(os, RunResult{}, {});
  EXPECT_TRUE(os.str().empty());
}

TEST(ClusterSimulation, RunTwiceThrows) {
  PipelineBuilder b(1, 1, 1, false);
  auto sim = b.Build(BaseConfig(ShippingStrategy::kAdaptive, false), 10.0, 0.001);
  sim->Run(FromSeconds(1));
  EXPECT_THROW(sim->Run(FromSeconds(1)), std::logic_error);
}

}  // namespace
}  // namespace esp::sim
