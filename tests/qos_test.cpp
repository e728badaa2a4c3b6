// Unit tests for the QoS measurement pipeline: samplers -> reporters ->
// managers (partial summaries) -> master merge (global summary).
#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/stats.h"
#include "graph/job_graph.h"
#include "graph/runtime_graph.h"
#include "graph/sequence.h"
#include "qos/manager.h"
#include "qos/sampler.h"
#include "qos/summary.h"

namespace esp {
namespace {

JobGraph ThreeStageGraph() {
  JobGraph g;
  g.AddVertex({.name = "Source", .parallelism = 2, .max_parallelism = 2});
  g.AddVertex({.name = "Worker", .parallelism = 4, .min_parallelism = 1,
               .max_parallelism = 32, .elastic = true});
  g.AddVertex({.name = "Sink", .parallelism = 2, .max_parallelism = 2});
  g.Connect(g.VertexByName("Source"), g.VertexByName("Worker"));
  g.Connect(g.VertexByName("Worker"), g.VertexByName("Sink"));
  return g;
}

TEST(TaskSampler, TracksInterarrivalAcrossHarvests) {
  TaskSampler sampler;
  sampler.RecordArrivals(FromMillis(0), 1);
  sampler.RecordArrivals(FromMillis(10), 1);
  TaskMeasurement m1 = sampler.Harvest();
  EXPECT_NEAR(m1.interarrival_mean, 0.010, 1e-12);
  EXPECT_EQ(m1.items, 2u);
  // The previous arrival time survives the harvest: the next gap is
  // measured from 10 ms, not lost.
  sampler.RecordArrivals(FromMillis(30), 1);
  TaskMeasurement m2 = sampler.Harvest();
  EXPECT_NEAR(m2.interarrival_mean, 0.020, 1e-12);
  EXPECT_EQ(m2.items, 1u);
}

TEST(TaskSampler, RecordArrivalsEqualsThatManySingleArrivals) {
  // Batches of n items at one time == n single arrivals at that time: same
  // item count, inter-arrival mean and cv within 1e-12 relative.
  Rng rng(31);
  TaskSampler batched;
  TaskSampler single;
  SimTime t = 0;
  for (int b = 0; b < 2000; ++b) {
    t += FromMicros(rng.Exponential(1.0 / 50.0));
    const auto n = static_cast<std::uint64_t>(rng.UniformInt(1, 64));
    batched.RecordArrivals(t, n);
    for (std::uint64_t i = 0; i < n; ++i) single.RecordArrivals(t, 1);
  }
  const TaskMeasurement a = batched.Harvest();
  const TaskMeasurement b = single.Harvest();
  EXPECT_EQ(a.items, b.items);
  EXPECT_NEAR(a.interarrival_mean, b.interarrival_mean, 1e-12 * b.interarrival_mean);
  EXPECT_NEAR(a.interarrival_cv, b.interarrival_cv, 1e-12 * b.interarrival_cv);
}

TEST(TaskSampler, SingleArrivalsAreBitIdenticalToAddingEachGap) {
  // n = 1 is the simulator's path: it must reproduce a plain Welford over
  // the gaps bit for bit, or simulated trajectories would drift.
  Rng rng(37);
  TaskSampler sampler;
  RunningStats gaps;
  SimTime t = FromMillis(3);
  sampler.RecordArrivals(t, 1);
  for (int i = 0; i < 5000; ++i) {
    const SimTime next = t + FromMicros(rng.Exponential(1.0 / 80.0));
    gaps.Add(ToSeconds(next - t));
    sampler.RecordArrivals(next, 1);
    t = next;
  }
  const TaskMeasurement m = sampler.Harvest();
  EXPECT_EQ(m.items, 5001u);
  EXPECT_EQ(m.interarrival_mean, gaps.Mean());
  EXPECT_EQ(m.interarrival_cv, gaps.Cv());
}

TEST(TaskSampler, ServiceAndLatencyStats) {
  TaskSampler sampler;
  sampler.RecordServiceTime(0.002);
  sampler.RecordServiceTime(0.004);
  sampler.OfferTaskLatency(0.010);
  sampler.OfferTaskLatency(0.030);
  const TaskMeasurement m = sampler.Harvest();
  EXPECT_NEAR(m.service_mean, 0.003, 1e-12);
  EXPECT_GT(m.service_cv, 0.0);
  EXPECT_NEAR(m.task_latency, 0.020, 1e-12);
}

TEST(TaskSampler, DerivedRatesFollowTableI) {
  TaskMeasurement m;
  m.interarrival_mean = 0.004;  // 250 items/s
  m.service_mean = 0.002;
  EXPECT_NEAR(m.ArrivalRate(), 250.0, 1e-9);
  EXPECT_NEAR(m.Utilization(), 0.5, 1e-9);
}

TEST(TaskSampler, SubsamplingStillUnbiased) {
  TaskSampler sampler(/*latency_sample_probability=*/0.2, /*rng_seed=*/7);
  for (int i = 0; i < 100000; ++i) {
    sampler.OfferTaskLatency(i % 2 == 0 ? 0.010 : 0.020);
  }
  const TaskMeasurement m = sampler.Harvest();
  EXPECT_NEAR(m.task_latency, 0.015, 0.0005);
}

TEST(ChannelSampler, HarvestResetsCounters) {
  ChannelSampler sampler;
  sampler.OfferChannelLatency(0.008);
  sampler.OfferOutputBatchLatency(0.003);
  sampler.CountItem();
  ChannelMeasurement m = sampler.Harvest();
  EXPECT_NEAR(m.channel_latency, 0.008, 1e-12);
  EXPECT_NEAR(m.output_batch_latency, 0.003, 1e-12);
  EXPECT_EQ(m.items, 1u);
  m = sampler.Harvest();
  EXPECT_EQ(m.items, 0u);
  EXPECT_DOUBLE_EQ(m.channel_latency, 0.0);
}

TEST(QosReporter, HarvestsAllRegisteredSamplers) {
  QosReporter reporter(1.0, 1);
  const TaskId t0{JobVertexId{1}, 0};
  const ChannelId c0{JobEdgeId{0}, 0, 0};
  reporter.AddTask(t0);
  reporter.AddChannel(c0);
  reporter.task_sampler(t0).RecordArrivals(FromMillis(1), 1);
  reporter.channel_sampler(c0).CountItem();
  const QosReport report = reporter.TakeReport(FromSeconds(1));
  EXPECT_EQ(report.time, FromSeconds(1));
  ASSERT_EQ(report.tasks.size(), 1u);
  ASSERT_EQ(report.channels.size(), 1u);
  EXPECT_EQ(report.tasks[0].second.items, 1u);
}

TEST(QosReporter, RejectsDuplicatesAndUnknownLookups) {
  QosReporter reporter(1.0, 1);
  const TaskId t0{JobVertexId{1}, 0};
  reporter.AddTask(t0);
  EXPECT_THROW(reporter.AddTask(t0), std::invalid_argument);
  EXPECT_THROW(reporter.task_sampler(TaskId{JobVertexId{1}, 9}), std::out_of_range);
  reporter.RemoveTask(t0);
  EXPECT_FALSE(reporter.HasTask(t0));
}

QosReport MakeTaskReport(SimTime t, TaskId task, double service, double interarrival,
                         double latency, std::uint64_t items = 100) {
  QosReport r;
  r.time = t;
  TaskMeasurement m;
  m.service_mean = service;
  m.interarrival_mean = interarrival;
  m.task_latency = latency;
  m.items = items;
  r.tasks.emplace_back(task, m);
  return r;
}

TEST(QosManager, HistoryAveragingFollowsEquationTwo) {
  QosManager manager(/*history_length=*/3);
  const TaskId t0{JobVertexId{1}, 0};
  // Four measurements; only the last three must survive (m = 3).
  for (int i = 0; i < 4; ++i) {
    manager.Ingest(MakeTaskReport(FromSeconds(i), t0, 0.001 * (i + 1), 0.01, 0.0));
  }
  const PartialSummary partial = manager.MakePartialSummary(FromSeconds(4));
  const auto& [vs, weight] = partial.vertices.at(1);
  EXPECT_EQ(weight, 1u);
  EXPECT_NEAR(vs.service_mean, (0.002 + 0.003 + 0.004) / 3.0, 1e-12);
}

TEST(QosManager, VertexAverageSpansTasks) {
  QosManager manager(5);
  manager.Ingest(MakeTaskReport(0, TaskId{JobVertexId{1}, 0}, 0.002, 0.010, 0.0));
  manager.Ingest(MakeTaskReport(0, TaskId{JobVertexId{1}, 1}, 0.004, 0.020, 0.0));
  const PartialSummary partial = manager.MakePartialSummary(0);
  const auto& [vs, weight] = partial.vertices.at(1);
  EXPECT_EQ(weight, 2u);
  EXPECT_NEAR(vs.service_mean, 0.003, 1e-12);
  // Arrival rate averages the per-task rates (100/s and 50/s).
  EXPECT_NEAR(vs.arrival_rate, 75.0, 1e-9);
}

TEST(QosManager, EmptyIntervalsAreSkipped) {
  QosManager manager(5);
  const TaskId t0{JobVertexId{1}, 0};
  manager.Ingest(MakeTaskReport(0, t0, 0.002, 0.01, 0.0));
  manager.Ingest(MakeTaskReport(1, t0, 0.0, 0.0, 0.0, /*items=*/0));
  const PartialSummary partial = manager.MakePartialSummary(2);
  EXPECT_NEAR(partial.vertices.at(1).first.service_mean, 0.002, 1e-12);
}

TEST(QosManager, MarkStaleDropsRecoveryWindowReports) {
  QosManager manager(5);
  const TaskId t0{JobVertexId{1}, 0};
  manager.Ingest(MakeTaskReport(FromSeconds(0), t0, 0.002, 0.01, 0.0));
  EXPECT_EQ(manager.tracked_tasks(), 1u);

  // Recovery at t=5s: everything stamped earlier is from the outage window.
  manager.MarkStale(FromSeconds(5));
  // A shorter mark must not shrink the window (max semantics).
  manager.MarkStale(FromSeconds(2));
  manager.Ingest(MakeTaskReport(FromSeconds(1), TaskId{JobVertexId{2}, 0}, 0.009,
                                0.01, 0.0));
  EXPECT_EQ(manager.tracked_tasks(), 1u);  // stale report dropped whole

  // Reports at/after the stale horizon flow again.
  manager.Ingest(MakeTaskReport(FromSeconds(6), t0, 0.004, 0.01, 0.0));
  const PartialSummary partial = manager.MakePartialSummary(FromSeconds(6));
  EXPECT_EQ(partial.vertices.count(2), 0u);
  EXPECT_NEAR(partial.vertices.at(1).first.service_mean, 0.003, 1e-12);
}

TEST(QosManager, PruneDropsScaledDownTasks) {
  JobGraph g = ThreeStageGraph();
  QosManager manager(5);
  const auto worker = g.VertexByName("Worker");
  for (std::uint32_t i = 0; i < 4; ++i) {
    manager.Ingest(MakeTaskReport(0, TaskId{worker, i}, 0.002, 0.01, 0.0));
  }
  EXPECT_EQ(manager.tracked_tasks(), 4u);
  g.SetParallelism(worker, 2);
  manager.Prune(RuntimeGraph::Expand(g));
  EXPECT_EQ(manager.tracked_tasks(), 2u);
}

TEST(QosManager, DropVertexErasesTasksAndAdjacentEdges) {
  JobGraph g = ThreeStageGraph();
  const auto worker = g.VertexByName("Worker");
  const auto source = g.VertexByName("Source");
  QosManager manager(5);
  manager.Ingest(MakeTaskReport(0, TaskId{worker, 0}, 0.002, 0.01, 0.0));
  manager.Ingest(MakeTaskReport(0, TaskId{source, 0}, 0.001, 0.02, 0.0));
  QosReport channels;
  ChannelMeasurement cm;
  cm.channel_latency = 0.01;
  cm.items = 10;
  channels.channels.emplace_back(ChannelId{JobEdgeId{0}, 0, 0}, cm);  // into Worker
  channels.channels.emplace_back(ChannelId{JobEdgeId{1}, 0, 0}, cm);  // out of Worker
  manager.Ingest(channels);

  manager.DropVertex(worker, {JobEdgeId{0}, JobEdgeId{1}});
  const PartialSummary partial = manager.MakePartialSummary(0);
  EXPECT_EQ(partial.vertices.count(Value(worker)), 0u);
  EXPECT_EQ(partial.vertices.count(Value(source)), 1u);  // untouched
  EXPECT_TRUE(partial.edges.empty());
}

TEST(MergeSummaries, WeightedAverageAcrossManagers) {
  PartialSummary p1;
  p1.time = FromSeconds(1);
  VertexSummary v1;
  v1.service_mean = 0.002;
  v1.arrival_rate = 100.0;
  p1.vertices[1] = {v1, 3};  // manager 1 saw 3 tasks

  PartialSummary p2;
  p2.time = FromSeconds(2);
  VertexSummary v2;
  v2.service_mean = 0.006;
  v2.arrival_rate = 200.0;
  p2.vertices[1] = {v2, 1};  // manager 2 saw 1 task

  const GlobalSummary global = MergeSummaries({p1, p2});
  EXPECT_EQ(global.time, FromSeconds(2));
  const VertexSummary& merged = global.vertex(JobVertexId{1});
  EXPECT_NEAR(merged.service_mean, (3 * 0.002 + 1 * 0.006) / 4.0, 1e-12);
  EXPECT_NEAR(merged.arrival_rate, (3 * 100.0 + 1 * 200.0) / 4.0, 1e-9);
  // Contributing-task count becomes the measured parallelism.
  EXPECT_DOUBLE_EQ(merged.measured_parallelism, 4.0);
}

TEST(MergeSummaries, EdgesMergeLikeVertices) {
  PartialSummary p1;
  p1.edges[0] = {EdgeSummary{0.010, 0.004}, 2};
  PartialSummary p2;
  p2.edges[0] = {EdgeSummary{0.020, 0.006}, 2};
  const GlobalSummary global = MergeSummaries({p1, p2});
  EXPECT_NEAR(global.edge(JobEdgeId{0}).channel_latency, 0.015, 1e-12);
  EXPECT_NEAR(global.edge(JobEdgeId{0}).output_batch_latency, 0.005, 1e-12);
}

TEST(MergeSummaries, ZeroWeightEntriesIgnored) {
  PartialSummary p1;
  p1.vertices[1] = {VertexSummary{}, 0};
  const GlobalSummary global = MergeSummaries({p1});
  EXPECT_FALSE(global.HasVertex(JobVertexId{1}));
}

TEST(EstimateSequenceLatency, SumsVerticesAndEdges) {
  const JobGraph g = ThreeStageGraph();
  const JobSequence seq = JobSequence::FromEdgeChain(g, {JobEdgeId{0}, JobEdgeId{1}});

  GlobalSummary summary;
  VertexSummary worker;
  worker.task_latency = 0.003;
  summary.vertices[Value(g.VertexByName("Worker"))] = worker;
  summary.edges[0] = EdgeSummary{0.010, 0.002};
  summary.edges[1] = EdgeSummary{0.005, 0.001};

  double latency = 0;
  ASSERT_TRUE(EstimateSequenceLatency(summary, seq, &latency));
  EXPECT_NEAR(latency, 0.018, 1e-12);
}

TEST(EstimateSequenceLatency, FailsWhenDataMissing) {
  const JobGraph g = ThreeStageGraph();
  const JobSequence seq = JobSequence::FromEdgeChain(g, {JobEdgeId{0}, JobEdgeId{1}});
  GlobalSummary summary;  // empty
  double latency = 0;
  EXPECT_FALSE(EstimateSequenceLatency(summary, seq, &latency));
}

}  // namespace
}  // namespace esp
