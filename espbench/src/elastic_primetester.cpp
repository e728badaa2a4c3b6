// Workload elastic_primetester: open loop into an elastic job.
//
//   Src(p=1) -rr-> PrimeTester(elastic, p in [1, 4]) -rr-> Sink(p=1)
//
// One source thread emits on a seeded Poisson schedule whose rate steps
// low -> high -> low.  Each PrimeTester record runs the real
// workloads::PrimeTestBurn plus a fixed simulated wait (the remote
// verification round trip of examples/primetester_local.cpp), so one task
// sustains about 1/(burn + wait) records per second and the peak step needs
// three tasks.  A latency constraint covers Src -> PrimeTester -> Sink and
// the scaler is on; the down-steps make it scale back down to one task.
// Latency is measured from each record's DUE time, so a stalled source or a
// rescale pause counts against every record it delays.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

#include "bench.h"
#include "common/rng.h"
#include "runtime/engine.h"
#include "trace.h"
#include "workloads/primes.h"

namespace espbench {

using esp::FromMillis;
using esp::FromSeconds;
using esp::JobGraph;
using esp::LatencyConstraint;
using esp::WiringPattern;
using esp::runtime::Collector;
using esp::runtime::EngineResult;
using esp::runtime::Get;
using esp::runtime::LocalEngine;
using esp::runtime::LocalEngineOptions;
using esp::runtime::MakeRecord;
using esp::runtime::Record;
using esp::runtime::SourceFunction;
using esp::runtime::Udf;

namespace {

enum Vertex : std::uint8_t { kSrc, kPrimeTester, kSink };
const std::vector<std::string> kVertexNames = {"Src", "PrimeTester", "Sink"};

// Workload shape.  One record costs kBurnRounds Miller-Rabin tests (about
// 60 us of CPU here) plus a kWait sleep, so one task serves C ~ 900 rec/s.
constexpr int kBurnRounds = 150;
constexpr auto kWait = std::chrono::microseconds(1000);
constexpr double kTaskCapacity = 900.0;  // C, rec/s
// Equal-length rate steps, in multiples of C: up through p = 1, 2, 3 at the
// scaler's target utilisation and back down.  Each step meets the tasks of
// the previous decision at most 75 % busy, so no step overloads them: the
// scaler tracks the rate by Rebalance rather than by emergency bottleneck
// resolution.
constexpr double kSteps[] = {0.35, 0.75, 1.5, 0.75, 0.35};
constexpr int kStepCount = sizeof(kSteps) / sizeof(kSteps[0]);
constexpr double kTargetUtilization = 0.6;
constexpr std::uint32_t kMaxParallelism = 4;
constexpr double kBoundMs = 40.0;  // the latency constraint l
const esp::SimDuration kMeasurementInterval = FromMillis(100);
const esp::SimDuration kAdjustmentInterval = FromMillis(500);

struct Arrival {
  std::int64_t due_ns;  // relative to the schedule start
  std::uint64_t number;
};

// Seeded Poisson arrivals over [0, length_ns) following kSteps; the first
// record is due at 0.
std::vector<Arrival> MakeSchedule(std::uint64_t seed, std::int64_t length_ns) {
  esp::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 0xE1A571C);
  const double step_ns = static_cast<double>(length_ns) / kStepCount;
  std::vector<Arrival> out;
  double t = 0;
  while (t < static_cast<double>(length_ns)) {
    out.push_back({static_cast<std::int64_t>(t), rng.Next() | 1});
    const int step = std::min(kStepCount - 1, static_cast<int>(t / step_ns));
    t += rng.Exponential(kSteps[step] * kTaskCapacity) * 1e9;
  }
  return out;
}

struct SourceState {
  std::uint64_t emitted = 0;
  std::int64_t start_ns = -1;  // bench time of schedule offset 0
  std::vector<double> late_ms;
};

class ScheduleSource final : public SourceFunction {
 public:
  ScheduleSource(const std::vector<Arrival>* schedule, SourceState* state)
      : schedule_(schedule), state_(state) {}

  bool Produce(Collector& out) override {
    if (state_->start_ns < 0) state_->start_ns = NowNs();
    if (state_->emitted >= schedule_->size()) return false;
    const std::int64_t due = state_->start_ns + (*schedule_)[state_->emitted].due_ns;
    SleepUntilNs(due);
    // Emit everything due by now (a late generator catches up in a burst).
    const std::int64_t now = NowNs();
    while (state_->emitted < schedule_->size()) {
      const Arrival& a = (*schedule_)[state_->emitted];
      const std::int64_t a_due = state_->start_ns + a.due_ns;
      if (a_due > now) break;
      const std::int64_t emit_ns = NowNs();
      state_->late_ms.push_back(static_cast<double>(emit_ns - a_due) * 1e-6);
      // key carries the bench-clock emit stamp (the edges are round-robin,
      // so the key routes nothing).
      out.Emit(MakeRecord<Stamped>(Stamped{state_->emitted, a_due, a.number},
                                   static_cast<std::uint64_t>(emit_ns)));
      ++state_->emitted;
    }
    return true;
  }

 private:
  const std::vector<Arrival>* schedule_;
  SourceState* state_;
};

class PrimeTesterUdf final : public Udf {
 public:
  void OnRecord(const Record& r, Collector& out) override {
    Stamped p = Get<Stamped>(r);
    p.value = static_cast<std::uint64_t>(esp::workloads::PrimeTestBurn(p.value, kBurnRounds));
    std::this_thread::sleep_for(kWait);
    out.Emit(Derived(r, p));
  }
};

struct Delivery {
  std::int64_t at_ns;
  std::int64_t due_latency_ns;
  std::int64_t emit_latency_ns;
};

// Written only by the live Sink instance (instances never overlap: a
// rescale joins the old epoch's threads before starting the new one), read
// after Run() returned.
struct SinkState {
  SeqBitmap seen;
  std::uint64_t duplicates = 0;
  std::uint64_t primes = 0;
  std::vector<Delivery> deliveries;
};

class CheckSink final : public Udf {
 public:
  explicit CheckSink(SinkState* state) : state_(state) {}
  void OnRecord(const Record& r, Collector&) override {
    const std::int64_t now = NowNs();
    const Stamped& p = Get<Stamped>(r);
    if (!state_->seen.Mark(p.seq)) ++state_->duplicates;
    state_->primes += p.value;
    state_->deliveries.push_back(
        {now, now - p.stamp_ns, now - static_cast<std::int64_t>(r.key)});
  }

 private:
  SinkState* state_;
};

struct RunOutput {
  EngineResult engine;
  SourceState source;
  SinkState sink;
  std::vector<InstanceLife> pt_life;
  std::int64_t ctor_start_ns = 0;
  std::int64_t ctor_end_ns = 0;
  std::int64_t run_start_ns = 0;
  std::int64_t run_end_ns = 0;
  double cpu_seconds = 0;
};

void RunJob(const std::vector<Arrival>& schedule, bool traced, RunOutput& out) {
  JobGraph graph;
  const auto src = graph.AddVertex({.name = "Src", .parallelism = 1, .max_parallelism = 1});
  const auto pt = graph.AddVertex({.name = "PrimeTester",
                                   .parallelism = 1,
                                   .min_parallelism = 1,
                                   .max_parallelism = kMaxParallelism,
                                   .elastic = true});
  const auto sink = graph.AddVertex({.name = "Sink", .parallelism = 1, .max_parallelism = 1});
  const auto e1 = graph.Connect(src, pt, WiringPattern::kRoundRobin);
  const auto e2 = graph.Connect(pt, sink, WiringPattern::kRoundRobin);
  const LatencyConstraint constraint{esp::JobSequence::FromEdgeChain(graph, {e1, e2}),
                                     FromMillis(kBoundMs), FromSeconds(2), "prime-latency"};

  LocalEngineOptions options;
  options.shipping = esp::ShippingStrategy::kAdaptive;
  options.measurement_interval = kMeasurementInterval;
  options.adjustment_interval = kAdjustmentInterval;
  options.scaler.enabled = true;
  options.scaler.strategy.max_target_utilization = kTargetUtilization;

  out.ctor_start_ns = NowNs();
  LocalEngine engine(std::move(graph), options);
  out.ctor_end_ns = NowNs();

  LifecycleLog pt_log;
  SourceState* source_state = &out.source;
  SinkState* sink_state = &out.sink;
  esp::runtime::SourceFunctionFactory source = [&schedule, source_state](std::uint32_t) {
    return std::make_unique<ScheduleSource>(&schedule, source_state);
  };
  esp::runtime::UdfFactory tester = [](std::uint32_t) {
    return std::make_unique<PrimeTesterUdf>();
  };
  esp::runtime::UdfFactory check = [sink_state](std::uint32_t) {
    return std::make_unique<CheckSink>(sink_state);
  };
  if (traced) {
    source = Traced(std::move(source), kSrc);
    tester = Traced(std::move(tester), kPrimeTester);
    check = Traced(std::move(check), kSink);
  }
  engine.SetSource("Src", source);
  engine.SetUdf("PrimeTester", WithLifecycle(tester, &pt_log));
  engine.SetUdf("Sink", check);
  engine.AddConstraint(constraint);

  const double cpu0 = ProcessCpuSeconds();
  out.run_start_ns = NowNs();
  out.engine = engine.Run(FromSeconds(120));
  out.run_end_ns = NowNs();
  out.cpu_seconds = ProcessCpuSeconds() - cpu0;
  out.pt_life = pt_log.Instances();
}

// One PrimeTester epoch: the instances one factory burst created.
struct Generation {
  std::vector<InstanceLife> instances;
  std::int64_t first_factory_ns() const { return instances.front().factory_ns; }
  std::int64_t first_open_ns() const {
    std::int64_t t = instances.front().open_ns;
    for (const auto& i : instances) t = std::min(t, i.open_ns);
    return t;
  }
  std::int64_t first_record_ns() const {
    std::int64_t t = -1;
    for (const auto& i : instances) {
      if (i.first_record_ns >= 0 && (t < 0 || i.first_record_ns < t)) t = i.first_record_ns;
    }
    return t;
  }
  std::int64_t last_record_end_ns() const {
    std::int64_t t = -1;
    for (const auto& i : instances) t = std::max(t, i.last_record_end_ns);
    return t;
  }
  std::int64_t first_close_ns() const {
    std::int64_t t = instances.front().close_ns;
    for (const auto& i : instances) t = std::min(t, i.close_ns);
    return t;
  }
};

// Factory calls come in subtask order per epoch build, so subtask 0 opens a
// new generation.
std::vector<Generation> Generations(const std::vector<InstanceLife>& life) {
  std::vector<Generation> gens;
  for (const InstanceLife& i : life) {
    if (i.subtask == 0 || gens.empty()) gens.emplace_back();
    gens.back().instances.push_back(i);
  }
  return gens;
}

struct Analysis {
  std::uint64_t delivered = 0;
  double records_per_s = 0, p50_ms = 0, p95_ms = 0, p99_ms = 0, cpu_us = 0;
  double held_frac = 0, task_s = 0, pause_ms = 0;
  double drain_ms = 0, rebuild_ms = 0, resume_ms = 0;
  double react_s = 0, est_err_p50 = 0, est_ratio_p50 = 0;
  std::uint32_t rescales = 0, scale_ups = 0, scale_downs = 0, peak_p = 0;
  std::size_t rounds = 0;
};

Analysis Analyse(const RunOutput& run, std::int64_t schedule_ns) {
  Analysis a;
  const auto& d = run.sink.deliveries;
  a.delivered = d.size();
  std::vector<double> due_ms;
  due_ms.reserve(d.size());
  std::int64_t last_delivery = run.source.start_ns;
  for (const Delivery& x : d) {
    due_ms.push_back(static_cast<double>(x.due_latency_ns) * 1e-6);
    last_delivery = std::max(last_delivery, x.at_ns);
  }
  a.p50_ms = Quantile(due_ms, 0.50);
  a.p95_ms = Quantile(due_ms, 0.95);
  a.p99_ms = Quantile(due_ms, 0.99);
  a.records_per_s =
      static_cast<double>(d.size()) / (static_cast<double>(last_delivery - run.source.start_ns) * 1e-9);
  a.cpu_us = run.cpu_seconds * 1e6 / static_cast<double>(std::max<std::size_t>(1, d.size()));

  // Adjustment intervals on the engine's cadence (Run start + k * interval):
  // mean latency per interval from the bench stamps.
  const std::int64_t interval = kAdjustmentInterval;
  const auto rounds =
      static_cast<std::size_t>((run.run_end_ns - run.run_start_ns) / interval) + 1;
  std::vector<double> due_sum(rounds, 0), emit_sum(rounds, 0);
  std::vector<std::uint64_t> n(rounds, 0);
  for (const Delivery& x : d) {
    const auto k = static_cast<std::size_t>((x.at_ns - run.run_start_ns) / interval);
    if (k >= rounds) continue;
    due_sum[k] += static_cast<double>(x.due_latency_ns) * 1e-9;
    emit_sum[k] += static_cast<double>(x.emit_latency_ns) * 1e-9;
    ++n[k];
  }
  std::size_t held = 0, with_data = 0;
  for (std::size_t k = 0; k < rounds; ++k) {
    if (n[k] == 0) continue;
    ++with_data;
    if (due_sum[k] / static_cast<double>(n[k]) <= kBoundMs * 1e-3) ++held;
  }
  a.rounds = with_data;
  a.held_frac = with_data > 0 ? static_cast<double>(held) / static_cast<double>(with_data) : 0;

  // Model error: round j's estimate summarises the interval ending at
  // (j + 1) * interval, compared with the bench-measured emit-to-sink mean.
  std::vector<double> ratio, err;
  for (std::size_t j = 0; j < run.engine.estimated_latency.size() && j < rounds; ++j) {
    const double est = run.engine.estimated_latency[j].empty() ? -1
                                                                : run.engine.estimated_latency[j][0];
    if (est <= 0 || n[j] == 0) continue;
    const double measured = emit_sum[j] / static_cast<double>(n[j]);
    ratio.push_back(est / measured);
    err.push_back(std::fabs(est / measured - 1.0));
  }
  a.est_ratio_p50 = Median(ratio);
  a.est_err_p50 = Median(err);

  // Task-seconds, rescales and the pause split from PrimeTester lifecycles.
  for (const InstanceLife& i : run.pt_life) {
    if (i.open_ns >= 0 && i.close_ns >= i.open_ns) {
      a.task_s += static_cast<double>(i.close_ns - i.open_ns) * 1e-9;
    }
  }
  const std::vector<Generation> gens = Generations(run.pt_life);
  // react_s: from the first up-step to the first record at a higher
  // parallelism.
  const std::int64_t step_up_ns = run.source.start_ns + schedule_ns / kStepCount;
  for (std::size_t g = 0; g < gens.size(); ++g) {
    const auto p = static_cast<std::uint32_t>(gens[g].instances.size());
    a.peak_p = std::max(a.peak_p, p);
    if (g == 0) continue;
    const auto prev = static_cast<std::uint32_t>(gens[g - 1].instances.size());
    ++a.rescales;
    if (p > prev) ++a.scale_ups;
    if (p < prev) ++a.scale_downs;
    const Generation& old_gen = gens[g - 1];
    const Generation& new_gen = gens[g];
    const std::int64_t new_first = new_gen.first_record_ns();
    if (new_first < 0) continue;
    const double pause = static_cast<double>(new_first - old_gen.first_close_ns()) * 1e-6;
    if (pause >= a.pause_ms) {
      a.pause_ms = pause;
      a.drain_ms = static_cast<double>(
                       std::max<std::int64_t>(0, old_gen.first_close_ns() - old_gen.last_record_end_ns())) *
                   1e-6;
      a.rebuild_ms = static_cast<double>(new_gen.first_factory_ns() - old_gen.first_close_ns()) * 1e-6;
      a.resume_ms = static_cast<double>(new_first - new_gen.first_open_ns()) * 1e-6;
    }
    if (a.react_s == 0 && p > prev && new_gen.first_factory_ns() >= step_up_ns) {
      a.react_s = static_cast<double>(new_first - step_up_ns) * 1e-9;
    }
  }
  return a;
}

std::uint64_t CheckRun(const RunOutput& run, const std::vector<Arrival>& schedule,
                       std::uint64_t reference_primes, const std::string& label,
                       Report& report) {
  const EngineResult& e = run.engine;
  const std::uint64_t offered = schedule.size();
  report.Check(e.clean(), label + ": engine run clean " + e.first_failure());
  report.Check(run.source.emitted == offered && e.records_emitted == offered,
               label + ": every scheduled record emitted (" + std::to_string(e.records_emitted) +
                   " of " + std::to_string(offered) + ")");
  const bool exact = run.sink.duplicates == 0 && run.sink.seen.CountBelow(offered) == offered &&
                     run.sink.deliveries.size() == offered;
  report.Check(exact, label + ": every record delivered exactly once (" +
                          std::to_string(run.sink.deliveries.size()) + " delivered, " +
                          std::to_string(run.sink.duplicates) + " dup)");
  report.Check(run.sink.primes == reference_primes,
               label + ": prime count matches the single-threaded reference (" +
                   std::to_string(run.sink.primes) + " vs " + std::to_string(reference_primes) +
                   ")");
  report.Check(e.records_emitted <= e.records_delivered + e.records_shed &&
                   e.records_delivered + e.records_shed <=
                       e.records_emitted + e.records_redelivered,
               label + ": emitted <= delivered + shed <= emitted + redelivered");
  const std::uint64_t distinct = run.sink.seen.CountBelow(offered);
  return distinct - std::min(distinct, run.sink.duplicates);
}

}  // namespace

int RunElasticPrimeTester(const Options& options, Report& report) {
  // Set-up probes: construction to first Sink delivery of a 1-record
  // schedule; 5 before the measured run and 4 after it, so a transient
  // slowdown of the host moves a few probes, not the median.
  std::vector<double> setup_s, ctor_ms, first_record_ms;
  const auto probe_setup = [&](int probes) {
    const std::vector<Arrival> probe_schedule = {{0, 1000003}};
    for (int i = 0; i < probes; ++i) {
      RunOutput probe;
      RunJob(probe_schedule, false, probe);
      report.Check(probe.engine.clean() && probe.sink.deliveries.size() == 1,
                   "setup probe: one record delivered");
      report.attempted += 1;
      report.failed += probe.sink.deliveries.size() == 1 ? 0 : 1;
      const std::int64_t first = probe.sink.deliveries.empty() ? probe.run_end_ns
                                                               : probe.sink.deliveries[0].at_ns;
      setup_s.push_back(static_cast<double>(first - probe.ctor_start_ns) * 1e-9);
      ctor_ms.push_back(static_cast<double>(probe.ctor_end_ns - probe.ctor_start_ns) * 1e-6);
      first_record_ms.push_back(static_cast<double>(first - probe.run_start_ns) * 1e-6);
    }
  };
  probe_setup(5);

  // A traced run measures the schedule twice at half length, untraced then
  // traced, so the tracing overhead is a same-process comparison.
  const double run_share = options.trace ? 0.42 : 0.85;
  const auto schedule_ns = static_cast<std::int64_t>(options.seconds * run_share * 1e9);
  const std::vector<Arrival> schedule = MakeSchedule(options.seed, schedule_ns);

  // Single-threaded reference over the same numbers, outside the timed run.
  const std::int64_t ref0 = NowNs();
  std::uint64_t reference_primes = 0;
  for (const Arrival& a : schedule) {
    reference_primes +=
        static_cast<std::uint64_t>(esp::workloads::PrimeTestBurn(a.number, kBurnRounds));
  }
  const double primetest_us =
      static_cast<double>(NowNs() - ref0) * 1e-3 / static_cast<double>(schedule.size());

  RunOutput run;
  RunJob(schedule, false, run);
  probe_setup(4);
  report.attempted += schedule.size();
  report.failed += schedule.size() - CheckRun(run, schedule, reference_primes, "run", report);
  const Analysis a = Analyse(run, schedule_ns);

  // Bench stamps vs the engine's own end-to-end histogram (emit to sink):
  // the engine's stamp is its emit time, so compare with the bench's
  // emit-stamped latency.  Tolerance: 25 % of the engine's p50 + 0.5 ms.
  std::vector<double> emit_ms;
  for (const Delivery& x : run.sink.deliveries) {
    emit_ms.push_back(static_cast<double>(x.emit_latency_ns) * 1e-6);
  }
  const double bench_p50 = Quantile(emit_ms, 0.5);
  const double engine_p50 = run.engine.latency.Quantile(0.5) * 1e3;
  report.Check(std::fabs(bench_p50 - engine_p50) <= 0.25 * engine_p50 + 0.5,
               "bench-stamped emit latency p50 agrees with EngineResult::latency p50 (" +
                   std::to_string(bench_p50) + " ms vs " + std::to_string(engine_p50) +
                   " ms, tolerance 25% + 0.5 ms)");
  report.Meta("latency_samples", static_cast<double>(a.delivered));
  report.Meta("setup_probe_s", setup_s);
  report.Meta("latency_p99_ms", a.p99_ms);
  report.Meta("adjustment_rounds_with_data", static_cast<double>(a.rounds));
  report.Meta("schedule_records", static_cast<double>(schedule.size()));
  report.Meta("engine_rescales", static_cast<double>(run.engine.rescales));

  if (!options.trace) {
    report.Set("records_per_s", a.records_per_s, "rec/s");
    report.Set("latency_p50_ms", a.p50_ms, "ms");
    report.Set("latency_p95_ms", a.p95_ms, "ms");
    report.Set("cpu_us_per_rec", a.cpu_us, "us");
    report.Set("setup_s", Median(setup_s), "s");
    report.Set("peak_rss_mb", PeakRssMiB(), "MiB");
    // Workload-specific end-to-end figures, printed for the reader.
    report.Meta("constraint_held_frac", a.held_frac);
    report.Meta("task_s", a.task_s);
    report.Meta("rescale_pause_ms", a.pause_ms);
    return 0;
  }

  Tracer::Reset(16);
  RunOutput traced;
  RunJob(schedule, true, traced);
  report.attempted += schedule.size();
  report.failed +=
      schedule.size() - CheckRun(traced, schedule, reference_primes, "traced run", report);
  const Analysis t = Analyse(traced, schedule_ns);

  // Per-layer figures of the traced run.
  ReportEdgeLayers(report, kSrc, kPrimeTester, kPrimeTester, kSink);
  report.Set("runtime.rescale_pause_ms", t.pause_ms, "ms");
  report.Set("runtime.rescale_drain_ms", t.drain_ms, "ms");
  report.Set("runtime.rescale_rebuild_ms", t.rebuild_ms, "ms");
  report.Set("runtime.rescale_resume_ms", t.resume_ms, "ms");
  report.Set("runtime.ctor_ms", Median(ctor_ms), "ms");
  report.Set("runtime.first_record_ms", Median(first_record_ms), "ms");
  report.Set("runtime.records_redelivered",
             static_cast<double>(traced.engine.records_redelivered), "count");
  report.Set("runtime.records_shed", static_cast<double>(traced.engine.records_shed), "count");
  report.Set("core.constraint_held_frac", t.held_frac, "1");
  report.Set("core.task_s", t.task_s, "s");
  report.Set("core.rescales", t.rescales, "count");
  report.Set("core.scale_ups", t.scale_ups, "count");
  report.Set("core.scale_downs", t.scale_downs, "count");
  report.Set("core.react_s", t.react_s, "s");
  report.Set("core.peak_parallelism", t.peak_p, "count");
  report.Set("model.est_err_p50", t.est_err_p50, "1");
  report.Set("model.est_bias", std::fabs(t.est_ratio_p50 - 1.0), "1");
  report.Meta("model_est_ratio_p50", t.est_ratio_p50);
  report.Set("workloads.primetest_us", primetest_us, "us");
  report.Set("workloads.gen_late_p99_ms", Quantile(traced.source.late_ms, 0.99), "ms");
  report.Set("bench.trace_overhead_frac", t.cpu_us / a.cpu_us - 1.0, "1");
  if (!options.out_dir.empty()) {
    Tracer::WriteSpans(options.out_dir + "/spans-elastic_primetester-" +
                           std::to_string(options.seed) + ".tsv",
                       kVertexNames);
  }
  return 0;
}

}  // namespace espbench
