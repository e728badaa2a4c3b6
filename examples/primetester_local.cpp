// PrimeTester on the threaded local runtime with REAL Miller-Rabin testing
// and live elastic scaling (the laptop-scale sibling of bench/fig6).
//
//   RandomNumbers --rr--> PrimeTester(elastic, 1..6) --rr--> Sink
//
// Each record costs ~0.35 ms of real Miller-Rabin CPU plus a simulated
// 2 ms remote-verification wait, so one PrimeTester task sustains ~2.4 ms
// per record.  The source quadruples its rate after ~6 s (6 ms -> 1.5 ms
// spacing), saturating the single task; watch the engine resolve the
// bottleneck by rescaling PrimeTester (stop-the-world, like Flink's
// reactive mode).  The wait component overlaps across tasks, so scaling
// helps even on a single-core machine.  Run:
//
//   ./build/examples/primetester_local
#include <atomic>
#include <exception>
#include <chrono>
#include <cstdio>
#include <utility>

#include "common/rng.h"
#include "runtime/engine.h"
#include "workloads/primes.h"

using namespace esp;
using namespace esp::runtime;

namespace {

// Emits random odd 64-bit integers; the rate doubles after `switch_at`.
class RandomNumberSource final : public SourceFunction {
 public:
  RandomNumberSource(int total, std::chrono::microseconds slow_interval,
                     std::chrono::steady_clock::time_point switch_at)
      : total_(total), slow_interval_(slow_interval), switch_at_(switch_at), rng_(99) {}

  bool Produce(Collector& out) override {
    if (produced_ >= total_) return false;
    const std::uint64_t n = rng_.Next() | 1;
    out.Emit(MakeRecord<std::uint64_t>(n, n));
    ++produced_;
    const auto interval = std::chrono::steady_clock::now() >= switch_at_
                              ? slow_interval_ / 4
                              : slow_interval_;
    std::this_thread::sleep_for(interval);
    return true;
  }

 private:
  int total_;
  std::chrono::microseconds slow_interval_;
  std::chrono::steady_clock::time_point switch_at_;
  Rng rng_;
  int produced_ = 0;
};

// Tests `rounds` consecutive odd numbers for primality (the paper's CPU
// burner), then "verifies" the result against a simulated remote service
// with a fixed round-trip, and forwards the count.
class PrimeTesterUdf final : public Udf {
 public:
  PrimeTesterUdf(int rounds, std::chrono::microseconds verify_rtt)
      : rounds_(rounds), verify_rtt_(verify_rtt) {}

  void OnRecord(const Record& r, Collector& out) override {
    const int primes = workloads::PrimeTestBurn(Get<std::uint64_t>(r), rounds_);
    std::this_thread::sleep_for(verify_rtt_);  // simulated verification RTT
    Record result = MakeRecord<int>(primes, r.key);
    result.source_emit_ns = r.source_emit_ns;  // keep the lineage: latency is source-to-sink
    out.Emit(std::move(result));
  }

 private:
  int rounds_;
  std::chrono::microseconds verify_rtt_;
};

// Rescale-safe aggregate: UDF instances are recreated on every rescale
// (stop-the-world semantics), so durable state lives outside the UDF.
struct SinkTotals {
  std::atomic<long long> records{0};
  std::atomic<long long> primes{0};
};

class CountSink final : public Udf {
 public:
  explicit CountSink(SinkTotals* totals) : totals_(totals) {}
  void OnRecord(const Record& r, Collector&) override {
    totals_->records.fetch_add(1);
    totals_->primes.fetch_add(Get<int>(r));
  }

 private:
  SinkTotals* totals_;
};

}  // namespace

static int Run() {
  JobGraph graph;
  const auto src = graph.AddVertex({.name = "RandomNumbers", .parallelism = 1,
                                    .max_parallelism = 1});
  const auto pt = graph.AddVertex({.name = "PrimeTester", .parallelism = 1,
                                   .min_parallelism = 1, .max_parallelism = 6,
                                   .elastic = true});
  const auto snk = graph.AddVertex({.name = "Sink", .parallelism = 1,
                                    .max_parallelism = 1});
  const auto e1 = graph.Connect(src, pt, WiringPattern::kRoundRobin);
  const auto e2 = graph.Connect(pt, snk, WiringPattern::kRoundRobin);
  const LatencyConstraint constraint{JobSequence::FromEdgeChain(graph, {e1, e2}),
                                     FromMillis(50), FromSeconds(10), "prime-latency"};

  LocalEngineOptions options;
  options.shipping = ShippingStrategy::kAdaptive;
  options.measurement_interval = FromMillis(500);
  options.adjustment_interval = FromMillis(2000);
  options.scaler.enabled = true;

  LocalEngine engine(std::move(graph), options);
  const auto switch_at = std::chrono::steady_clock::now() + std::chrono::seconds(6);
  engine.SetSource("RandomNumbers", [switch_at](std::uint32_t) {
    return std::make_unique<RandomNumberSource>(5000, std::chrono::microseconds(6000),
                                                switch_at);
  });
  engine.SetUdf("PrimeTester", [](std::uint32_t) {
    return std::make_unique<PrimeTesterUdf>(1000, std::chrono::microseconds(2000));
  });
  SinkTotals totals;
  engine.SetUdf("Sink",
                [&totals](std::uint32_t) { return std::make_unique<CountSink>(&totals); });
  engine.AddConstraint(constraint);

  std::printf("running PrimeTester locally; the rate quadruples after ~6 s...\n");
  const EngineResult result = engine.Run(FromSeconds(60));

  std::printf("sink: %lld records, %lld probable primes found\n", totals.records.load(),
              totals.primes.load());
  std::printf("emitted=%llu delivered=%llu rescales=%u final p(PrimeTester)=%u\n",
              static_cast<unsigned long long>(result.records_emitted),
              static_cast<unsigned long long>(result.records_delivered), result.rescales,
              result.final_parallelism.at("PrimeTester"));
  std::printf("end-to-end latency: %s (seconds)\n", result.latency.Summary().c_str());
  if (!result.clean()) std::printf("FAILURE: %s\n", result.first_failure().c_str());
  return result.clean() ? 0 : 1;
}

// A throw escaping main is std::terminate with no diagnostic; surface the
// error instead (bugprone-exception-escape).
int main() {
  try {
    return Run();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fatal: %s\n", e.what());
    return 1;
  } catch (...) {
    std::fprintf(stderr, "fatal: unknown exception\n");
    return 1;
  }
}
