// Quickstart: the smallest complete job on the threaded local runtime.
//
//   Numbers --round-robin--> Square --round-robin--> Print
//
// with a 25 ms latency constraint driving adaptive output batching.  Run:
//
//   ./build/examples/quickstart
//
// What to look for: every record arrives exactly once (the program exits 1
// otherwise), and the end-to-end latency histogram sits comfortably under
// the constraint because the engine picks flush deadlines from the
// constraint budget.
#include <cstdio>
#include <exception>
#include <utility>

#include "runtime/engine.h"

using namespace esp;
using namespace esp::runtime;

namespace {

// Emits the integers 0..total-1, roughly one per millisecond.
class NumberSource final : public SourceFunction {
 public:
  explicit NumberSource(int total) : total_(total) {}

  bool Produce(Collector& out) override {
    if (next_ >= total_) return false;
    out.Emit(MakeRecord<long long>(next_, static_cast<std::uint64_t>(next_)));
    ++next_;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    return true;
  }

 private:
  int total_;
  int next_ = 0;
};

class SquareUdf final : public Udf {
 public:
  void OnRecord(const Record& r, Collector& out) override {
    const long long v = Get<long long>(r);
    Record square = MakeRecord<long long>(v * v, r.key);
    square.source_emit_ns = r.source_emit_ns;  // keep the lineage: latency is source-to-sink
    out.Emit(std::move(square));
  }
};

class SumSink final : public Udf {
 public:
  void OnRecord(const Record& r, Collector&) override { sum_ += Get<long long>(r); }
  void Close() override { std::printf("sum of squares = %lld\n", sum_); }

 private:
  long long sum_ = 0;
};

}  // namespace

static int Run() {
  // 1. Describe the job graph: name, parallelism, wiring.
  JobGraph graph;
  const auto src = graph.AddVertex({.name = "Numbers", .parallelism = 1,
                                    .max_parallelism = 1});
  const auto mid = graph.AddVertex({.name = "Square", .parallelism = 2,
                                    .min_parallelism = 1, .max_parallelism = 4});
  const auto snk = graph.AddVertex({.name = "Print", .parallelism = 1,
                                    .max_parallelism = 1});
  const auto e1 = graph.Connect(src, mid, WiringPattern::kRoundRobin);
  const auto e2 = graph.Connect(mid, snk, WiringPattern::kRoundRobin);

  // 2. Declare the latency requirement (paper §II-A5): mean latency over
  //    the sequence e1 -> Square -> e2 within any 10 s window <= 25 ms.
  const LatencyConstraint constraint{JobSequence::FromEdgeChain(graph, {e1, e2}),
                                     FromMillis(25), FromSeconds(10), "quickstart"};

  // 3. Attach the user code and run.
  LocalEngineOptions options;
  options.shipping = ShippingStrategy::kAdaptive;
  LocalEngine engine(std::move(graph), options);
  engine.SetSource("Numbers", [](std::uint32_t) { return std::make_unique<NumberSource>(2000); });
  engine.SetUdf("Square", [](std::uint32_t) { return std::make_unique<SquareUdf>(); });
  engine.SetUdf("Print", [](std::uint32_t) { return std::make_unique<SumSink>(); });
  engine.AddConstraint(constraint);

  const EngineResult result = engine.Run(FromSeconds(30));

  std::printf("emitted=%llu delivered=%llu\n",
              static_cast<unsigned long long>(result.records_emitted),
              static_cast<unsigned long long>(result.records_delivered));
  std::printf("end-to-end latency: %s (seconds)\n", result.latency.Summary().c_str());
  if (!result.clean()) std::printf("FAILURE: %s\n", result.first_failure().c_str());
  if (result.records_emitted != result.records_delivered) {
    std::printf("FAILURE: emitted != delivered\n");
    return 1;
  }
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
