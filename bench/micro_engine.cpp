// Hot-path microbenchmark for the threaded LocalEngine data plane.
//
// Drives a 1-source / 1-map / 1-sink pipeline with trivial UDFs at full
// blast, so the measured records/sec is dominated by the runtime's
// per-record overhead (queue hand-off, wakeups, metric updates) rather than
// user code.  One row per shipping strategy; `--tsv` additionally writes
// micro_engine.tsv next to the binary.  EXPERIMENTS.md records the
// baseline (pre-batching) vs. optimized numbers.
//
// Fault-injection mode: `--fail-at N` makes the Map task throw at its Nth
// record and `--policy restart-task|restart-epoch|fail-fast` selects the
// recovery policy, so recovery overhead can be measured against the clean
// run; `--seed S` seeds the injector for reproducible schedules.
//
// Payload classes: `--payload-size 8|24|64` picks the record payload -- 8
// (int) and 24 (boundary struct) ride the inline small-buffer path, 64
// exceeds the inline capacity and exercises the boxed shared_ptr path.
// The allocs/rec column reports heap allocations per delivered record over
// the engine run (requires a -DESP_COUNT_ALLOCS=ON build, "n/a" otherwise).
//
// Chaining rows: the three base rows (instant/fixed/adaptive) run with task
// chaining DISABLED so every hop crosses an input queue and the rows stay
// comparable with the historical baselines; "chained" (Map->Snk fused onto
// one thread, the engine's default configuration) measures fusion.
// `--chaining on|off` overrides the BASE rows, e.g. to measure recovery
// overhead under fusion.
//
// Fan-in row: "fanin" runs N full-blast sources (default 8, `--fanin N`)
// into a single sink so the multi-producer input path is measured, not just
// the 1:1 pipeline.  This row caps the output batch at 8 records: it exists
// to measure the fan-in edge's per-push synchronization (what the §14
// per-producer lanes keep lock-free), and 64-record producer batches would
// amortize exactly that cost into the noise.
//
// Overload mode: `--overload-burst` replaces the shipping rows with a
// saturation scenario -- a full-blast source against a ~200 us/record map
// (offered load far over capacity, no scaling headroom) under a 5 ms
// constraint -- run twice: guard off (baseline: queues fill, the constraint
// silently fails) and guard on (the DESIGN.md §11 ladder sheds at
// admission).  The guard-on row is "exact" when the shed accounting closes:
// emitted == delivered + shed with zero redelivery.
//
// Repetitions: every run starts with a discarded warm-up pass of all rows
// at a tenth of the records (thread start-up, page faults, allocator and
// histogram tables warmed), then runs `--reps N` measured passes (default
// 3) and reports, per row, the pass with the median records/s; the JSON
// also lists every pass's records/s.  Exactness is required of every
// measured pass.
//
// Usage: see kUsage below.  Unknown flags are rejected (exit 2), so a
// mistyped or retired flag cannot silently measure the defaults.
#include <algorithm>
#include <chrono>
#include <exception>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/alloc_counter.h"
#include "graph/job_graph.h"
#include "runtime/engine.h"
#include "runtime/record.h"
#include "runtime/udf.h"

namespace esp::bench {
namespace {

using runtime::Collector;
using runtime::EngineResult;
using runtime::LocalEngine;
using runtime::LocalEngineOptions;
using runtime::FailurePolicy;
using runtime::FaultInjector;
using runtime::Record;
using runtime::SourceFunction;
using runtime::Udf;

constexpr const char* kUsage =
    "usage: micro_engine [--records N] [--reps N] [--queue N] [--batch N] [--seed S]\n"
    "                    [--payload-size 8|24|64] [--chaining on|off] [--fanin N]\n"
    "                    [--fail-at N] [--policy P]\n"
    "                    [--overload-burst] [--tsv] [--json]\n";

// True when every argument is a known flag (value flags followed by their
// value); otherwise prints the offending argument and the usage.
bool ArgsValid(int argc, char** argv) {
  static constexpr const char* kValueFlags[] = {
      "--records", "--reps",   "--queue",   "--batch",  "--seed",
      "--payload-size", "--chaining", "--fanin", "--fail-at", "--policy"};
  static constexpr const char* kSwitches[] = {"--overload-burst", "--tsv", "--json"};
  const auto in = [](const auto& flags, const char* arg) {
    return std::any_of(std::begin(flags), std::end(flags),
                       [arg](const char* f) { return std::strcmp(f, arg) == 0; });
  };
  for (int i = 1; i < argc; ++i) {
    if (in(kSwitches, argv[i])) continue;
    if (in(kValueFlags, argv[i]) && i + 1 < argc) {
      ++i;
      continue;
    }
    std::fprintf(stderr, "micro_engine: unknown flag or missing value: '%s'\n%s",
                 argv[i], kUsage);
    return false;
  }
  return true;
}

int ArgInt(int argc, char** argv, const char* flag, int fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return std::atoi(argv[i + 1]);
  }
  return fallback;
}

const char* ArgStr(int argc, char** argv, const char* flag, const char* fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return argv[i + 1];
  }
  return fallback;
}

FailurePolicy ParsePolicy(const char* name) {
  if (std::strcmp(name, "restart-task") == 0) return FailurePolicy::kRestartTask;
  if (std::strcmp(name, "restart-epoch") == 0) return FailurePolicy::kRestartEpoch;
  if (std::strcmp(name, "fail-fast") == 0) return FailurePolicy::kFailFast;
  std::fprintf(stderr, "unknown --policy '%s' (want fail-fast|restart-task|restart-epoch)\n",
               name);
  std::exit(2);
}

// Payload classes selected by --payload-size.  int and Payload24 take the
// inline small-buffer path of Record; Payload64 exceeds kInlineCapacity and
// is boxed behind a shared_ptr (one allocation per MakeRecord).
struct Payload24 {
  std::uint64_t a, b, c;
};
struct Payload64 {
  std::uint64_t w[8];
};
static_assert(runtime::IsInlinePayload<int>);
static_assert(runtime::IsInlinePayload<Payload24>);
static_assert(!runtime::IsInlinePayload<Payload64>);

template <typename P>
P MakePayload(std::uint64_t v);
template <>
int MakePayload<int>(std::uint64_t v) {
  return static_cast<int>(v);
}
template <>
Payload24 MakePayload<Payload24>(std::uint64_t v) {
  return Payload24{v, v + 1, v + 2};
}
template <>
Payload64 MakePayload<Payload64>(std::uint64_t v) {
  Payload64 p{};
  p.w[0] = v;
  return p;
}

template <typename P>
std::uint64_t PayloadValue(const P& p) {
  return p.a;
}
template <>
std::uint64_t PayloadValue<int>(const int& p) {
  return static_cast<std::uint64_t>(p);
}
template <>
std::uint64_t PayloadValue<Payload64>(const Payload64& p) {
  return p.w[0];
}

// Emits `total` records as fast as Produce() is called.
template <typename P>
class BlastSource final : public SourceFunction {
 public:
  explicit BlastSource(int total) : total_(total) {}

  bool Produce(Collector& out) override {
    if (next_ >= total_) return false;
    out.Emit(runtime::MakeRecord<P>(MakePayload<P>(static_cast<std::uint64_t>(next_)),
                                    static_cast<std::uint64_t>(next_)));
    ++next_;
    return true;
  }

 private:
  int total_;
  int next_ = 0;
};

// The cheapest non-trivial map: one multiply, one emit.
template <typename P>
class MulUdf final : public Udf {
 public:
  void OnRecord(const Record& r, Collector& out) override {
    out.Emit(runtime::MakeRecord<P>(
        MakePayload<P>(PayloadValue<P>(runtime::Get<P>(r)) * 3), r.key));
  }
};

class NullSink final : public Udf {
 public:
  void OnRecord(const Record&, Collector&) override {}
};

// A deliberately slow map for the overload scenario: spins ~`busy` per
// record so the stage's capacity is a known constant and a full-blast
// source oversubscribes it by orders of magnitude.
template <typename P>
class BusyMulUdf final : public Udf {
 public:
  explicit BusyMulUdf(std::chrono::microseconds busy) : busy_(busy) {}

  void OnRecord(const Record& r, Collector& out) override {
    const auto until = std::chrono::steady_clock::now() + busy_;
    while (std::chrono::steady_clock::now() < until) {
    }
    out.Emit(runtime::MakeRecord<P>(
        MakePayload<P>(PayloadValue<P>(runtime::Get<P>(r)) * 3), r.key));
  }

 private:
  std::chrono::microseconds busy_;
};

struct Row {
  std::string config;
  int records = 0;
  double elapsed_s = 0;
  double rate = 0;       // records/sec end to end
  double p50_ms = 0;
  double p99_ms = 0;
  bool exact = false;    // delivered == emitted == records
  std::uint32_t restarts = 0;
  std::uint64_t redelivered = 0;
  double allocs_per_record = -1;  // < 0: counting allocator not built in
  std::uint64_t shed = 0;         // --overload-burst rows only
  std::uint32_t shed_windows = 0;
  std::vector<double> rep_rates;  // records/s of every measured pass
};

// Per config, the pass with the median records/s (the lower middle one for
// an even count), carrying every pass's rate; exact only if every pass was.
std::vector<Row> MedianRows(const std::vector<std::vector<Row>>& passes) {
  std::vector<Row> out;
  for (std::size_t r = 0; r < passes.front().size(); ++r) {
    std::vector<const Row*> reps;
    for (const auto& pass : passes) reps.push_back(&pass[r]);
    std::sort(reps.begin(), reps.end(),
              [](const Row* a, const Row* b) { return a->rate < b->rate; });
    Row median = *reps[(reps.size() - 1) / 2];
    for (const auto& pass : passes) {
      median.rep_rates.push_back(pass[r].rate);
      median.exact = median.exact && pass[r].exact;
    }
    out.push_back(std::move(median));
  }
  return out;
}

struct FaultConfig {
  std::uint64_t seed = 1;
  int fail_at = 0;  // 0 = injection off
  FailurePolicy policy = FailurePolicy::kRestartTask;
};

template <typename P>
Row RunOnce(const char* name, ShippingStrategy shipping, int records,
            std::size_t queue_capacity, std::uint32_t batch_capacity,
            const FaultConfig& fc, bool chaining) {
  JobGraph g;
  const auto src = g.AddVertex({.name = "Src", .parallelism = 1, .max_parallelism = 1});
  const auto map = g.AddVertex({.name = "Map", .parallelism = 1, .max_parallelism = 1});
  const auto snk = g.AddVertex({.name = "Snk", .parallelism = 1, .max_parallelism = 1});
  g.Connect(src, map, WiringPattern::kRoundRobin);
  g.Connect(map, snk, WiringPattern::kRoundRobin);

  LocalEngineOptions opts;
  opts.shipping = shipping;
  opts.queue_capacity = queue_capacity;
  opts.batch_capacity = batch_capacity;
  opts.chaining = chaining;

  FaultInjector injector(fc.seed);
  if (fc.fail_at > 0) {
    injector.ThrowAtRecord("Map", /*subtask=*/0,
                           static_cast<std::uint64_t>(fc.fail_at));
    opts.recovery.policy = fc.policy;
    opts.fault_injector = &injector;
  }

  LocalEngine engine(std::move(g), opts);
  engine.SetSource("Src", [records](std::uint32_t) {
    return std::make_unique<BlastSource<P>>(records);
  });
  engine.SetUdf("Map", [](std::uint32_t) { return std::make_unique<MulUdf<P>>(); });
  engine.SetUdf("Snk", [](std::uint32_t) { return std::make_unique<NullSink>(); });

  const std::uint64_t allocs_before = esp::TotalAllocs();
  const auto t0 = std::chrono::steady_clock::now();
  const EngineResult result = engine.Run(FromSeconds(120));
  const auto t1 = std::chrono::steady_clock::now();
  const std::uint64_t allocs_after = esp::TotalAllocs();

  Row row;
  row.config = name;
  row.records = records;
  row.elapsed_s = std::chrono::duration<double>(t1 - t0).count();
  row.rate = static_cast<double>(result.records_delivered) / row.elapsed_s;
  if (esp::AllocCountingEnabled() && result.records_delivered > 0) {
    row.allocs_per_record = static_cast<double>(allocs_after - allocs_before) /
                            static_cast<double>(result.records_delivered);
  }
  row.p50_ms = result.latency.Quantile(0.5) * 1e3;
  row.p99_ms = result.latency.Quantile(0.99) * 1e3;
  row.restarts = result.restarts;
  row.redelivered = result.records_redelivered;
  if (fc.fail_at > 0) {
    // With injection the run is "exact" when it recovered and delivered at
    // least every record (redelivery may add a few extras).
    row.exact = result.restarts >= 1 &&
                result.records_delivered >= static_cast<std::uint64_t>(records) &&
                result.records_delivered <=
                    static_cast<std::uint64_t>(records) + result.records_redelivered;
  } else {
    row.exact = result.clean() &&
                result.records_emitted == static_cast<std::uint64_t>(records) &&
                result.records_delivered == static_cast<std::uint64_t>(records) &&
                result.latency.count() == static_cast<std::uint64_t>(records);
  }
  return row;
}

// Fan-in topology: `fanin` full-blast sources feed ONE sink, so the sink's
// input queue is the multi-producer edge the §14 lanes exist for: each
// source gets its own SPSC lane merged round-robin by the sink.  The
// record budget is split evenly across sources (remainder on subtask 0) so
// the delivered total stays `records` and exactness still closes.
template <typename P>
Row RunFanin(const char* name, int records, std::size_t queue_capacity,
             std::uint32_t batch_capacity, int fanin) {
  JobGraph g;
  const auto src = g.AddVertex(
      {.name = "Src", .parallelism = static_cast<std::uint32_t>(fanin),
       .max_parallelism = static_cast<std::uint32_t>(fanin)});
  const auto snk = g.AddVertex({.name = "Snk", .parallelism = 1, .max_parallelism = 1});
  g.Connect(src, snk, WiringPattern::kRoundRobin);

  LocalEngineOptions opts;
  opts.shipping = esp::ShippingStrategy::kAdaptive;
  opts.queue_capacity = queue_capacity;
  opts.batch_capacity = batch_capacity;
  opts.chaining = false;  // nothing to fuse: every edge here is fan-in > 1

  const int per_source = records / fanin;
  const int remainder = records % fanin;
  LocalEngine engine(std::move(g), opts);
  engine.SetSource("Src", [per_source, remainder](std::uint32_t subtask) {
    return std::make_unique<BlastSource<P>>(per_source +
                                            (subtask == 0 ? remainder : 0));
  });
  engine.SetUdf("Snk", [](std::uint32_t) { return std::make_unique<NullSink>(); });

  const std::uint64_t allocs_before = esp::TotalAllocs();
  const auto t0 = std::chrono::steady_clock::now();
  const EngineResult result = engine.Run(FromSeconds(120));
  const auto t1 = std::chrono::steady_clock::now();
  const std::uint64_t allocs_after = esp::TotalAllocs();

  Row row;
  row.config = name;
  row.records = records;
  row.elapsed_s = std::chrono::duration<double>(t1 - t0).count();
  row.rate = static_cast<double>(result.records_delivered) / row.elapsed_s;
  if (esp::AllocCountingEnabled() && result.records_delivered > 0) {
    row.allocs_per_record = static_cast<double>(allocs_after - allocs_before) /
                            static_cast<double>(result.records_delivered);
  }
  row.p50_ms = result.latency.Quantile(0.5) * 1e3;
  row.p99_ms = result.latency.Quantile(0.99) * 1e3;
  row.restarts = result.restarts;
  row.redelivered = result.records_redelivered;
  row.exact = result.clean() &&
              result.records_emitted == static_cast<std::uint64_t>(records) &&
              result.records_delivered == static_cast<std::uint64_t>(records) &&
              result.latency.count() == static_cast<std::uint64_t>(records);
  return row;
}

// One saturation run for --overload-burst: full-blast source, ~200 us/record
// map, 5 ms constraint, no elastic headroom.  With `guard` off this is the
// baseline failure mode (the run simply takes offered/capacity as long and
// the constraint sits violated); with it on, the overload ladder sheds at
// admission and the accounting must close exactly.
template <typename P>
Row RunOverloadBurst(const char* name, int records, std::uint32_t batch_capacity,
                     bool guard) {
  JobGraph g;
  const auto src = g.AddVertex({.name = "Src", .parallelism = 1, .max_parallelism = 1});
  const auto map = g.AddVertex({.name = "Map", .parallelism = 1, .max_parallelism = 1});
  const auto snk = g.AddVertex({.name = "Snk", .parallelism = 1, .max_parallelism = 1});
  g.Connect(src, map, WiringPattern::kRoundRobin);
  g.Connect(map, snk, WiringPattern::kRoundRobin);

  LocalEngineOptions opts;
  opts.shipping = esp::ShippingStrategy::kAdaptive;
  opts.queue_capacity = 64;  // small on purpose: a crisp latency signal
  opts.batch_capacity = batch_capacity;
  opts.measurement_interval = FromMillis(25);
  opts.adjustment_interval = FromMillis(100);
  opts.overload.enabled = guard;
  const LatencyConstraint constraint{
      JobSequence::FromEdgeChain(g, {JobEdgeId{0}, JobEdgeId{1}}), FromMillis(5),
      FromSeconds(10), "burst"};

  LocalEngine engine(std::move(g), opts);
  engine.SetSource("Src", [records](std::uint32_t) {
    return std::make_unique<BlastSource<P>>(records);
  });
  engine.SetUdf("Map", [](std::uint32_t) {
    return std::make_unique<BusyMulUdf<P>>(std::chrono::microseconds(200));
  });
  engine.SetUdf("Snk", [](std::uint32_t) { return std::make_unique<NullSink>(); });
  engine.AddConstraint(constraint);

  const auto t0 = std::chrono::steady_clock::now();
  const EngineResult result = engine.Run(FromSeconds(300));
  const auto t1 = std::chrono::steady_clock::now();

  Row row;
  row.config = name;
  row.records = records;
  row.elapsed_s = std::chrono::duration<double>(t1 - t0).count();
  row.rate = static_cast<double>(result.records_delivered) / row.elapsed_s;
  row.p50_ms = result.latency.Quantile(0.5) * 1e3;
  row.p99_ms = result.latency.Quantile(0.99) * 1e3;
  row.restarts = result.restarts;
  row.redelivered = result.records_redelivered;
  row.shed = result.records_shed;
  row.shed_windows = result.shed_windows;
  if (guard) {
    // The guard's contract: the whole stream is admitted-or-shed, counted
    // exactly, and shedding actually engaged under this much oversubscription.
    row.exact = result.records_emitted == static_cast<std::uint64_t>(records) &&
                result.records_emitted ==
                    result.records_delivered + result.records_shed &&
                result.records_redelivered == 0 && result.records_shed > 0;
  } else {
    row.exact = result.clean() &&
                result.records_delivered == static_cast<std::uint64_t>(records);
  }
  return row;
}

// Runs the three shipping strategies (base rows, chaining as given) plus
// the chained comparison row on the adaptive strategy and the fan-in row.
template <typename P>
std::vector<Row> RunAll(int records, int queue, int batch, const FaultConfig& fc,
                        bool chaining, int fanin) {
  const auto q = static_cast<std::size_t>(queue);
  const auto b = static_cast<std::uint32_t>(batch);
  std::vector<Row> rows;
  rows.push_back(RunOnce<P>("instant", esp::ShippingStrategy::kInstantFlush, records,
                            q, b, fc, chaining));
  rows.push_back(RunOnce<P>("fixed", esp::ShippingStrategy::kFixedBuffer, records,
                            q, b, fc, chaining));
  rows.push_back(RunOnce<P>("adaptive", esp::ShippingStrategy::kAdaptive, records,
                            q, b, fc, chaining));
  rows.push_back(RunOnce<P>("chained", esp::ShippingStrategy::kAdaptive, records, q,
                            b, fc, /*chaining=*/true));
  // Small batches by design: the fan-in row measures the edge's per-push
  // synchronization, which large batches would amortize away (see header).
  const auto fb = std::min<std::uint32_t>(b, 8);
  rows.push_back(RunFanin<P>("fanin", records, q, fb, fanin));
  return rows;
}

}  // namespace
}  // namespace esp::bench

static int Run(int argc, char** argv) {
  using namespace esp::bench;
  if (!ArgsValid(argc, argv)) return 2;

  // The overload scenario runs against a ~200 us/record map, so its default
  // record count is sized to keep the guard-off baseline around 4 s.
  const bool overload_burst = HasFlag(argc, argv, "--overload-burst");
  const int records = ArgInt(argc, argv, "--records", overload_burst ? 20'000 : 300'000);
  const int reps = ArgInt(argc, argv, "--reps", 3);
  if (reps < 1) {
    std::fprintf(stderr, "--reps must be >= 1 (got %d)\n", reps);
    return 2;
  }
  const int queue = ArgInt(argc, argv, "--queue", 1024);
  const int batch = ArgInt(argc, argv, "--batch", 64);
  const int payload_size = ArgInt(argc, argv, "--payload-size", 8);

  FaultConfig fc;
  fc.seed = static_cast<std::uint64_t>(ArgInt(argc, argv, "--seed", 1));
  fc.fail_at = ArgInt(argc, argv, "--fail-at", 0);
  fc.policy = ParsePolicy(ArgStr(argc, argv, "--policy", "restart-task"));

  // Base rows default to the historical no-fusion configuration so they
  // stay comparable across releases; the engine itself defaults to on.
  const bool chaining = std::strcmp(ArgStr(argc, argv, "--chaining", "off"), "on") == 0;
  const int fanin = ArgInt(argc, argv, "--fanin", 8);
  if (fanin < 1) {
    std::fprintf(stderr, "--fanin must be >= 1 (got %d)\n", fanin);
    return 2;
  }

  Section("micro_engine: 1-source/1-map/1-sink, trivial UDFs, full blast");
  std::printf("records=%d reps=%d (+1 warm-up) queue_capacity=%d batch_capacity=%d "
              "payload_size=%d (%s) seed=%llu base_chaining=%s fanin=%d\n",
              records, reps, queue, batch, payload_size,
              payload_size <= 24 ? "inline" : "boxed",
              static_cast<unsigned long long>(fc.seed), chaining ? "on" : "off", fanin);
  if (fc.fail_at > 0) {
    std::printf("fault: Map[0] throws at record %d, policy=%s\n", fc.fail_at,
                ArgStr(argc, argv, "--policy", "restart-task"));
  }

  if (payload_size != 8 && payload_size != 24 && payload_size != 64) {
    std::fprintf(stderr, "unknown --payload-size %d (want 8, 24 or 64)\n", payload_size);
    return 2;
  }
  const auto run_pass = [&](auto tag, int n) {
    using P = decltype(tag);
    if (overload_burst) {
      const auto b = static_cast<std::uint32_t>(batch);
      return std::vector<Row>{RunOverloadBurst<P>("burst/guard-off", n, b, false),
                              RunOverloadBurst<P>("burst/guard-on", n, b, true)};
    }
    return RunAll<P>(n, queue, batch, fc, chaining, fanin);
  };
  const auto pass = [&](int n) {
    return payload_size == 8    ? run_pass(int{}, n)
           : payload_size == 24 ? run_pass(Payload24{}, n)
                                : run_pass(Payload64{}, n);
  };
  (void)pass(std::max(records / 10, 1));  // warm-up, discarded
  std::vector<std::vector<Row>> passes;
  for (int rep = 0; rep < reps; ++rep) passes.push_back(pass(records));
  const std::vector<Row> rows = MedianRows(passes);

  std::printf("#%15s %10s %10s %12s %12s %12s %6s %8s %8s %10s %6s %10s\n",
              "config", "records", "time[s]", "records/s", "p50[ms]", "p99[ms]",
              "exact", "restarts", "redeliv", "shed", "shedw", "allocs/rec");
  for (const Row& r : rows) {
    char allocs[32];
    if (r.allocs_per_record >= 0) {
      std::snprintf(allocs, sizeof(allocs), "%10.4f", r.allocs_per_record);
    } else {
      std::snprintf(allocs, sizeof(allocs), "%10s", "n/a");
    }
    std::printf("%16s %10d %10.3f %12.0f %12.3f %12.3f %6s %8u %8llu %10llu %6u %s\n",
                r.config.c_str(), r.records, r.elapsed_s, r.rate, r.p50_ms, r.p99_ms,
                r.exact ? "yes" : "NO", r.restarts,
                static_cast<unsigned long long>(r.redelivered),
                static_cast<unsigned long long>(r.shed), r.shed_windows, allocs);
  }

  if (HasFlag(argc, argv, "--tsv")) {
    std::ofstream out("micro_engine.tsv");
    out << "config\trecords\ttime_s\trecords_per_s\tp50_ms\tp99_ms\texact\trestarts"
           "\tredelivered\tshed\tshed_windows\tallocs_per_record\n";
    for (const Row& r : rows) {
      out << r.config << '\t' << r.records << '\t' << r.elapsed_s << '\t' << r.rate
          << '\t' << r.p50_ms << '\t' << r.p99_ms << '\t' << (r.exact ? 1 : 0) << '\t'
          << r.restarts << '\t' << r.redelivered << '\t' << r.shed << '\t'
          << r.shed_windows << '\t' << r.allocs_per_record << '\n';
    }
    std::printf("wrote micro_engine.tsv\n");
  }

  if (HasFlag(argc, argv, "--json")) {
    // Machine-readable result for the CI perf-smoke job.
    std::ofstream out("BENCH_micro_engine.json");
    out << "{\n  \"bench\": \"micro_engine\",\n  \"records\": " << records
        << ",\n  \"reps\": " << reps << ",\n  \"payload_size\": " << payload_size
        << ",\n  \"alloc_counting\": " << (esp::AllocCountingEnabled() ? "true" : "false")
        << ",\n  \"rows\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      out << "    {\"config\": \"" << r.config << "\", \"records_per_s\": " << r.rate
          << ", \"p50_ms\": " << r.p50_ms << ", \"p99_ms\": " << r.p99_ms
          << ", \"exact\": " << (r.exact ? "true" : "false")
          << ", \"shed\": " << r.shed << ", \"shed_windows\": " << r.shed_windows
          << ", \"allocs_per_record\": " << r.allocs_per_record
          << ", \"records_per_s_reps\": [";
      for (std::size_t k = 0; k < r.rep_rates.size(); ++k) {
        out << (k ? ", " : "") << r.rep_rates[k];
      }
      out << "]}"
          << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::printf("wrote BENCH_micro_engine.json\n");
  }

  bool all_exact = true;
  for (const Row& r : rows) all_exact = all_exact && r.exact;
  return all_exact ? 0 : 1;
}

// A throw escaping main is std::terminate with no diagnostic; surface the
// error instead (bugprone-exception-escape).
int main(int argc, char** argv) {
  try {
    return Run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fatal: %s\n", e.what());
    return 1;
  } catch (...) {
    std::fprintf(stderr, "fatal: unknown exception\n");
    return 1;
  }
}
