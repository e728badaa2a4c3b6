// Shared pieces of the repository benchmark: options, the bench clock,
// order statistics, the result report and the record payload both engine
// workloads carry.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "runtime/record.h"

namespace espbench {

/// Command-line options of one benchmark run.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< measured time budget of the run
  bool trace = false;     ///< per-layer (traced) run instead of end-to-end
  std::string out_dir;    ///< where span files are written (traced runs)
};

/// Bench clock: steady-clock nanoseconds since the process started.  Every
/// stamp the benchmark takes (payload stamps, spans, lifecycle events) uses
/// it, so stamps from different threads compare directly.
std::int64_t NowNs() noexcept;

/// Sleeps until NowNs() >= deadline_ns (sleep, then a short spin).
void SleepUntilNs(std::int64_t deadline_ns);

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

/// User + system CPU seconds consumed by this process so far.
double ProcessCpuSeconds();

/// Peak resident set size of this process (VmHWM), MiB.
double PeakRssMiB();

/// Host-wide CPU time counters (/proc/stat), in clock ticks.
struct HostCpuTimes {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;  ///< time the hypervisor ran something else
};
HostCpuTimes ReadHostCpuTimes();
/// Share of host CPU time stolen by the hypervisor between two readings.
double StealShare(const HostCpuTimes& from, const HostCpuTimes& to);

/// The inline payload of every record the engine workloads move: the
/// sequence number identifies the record across spans and the exactly-once
/// bitmap, the stamp is the bench-clock time latency is measured from, and
/// the value is the record's data (checked at the sink).
struct Stamped {
  std::uint64_t seq = 0;
  std::int64_t stamp_ns = 0;
  std::uint64_t value = 0;
};

/// A record derived from `in`: new payload, same key, and the same
/// engine lineage stamp (Record::source_emit_ns), so EngineResult::latency
/// stays source-to-sink across operators that build new records.
esp::runtime::Record Derived(const esp::runtime::Record& in, const Stamped& payload);

/// Exactly-once bookkeeping over sequence numbers that arrive nearly in
/// order: a fixed-size sliding bitmap above the lowest number not yet seen,
/// so its memory does not grow with the run (and peak RSS measures the
/// engine, not this check).
class SeqBitmap {
 public:
  /// Marks `seq`; false for a duplicate, or for a number that arrives after
  /// the window moved past it.  A number more than the window ahead of the
  /// lowest missing one moves the window, giving up on the numbers it leaves
  /// behind unmarked (they count as lost).
  bool Mark(std::uint64_t seq);
  /// Distinct sequence numbers marked in [0, n), for n at most one window
  /// above the lowest missing number.
  std::uint64_t CountBelow(std::uint64_t n) const;

 private:
  /// Moves low_ over the marked prefix of the window, clearing its bits.
  void Slide();

  static constexpr std::uint64_t kWindowBits = 1 << 20;
  static constexpr std::size_t kWords = kWindowBits / 64;
  std::vector<std::uint64_t> words_ = std::vector<std::uint64_t>(kWords, 0);
  std::uint64_t low_ = 0;      // every number below it was marked or given up
  std::uint64_t given_up_ = 0;  // numbers below low_ never marked
};

/// Everything one run measured and checked.  Metric names are those of
/// BENCHMARK.json; run.py selects the end-to-end or per-layer set.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  /// Records a correctness check; a false `ok` fails the run.
  void Check(bool ok, const std::string& what);
  /// Free-form metadata (host, build, sample counts), emitted as JSON.
  void Meta(const std::string& key, const std::string& value);
  void Meta(const std::string& key, double value);
  void Meta(const std::string& key, const std::vector<double>& values);

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  bool correct() const { return violations_.empty(); }
  /// Human-readable lines, then one JSON object on the last line.
  void Print(const Options& options) const;

 private:
  struct Metric {
    double value;
    std::string unit;
  };
  std::map<std::string, Metric> metrics_;
  std::map<std::string, std::string> meta_;  // values are JSON literals
  std::vector<std::string> checks_;
  std::vector<std::string> violations_;
};

int RunSaturateDag(const Options& options, Report& report);
int RunElasticPrimeTester(const Options& options, Report& report);
int RunSimElastic(const Options& options, Report& report);

}  // namespace espbench
