// Simulated UDFs.
//
// A TaskLogic is the simulator's stand-in for a user-defined function: per
// consumed item it reports how long the UDF computes and what it emits.
// Windowed UDFs additionally run a periodic timer.  One logic instance
// exists per task (so window state is per-task, like a real UDF instance).
//
// Sources are driven differently (no input queue): a SourceLogic supplies a
// rate schedule and fabricates items.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "graph/job_graph.h"
#include "sim/item.h"
#include "sim/rate_schedule.h"

namespace esp::sim {

/// One emission requested by a UDF.  `output_index` selects among the
/// vertex's outgoing job edges (in graph insertion order).
struct EmitRequest {
  std::uint32_t output_index = 0;
  std::uint32_t size_bytes = 64;
  std::uint64_t key = 0;
  std::uint8_t tag = 0;  ///< record type visible to downstream UDFs
  /// When true the engine stamps source_emit/probe fields from `origin`
  /// (per-item forwarding); when false the emission starts a fresh lineage
  /// (e.g. a window result) and the engine attaches a sampled pending probe.
  bool inherit_lineage = true;
};

/// Simulated UDF attached to the tasks of one (non-source) job vertex.
class TaskLogic {
 public:
  virtual ~TaskLogic() = default;

  /// Handles one consumed item.  Returns the UDF service time in seconds
  /// and appends emissions to `out`.
  virtual double OnItem(SimTime now, const SimItem& item, Rng& rng,
                        std::vector<EmitRequest>& out) = 0;

  /// Period of the UDF's timer; 0 disables it.
  virtual SimDuration TimerPeriod() const { return 0; }

  /// Handles a timer tick (windowed UDFs emit their aggregate here).
  /// Returns CPU seconds consumed.
  virtual double OnTimer(SimTime now, Rng& rng, std::vector<EmitRequest>& out) {
    (void)now;
    (void)rng;
    (void)out;
    return 0.0;
  }

  /// How the engine measures this UDF's task latency (paper §II-A3).
  virtual LatencyMode latency_mode() const { return LatencyMode::kReadReady; }
};

/// Factory invoked once per task instance; `rng` seeds the task's stream.
using LogicFactory = std::function<std::unique_ptr<TaskLogic>(std::uint32_t subtask, Rng rng)>;

/// Map/filter/flat-map style UDF with a log-normal service time and fixed
/// per-output selectivity.  Covers PrimeTester's PrimeTester vertex and the
/// TwitterSentiment Filter/Sentiment/Sink vertices.
class StatelessLogic final : public TaskLogic {
 public:
  struct Output {
    std::uint32_t output_index = 0;
    double selectivity = 1.0;       ///< expected emissions per input item
    std::uint32_t size_bytes = 64;
    std::uint8_t tag = 0;           ///< record type stamped on emissions
    bool key_from_input = true;     ///< propagate the input key
    /// Only items with this input tag trigger the output (255 = any).
    std::uint8_t input_tag_filter = 255;
  };

  struct Params {
    double service_mean = 0.001;  ///< seconds
    double service_cv = 0.25;
    std::vector<Output> outputs;  ///< empty = pure sink
    /// Optional per-item override of the selectivity of output 0 (used for
    /// the Twitter Filter, whose pass rate depends on current hot topics).
    std::function<double(const SimItem&, SimTime)> selectivity_override;
  };

  explicit StatelessLogic(Params params);

  double OnItem(SimTime now, const SimItem& item, Rng& rng,
                std::vector<EmitRequest>& out) override;

 private:
  Params params_;
  LogNormalParams service_;  ///< derived once from service_mean / service_cv
};

/// Time-window aggregation UDF: consumes items into per-window state for a
/// small per-item cost and emits one aggregate per timer period per output
/// (TwitterSentiment's HotTopics / HotTopicsMerger).  Task latency is
/// read-write (consume -> next emission), matching the paper.
class WindowedLogic final : public TaskLogic {
 public:
  struct Params {
    double per_item_cost = 0.00005;   ///< seconds of CPU per consumed item
    double per_window_cost = 0.0005;  ///< seconds of CPU per timer firing
    SimDuration window = FromMillis(200);
    std::uint32_t aggregate_size_bytes = 512;
    std::uint8_t aggregate_tag = 0;
    std::vector<std::uint32_t> output_indices = {0};
    bool emit_when_empty = false;  ///< fire even if no items arrived
  };

  explicit WindowedLogic(Params params);

  double OnItem(SimTime now, const SimItem& item, Rng& rng,
                std::vector<EmitRequest>& out) override;
  SimDuration TimerPeriod() const override { return params_.window; }
  double OnTimer(SimTime now, Rng& rng, std::vector<EmitRequest>& out) override;
  LatencyMode latency_mode() const override { return LatencyMode::kReadWrite; }

 private:
  Params params_;
  std::uint64_t items_in_window_ = 0;
};

/// Drives a source task: when and what to emit.
class SourceLogic {
 public:
  struct Params {
    std::shared_ptr<const RateSchedule> schedule;  ///< per-task rate
    double interval_cv = 1.0;  ///< 0 = metronome, 1 = Poisson-like
    std::uint32_t item_size_bytes = 64;
    std::uint8_t item_tag = 0;
    std::vector<std::uint32_t> output_indices = {0};  ///< emit to these edges
    std::function<std::uint64_t(SimTime, Rng&)> key_fn;  ///< item key; 0 if unset
  };

  explicit SourceLogic(Params params);

  /// Seconds until the next emission at time `now`; <= 0 when the schedule
  /// has ended (source stops).
  double NextInterval(SimTime now, Rng& rng) const;

  /// Current attempted rate (items/s) for throughput accounting.
  double RateAt(SimTime now) const { return params_.schedule->RateAt(now); }

  /// Builds the emissions for one source tick.
  void MakeEmissions(SimTime now, Rng& rng, std::vector<EmitRequest>& out) const;

  const Params& params() const { return params_; }

 private:
  Params params_;
  double interval_sigma2_ = 0.0;  ///< LogNormalParams::Sigma2(interval_cv)
  double interval_sigma_ = 0.0;   ///< sqrt(interval_sigma2_)
};

using SourceFactory =
    std::function<std::unique_ptr<SourceLogic>(std::uint32_t subtask, Rng rng)>;

}  // namespace esp::sim
