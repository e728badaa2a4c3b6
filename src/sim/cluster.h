// The discrete-event cluster simulation: the repository's substitute for
// the paper's 130-node Nephele deployment (DESIGN.md §2).
//
// The simulation executes a JobGraph with per-vertex simulated UDFs
// (TaskLogic / SourceLogic) on a pool of worker nodes.  It models:
//   * bounded input queues with backpressure that propagates upstream by
//     blocking producers (paper §III-B),
//   * per-channel output batching with instant / fixed-size / adaptive
//     deadline flushing, charging CPU per item AND per flush so batching
//     raises maximum effective throughput (paper §III-C),
//   * the full QoS measurement architecture: per-worker reporters, sharded
//     QoS managers with partial summaries, master-side merge (paper §IV-B),
//   * the elastic scaler with task start delays, drain-based scale-down and
//     post-scale-up inactivity (paper §V),
//   * ground-truth latency probes for evaluation, invisible to the engine.
//
// Determinism: all randomness flows from SimConfig::seed; equal-time events
// dispatch in schedule order, so runs are bit-reproducible.  Performance
// work on this file must keep them so: the same (time, seq) event order,
// the same random draws and the same floating-point expressions
// (DESIGN.md §2; tests/integration_test.cpp GoldenTrajectory.* pins it).
//
// The per-item path does not allocate once a run has warmed up: input and
// batch queues are Rings, flushed batch buffers return to a spare pool when
// delivered, and each task caches its channel per (output, consumer
// subtask).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/batching.h"
#include "core/elastic_scaler.h"
#include "graph/job_graph.h"
#include "graph/runtime_graph.h"
#include "graph/sequence.h"
#include "qos/manager.h"
#include "sim/config.h"
#include "sim/event_queue.h"
#include "sim/item.h"
#include "sim/metrics.h"
#include "sim/ring.h"
#include "sim/task_logic.h"

namespace esp::sim {

class ClusterSimulation {
 public:
  /// Takes ownership of the job graph (parallelism mutates during the run).
  ClusterSimulation(JobGraph graph, SimConfig config);
  ~ClusterSimulation();

  ClusterSimulation(const ClusterSimulation&) = delete;
  ClusterSimulation& operator=(const ClusterSimulation&) = delete;

  /// Attaches the simulated UDF for a non-source vertex.
  void SetLogic(const std::string& vertex_name, LogicFactory factory);

  /// Attaches the emission driver for a source vertex.
  void SetSource(const std::string& vertex_name, SourceFactory factory);

  /// Registers a latency constraint.  Must be called before Run.
  void AddConstraint(const LatencyConstraint& constraint);

  /// Runs the simulation for `duration` of simulated time and returns the
  /// evaluation metrics.  Can only be called once per instance.
  RunResult Run(SimDuration duration);

  const JobGraph& graph() const { return graph_; }
  SimTime Now() const { return events_.Now(); }

  /// The most recent global summary the master merged (empty before the
  /// first adjustment interval).  Exposed for diagnostics and tests.
  const GlobalSummary& last_summary() const { return last_summary_; }

 private:
  // ----- internal entities -------------------------------------------------
  enum class TaskState : std::uint8_t { kStarting, kRunning, kDraining, kStopped };
  enum class TaskPhase : std::uint8_t { kIdle, kServing, kEmitting, kBlocked };
  static constexpr std::uint32_t kNoChannel = ~std::uint32_t{0};

  struct ResolvedEmit {
    std::uint32_t channel = 0;  // dense channel index
    SimItem item;
  };

  struct Task {
    TaskId id{};
    std::uint32_t worker = 0;
    TaskState state = TaskState::kRunning;
    TaskPhase phase = TaskPhase::kIdle;
    std::uint32_t generation = 0;
    bool is_source = false;
    bool source_done = false;

    Ring<QueuedItem> input;
    Ring<std::uint32_t> parked_channels;  // inbound channels with parked batches

    std::unique_ptr<TaskLogic> logic;
    std::unique_ptr<SourceLogic> source;
    Rng rng{1};
    SimTime next_tick = 0;  ///< sources: scheduled time of the next emission

    // Emission continuation (survives backpressure blocks).
    std::vector<ResolvedEmit> emits;
    std::size_t emit_pos = 0;
    SimTime service_started = 0;
    double current_service_cpu = 0.0;
    std::pair<std::int8_t, SimTime> pending_end_probe{kNoProbe, 0};

    double deferred_cpu = 0.0;  // flush/receive/timer CPU folded into next service
    TaskSampler* sampler = nullptr;

    // Accounting.
    double cpu_seconds = 0.0;
    double cpu_seconds_at_window = 0.0;
    SimTime started_at = 0;
    SimTime alive_at_window = 0;
    std::uint32_t inbound_inflight = 0;  // batches heading for this task
    std::vector<std::uint32_t> rr;       // round-robin counters per output edge
    std::vector<SimTime> rw_pending;     // sampled consume times (read-write mode)
    std::vector<std::pair<std::int8_t, SimTime>> pending_probes;  // for window emissions
    std::vector<std::uint32_t> in_channels;
    std::vector<std::uint32_t> out_channels;
    /// [output index][consumer subtask] -> dense channel index, or
    /// kNoChannel until the first emission on that channel resolves it.
    std::vector<std::vector<std::uint32_t>> channel_cache;
  };

  struct Batch {
    std::vector<SimItem> items;
    std::uint32_t bytes = 0;
  };

  struct Channel {
    ChannelId id{};
    std::uint32_t producer = 0;  // dense task index
    std::uint32_t consumer = 0;
    std::vector<SimItem> buffer;
    std::uint32_t buffer_bytes = 0;
    std::uint32_t inflight = 0;  // batches sent, not yet delivered
    Ring<Batch> in_transit;
    Ring<Batch> ready;  // arrived, waiting for queue space
    SimTime last_arrival = 0;
    std::uint32_t deadline_generation = 0;
    /// Bumped when a crash clears in_transit, so already-scheduled
    /// kBatchArrival events cannot deliver batches flushed afterwards.
    std::uint32_t transit_generation = 0;
    bool deadline_armed = false;
    bool flush_wanted = false;
    bool producer_blocked = false;
    bool parked_registered = false;
    ChannelSampler* sampler = nullptr;
  };

  struct EdgeRouting {
    // Subtask indices of the live consumers, ascending.
    std::vector<std::uint32_t> consumers;
    // kPointwise only: consumers assigned to each producer subtask.
    std::vector<std::vector<std::uint32_t>> per_producer;
  };

  struct ConstraintProbe {
    std::optional<JobEdgeId> start_edge;
    std::optional<JobVertexId> start_vertex;
    std::optional<JobEdgeId> end_edge;
    std::optional<JobVertexId> end_vertex;
  };

  // ----- event handlers ----------------------------------------------------
  void OnSourceEmit(const Event& e);
  void OnServiceDone(const Event& e);
  void OnFlushDeadline(const Event& e);
  void OnBatchArrival(const Event& e);
  void OnTaskTimer(const Event& e);
  void OnTaskStarted(const Event& e);
  void OnMeasurementTick();
  void OnAdjustmentTick();
  void OnMetricsTick();
  void OnTaskFault(const Event& e);

  // ----- task lifecycle ----------------------------------------------------
  std::uint32_t CreateTask(JobVertexId vertex, std::uint32_t subtask, bool initial);
  void ActivateTask(std::uint32_t ti);
  void BeginDrain(std::uint32_t ti);
  void MaybeStop(std::uint32_t ti);
  void StopTask(std::uint32_t ti);
  /// Kills a live task NOW: loses its in-flight data (counted), reroutes
  /// producers around the hole and, when `restart` is set, respawns the
  /// subtask after the scheduler's task_start_delay.
  void CrashTask(std::uint32_t ti, bool restart);
  std::uint32_t PlaceOnWorker();
  void ApplyScaling(const std::vector<ScalingAction>& actions);

  // ----- processing --------------------------------------------------------
  void TryStartNext(std::uint32_t ti);
  void ResumeEmissions(std::uint32_t ti);
  void FinishEmissions(std::uint32_t ti);
  void ResolveEmissions(std::uint32_t ti, const std::vector<EmitRequest>& requests,
                        const SimItem* origin, std::vector<ResolvedEmit>& out);
  bool AppendToChannel(std::uint32_t ci, SimItem item, bool allow_overfill);
  bool CanFlush(const Channel& ch) const;
  void Flush(std::uint32_t ci);
  void DeliverReady(std::uint32_t ci);
  void DrainParked(std::uint32_t ti);
  void SetFlushDeadlines(FlushDeadlines deadlines);

  // ----- wiring ------------------------------------------------------------
  std::uint32_t GetOrCreateChannel(JobEdgeId edge, std::uint32_t prod_sub,
                                   std::uint32_t cons_sub);
  /// Task `ti`'s channel to consumer subtask `cons_sub` on its output
  /// `output_index` (= `edge`), through the task's channel cache.  A miss
  /// falls back to GetOrCreateChannel, so channels (and their samplers) are
  /// still created at their first emission, in the same order.
  std::uint32_t CachedChannel(std::uint32_t ti, std::uint32_t output_index, JobEdgeId edge,
                              std::uint32_t cons_sub);
  void RebuildRouting(JobEdgeId edge);
  void RebuildAllRouting();
  std::uint32_t DenseIndex(const TaskId& id) const;

  // ----- QoS / metrics -----------------------------------------------------
  QosReporter& ReporterFor(std::uint32_t worker);
  void RecordProbeEnd(std::int8_t constraint, SimTime probe_time);
  void MaybeStartProbeAtEdge(SimItem& item, JobEdgeId edge);
  void RollWindow(SimTime window_end);

  // ----- members -----------------------------------------------------------
  JobGraph graph_;
  SimConfig config_;
  EventQueue events_;
  Rng rng_;
  bool ran_ = false;

  std::vector<Task> tasks_;
  std::unordered_map<TaskId, std::uint32_t> task_index_;
  std::vector<Channel> channels_;
  std::unordered_map<ChannelId, std::uint32_t> channel_index_;
  std::vector<EdgeRouting> routing_;  // indexed by edge id

  std::vector<std::uint32_t> worker_load_;  // used slots per worker
  std::vector<SimTime> worker_leased_at_;   // lease start; -1 = not leased
  double node_hours_ = 0.0;
  bool warned_oversubscribed_ = false;

  /// Updates node-lease accounting around a load change on `worker`.
  void NoteWorkerLoadChange(std::uint32_t worker, bool acquiring);

  std::unordered_map<std::string, LogicFactory> logic_factories_;
  std::unordered_map<std::string, SourceFactory> source_factories_;

  std::vector<LatencyConstraint> constraints_;
  std::vector<ConstraintProbe> probes_;

  std::vector<std::unique_ptr<QosReporter>> reporters_;  // per worker, lazily
  std::vector<QosManager> managers_;
  ElasticScaler scaler_;
  FlushDeadlines flush_deadlines_;
  std::vector<SimDuration> flush_deadline_by_edge_;  // dense copy, indexed by edge id
  GlobalSummary last_summary_;

  // Evaluation accumulators (current metrics window).
  struct ProbeWindowAcc;
  std::vector<std::unique_ptr<ProbeWindowAcc>> window_probe_;      // per constraint
  std::vector<std::unique_ptr<ProbeWindowAcc>> adjustment_probe_;  // per constraint
  SimTime window_start_ = 0;
  double window_attempted_ = 0.0;
  std::uint64_t window_emitted_ = 0;
  std::uint64_t window_delivered_ = 0;
  std::uint64_t emitted_total_ = 0;
  std::uint64_t delivered_total_ = 0;
  std::uint64_t dropped_items_ = 0;  // emissions with no live consumer
  double task_hours_ = 0.0;
  SimDuration run_duration_ = 0;
  std::vector<std::uint32_t> source_tasks_;
  std::vector<EmitRequest> scratch_requests_;
  std::vector<ResolvedEmit> scratch_emits_;         // OnTaskTimer's emissions
  std::vector<std::vector<SimItem>> spare_buffers_;  // recycled batch buffers

  RunResult result_;
};

}  // namespace esp::sim
