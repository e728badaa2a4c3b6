#include "sim/cluster.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/logging.h"
#include "common/percentile.h"
#include "common/stats.h"

namespace esp::sim {

// Per-constraint probe accumulator for one window / adjustment interval.
struct ClusterSimulation::ProbeWindowAcc {
  RunningStats stats;
  P2Quantile p95{0.95};

  void Add(double latency) {
    stats.Add(latency);
    p95.Add(latency);
  }
  void Reset() {
    stats.Reset();
    p95.Reset();
  }
};

ClusterSimulation::ClusterSimulation(JobGraph graph, SimConfig config)
    : graph_(std::move(graph)), config_(config), rng_(config.seed), scaler_(config.scaler) {
  if (config_.workers == 0 || config_.slots_per_worker == 0) {
    throw std::invalid_argument("ClusterSimulation: need workers and slots");
  }
  worker_load_.assign(config_.workers, 0);
  worker_leased_at_.assign(config_.workers, -1);
  reporters_.resize(config_.workers);
  managers_.reserve(config_.qos_manager_count);
  for (std::size_t i = 0; i < config_.qos_manager_count; ++i) {
    managers_.emplace_back(config_.qos_history);
  }
  routing_.resize(graph_.edge_count());
  flush_deadline_by_edge_.assign(graph_.edge_count(), config_.batching.min_deadline);
}

ClusterSimulation::~ClusterSimulation() = default;

void ClusterSimulation::SetLogic(const std::string& vertex_name, LogicFactory factory) {
  graph_.VertexByName(vertex_name);  // validates the name
  logic_factories_[vertex_name] = std::move(factory);
}

void ClusterSimulation::SetSource(const std::string& vertex_name, SourceFactory factory) {
  const JobVertexId v = graph_.VertexByName(vertex_name);
  if (!graph_.vertex(v).inputs.empty()) {
    throw std::invalid_argument("SetSource: vertex '" + vertex_name + "' has inputs");
  }
  source_factories_[vertex_name] = std::move(factory);
}

void ClusterSimulation::AddConstraint(const LatencyConstraint& constraint) {
  if (ran_) throw std::logic_error("AddConstraint: simulation already ran");
  if (constraints_.size() >= 127) throw std::invalid_argument("too many constraints");
  ValidateConstraint(constraint);

  ConstraintProbe probe;
  const auto& elements = constraint.sequence.elements();
  if (std::holds_alternative<JobEdgeId>(elements.front())) {
    probe.start_edge = std::get<JobEdgeId>(elements.front());
  } else {
    probe.start_vertex = std::get<JobVertexId>(elements.front());
  }
  if (std::holds_alternative<JobEdgeId>(elements.back())) {
    probe.end_edge = std::get<JobEdgeId>(elements.back());
  } else {
    probe.end_vertex = std::get<JobVertexId>(elements.back());
  }
  constraints_.push_back(constraint);
  probes_.push_back(probe);
}

// --------------------------------------------------------------- lifecycle

std::uint32_t ClusterSimulation::PlaceOnWorker() {
  std::uint32_t best = 0;
  if (config_.placement == PlacementStrategy::kCompact) {
    // Fullest worker that still has a free slot; falls back to the least
    // loaded when every node is full (oversubscription).
    bool found = false;
    std::uint32_t best_load = 0;
    for (std::uint32_t w = 0; w < worker_load_.size(); ++w) {
      if (worker_load_[w] >= config_.slots_per_worker) continue;
      if (!found || worker_load_[w] > best_load) {
        best = w;
        best_load = worker_load_[w];
        found = true;
      }
    }
    if (found) return best;
  }
  // Least-loaded placement (default, and the compact fallback).
  std::uint32_t best_load = worker_load_[0];
  best = 0;
  for (std::uint32_t w = 1; w < worker_load_.size(); ++w) {
    if (worker_load_[w] < best_load) {
      best = w;
      best_load = worker_load_[w];
    }
  }
  if (best_load >= config_.slots_per_worker && !warned_oversubscribed_) {
    warned_oversubscribed_ = true;
    ESP_LOG_WARN << "cluster slots exhausted (" << config_.workers << "x"
                 << config_.slots_per_worker << "); oversubscribing workers";
  }
  return best;
}

void ClusterSimulation::NoteWorkerLoadChange(std::uint32_t worker, bool acquiring) {
  if (acquiring) {
    ++worker_load_[worker];
    if (worker_load_[worker] == 1) worker_leased_at_[worker] = events_.Now();
  } else {
    --worker_load_[worker];
    if (worker_load_[worker] == 0 && worker_leased_at_[worker] >= 0) {
      node_hours_ += ToSeconds(events_.Now() - worker_leased_at_[worker]) / 3600.0;
      worker_leased_at_[worker] = -1;
    }
  }
}

std::uint32_t ClusterSimulation::DenseIndex(const TaskId& id) const {
  const auto it = task_index_.find(id);
  if (it == task_index_.end()) {
    throw std::out_of_range("ClusterSimulation: unknown task");
  }
  return it->second;
}

std::uint32_t ClusterSimulation::CreateTask(JobVertexId vertex, std::uint32_t subtask,
                                            bool initial) {
  const TaskId id{vertex, subtask};
  const auto existing = task_index_.find(id);
  if (existing != task_index_.end()) {
    Task& old = tasks_[existing->second];
    if (old.state == TaskState::kDraining) {
      // Scale-up caught up with an unfinished scale-down: revive in place
      // and rejoin the QoS graph.
      old.state = TaskState::kRunning;
      if (old.sampler == nullptr) {
        old.sampler = &ReporterFor(old.worker).AddTask(id);
      }
      return existing->second;
    }
    if (old.state != TaskState::kStopped) {
      throw std::logic_error("CreateTask: task already live");
    }
  }

  const JobVertex& jv = graph_.vertex(vertex);
  Task task;
  task.id = id;
  task.worker = PlaceOnWorker();
  task.rng = rng_.Fork();
  task.is_source = jv.inputs.empty();
  task.rr.assign(jv.outputs.size(), 0);
  task.channel_cache.resize(jv.outputs.size());

  if (task.is_source) {
    const auto fit = source_factories_.find(jv.name);
    if (fit == source_factories_.end()) {
      throw std::logic_error("CreateTask: no source factory for '" + jv.name + "'");
    }
    task.source = fit->second(subtask, task.rng.Fork());
  } else {
    const auto fit = logic_factories_.find(jv.name);
    if (fit == logic_factories_.end()) {
      throw std::logic_error("CreateTask: no logic factory for '" + jv.name + "'");
    }
    task.logic = fit->second(subtask, task.rng.Fork());
  }

  std::uint32_t ti;
  if (existing != task_index_.end()) {
    // Recreate over a stopped task: inherit the wiring (channels keep their
    // dense indices) and bump the generation so stale events die.
    const std::uint32_t old_ti = existing->second;
    task.generation = tasks_[old_ti].generation + 1;
    task.in_channels = tasks_[old_ti].in_channels;
    task.out_channels = tasks_[old_ti].out_channels;
    task.channel_cache = std::move(tasks_[old_ti].channel_cache);
    tasks_[old_ti] = std::move(task);
    ti = old_ti;
  } else {
    tasks_.push_back(std::move(task));
    ti = static_cast<std::uint32_t>(tasks_.size() - 1);
    task_index_[id] = ti;
  }

  NoteWorkerLoadChange(tasks_[ti].worker, /*acquiring=*/true);
  tasks_[ti].state = initial ? TaskState::kRunning : TaskState::kStarting;
  if (initial) {
    ActivateTask(ti);
  } else {
    events_.Schedule(events_.Now() + config_.task_start_delay, EventType::kTaskStarted, ti,
                     tasks_[ti].generation);
  }
  if (tasks_[ti].is_source) source_tasks_.push_back(ti);
  return ti;
}

QosReporter& ClusterSimulation::ReporterFor(std::uint32_t worker) {
  auto& slot = reporters_[worker];
  if (!slot) {
    slot = std::make_unique<QosReporter>(config_.latency_sample_probability, rng_.Next());
  }
  return *slot;
}

void ClusterSimulation::ActivateTask(std::uint32_t ti) {
  Task& task = tasks_[ti];
  task.started_at = events_.Now();
  task.alive_at_window = events_.Now();
  task.cpu_seconds = 0.0;
  task.cpu_seconds_at_window = 0.0;
  QosReporter& reporter = ReporterFor(task.worker);
  task.sampler = &reporter.AddTask(task.id);

  if (task.is_source) {
    const double interval = task.source->NextInterval(events_.Now(), task.rng);
    if (interval >= 0) {
      task.source_done = false;
      task.next_tick = events_.Now() + FromSeconds(interval);
      events_.Schedule(task.next_tick, EventType::kSourceEmit, ti, task.generation);
    } else {
      task.source_done = true;
    }
  } else if (task.logic->TimerPeriod() > 0) {
    // Random phase so windows across tasks do not fire in lockstep.
    const SimDuration phase = static_cast<SimDuration>(
        task.rng.NextDouble() * static_cast<double>(task.logic->TimerPeriod()));
    events_.Schedule(events_.Now() + phase, EventType::kTaskTimer, ti, task.generation);
  }
}

void ClusterSimulation::BeginDrain(std::uint32_t ti) {
  Task& task = tasks_[ti];
  if (task.state == TaskState::kStarting) {
    // Never went live: stop immediately.
    task.state = TaskState::kStopped;
    ++task.generation;
    NoteWorkerLoadChange(task.worker, /*acquiring=*/false);
    return;
  }
  if (task.state != TaskState::kRunning) return;
  task.state = TaskState::kDraining;
  // Leave the QoS graph immediately: a dying task's tail measurements
  // (arrivals stopping, queue draining) would dilute the vertex summary
  // and corrupt the next scaling decision.
  if (task.sampler != nullptr) {
    ReporterFor(task.worker).RemoveTask(task.id);
    task.sampler = nullptr;
  }
  // Push out whatever sits in the output buffers.
  for (std::uint32_t ci : task.out_channels) {
    Channel& ch = channels_[ci];
    if (!ch.buffer.empty()) {
      if (CanFlush(ch)) {
        Flush(ci);
      } else {
        ch.flush_wanted = true;
      }
    }
  }
  MaybeStop(ti);
}

void ClusterSimulation::MaybeStop(std::uint32_t ti) {
  Task& task = tasks_[ti];
  if (task.state != TaskState::kDraining) return;
  if (task.phase != TaskPhase::kIdle) return;
  if (!task.input.empty() || task.inbound_inflight > 0 || !task.parked_channels.empty()) {
    return;
  }
  for (std::uint32_t ci : task.out_channels) {
    if (!channels_[ci].buffer.empty()) return;
  }
  StopTask(ti);
}

void ClusterSimulation::StopTask(std::uint32_t ti) {
  Task& task = tasks_[ti];
  task.state = TaskState::kStopped;
  ++task.generation;
  NoteWorkerLoadChange(task.worker, /*acquiring=*/false);
  const double hours = ToSeconds(events_.Now() - task.started_at) / 3600.0;
  task_hours_ += hours;
  result_.task_hours_by_vertex[graph_.vertex(task.id.vertex).name] += hours;
  if (task.sampler != nullptr) {
    ReporterFor(task.worker).RemoveTask(task.id);
    task.sampler = nullptr;
  }
  if (task.is_source) {
    source_tasks_.erase(std::remove(source_tasks_.begin(), source_tasks_.end(), ti),
                        source_tasks_.end());
  }
}

void ClusterSimulation::CrashTask(std::uint32_t ti, bool restart) {
  Task& task = tasks_[ti];
  const TaskId id = task.id;
  const JobVertex& jv = graph_.vertex(id.vertex);
  ++result_.task_crashes;

  // Everything the process held dies with it: queued input and emissions
  // resolved but not yet handed to an output buffer.
  std::uint64_t lost = task.input.size();
  lost += task.emits.size() - task.emit_pos;
  task.input.clear();
  task.emits.clear();
  task.emit_pos = 0;
  task.parked_channels.clear();
  task.inbound_inflight = 0;

  // Connections INTO the crashed task drop: producer-side buffers destined
  // for it, batches on the wire and batches parked waiting for queue space.
  for (std::uint32_t ci : task.in_channels) {
    Channel& ch = channels_[ci];
    lost += ch.buffer.size();
    for (std::size_t i = 0; i < ch.in_transit.size(); ++i) lost += ch.in_transit[i].items.size();
    for (std::size_t i = 0; i < ch.ready.size(); ++i) lost += ch.ready[i].items.size();
    ch.buffer.clear();
    ch.buffer_bytes = 0;
    ch.in_transit.clear();
    ch.ready.clear();
    ch.inflight = 0;
    ch.flush_wanted = false;
    ch.deadline_armed = false;
    ++ch.deadline_generation;
    ++ch.transit_generation;  // already-scheduled arrivals are void
    ch.parked_registered = false;
    if (ch.producer_blocked) {
      ch.producer_blocked = false;
      ResumeEmissions(ch.producer);
    }
  }
  // The crash also takes its own un-flushed output buffers; batches already
  // on the wire towards live consumers are delivered normally.
  for (std::uint32_t ci : task.out_channels) {
    Channel& ch = channels_[ci];
    lost += ch.buffer.size();
    ch.buffer.clear();
    ch.buffer_bytes = 0;
    ch.flush_wanted = false;
    ch.deadline_armed = false;
    ++ch.deadline_generation;
    ch.producer_blocked = false;  // the blocked producer was the dead task
  }
  result_.items_lost += lost;

  StopTask(ti);
  RebuildAllRouting();  // producers route around the hole immediately
  ESP_LOG_WARN << "task " << jv.name << "[" << id.subtask << "] crashed at t="
               << ToSeconds(events_.Now()) << "s (" << lost << " in-flight items lost"
               << (restart ? ", restarting)" : ", not restarted)");

  if (restart) {
    // Respawn through the normal scheduling path: the replacement spins up
    // for task_start_delay (the paper's 1-2 s), then rejoins the routing.
    CreateTask(id.vertex, id.subtask, /*initial=*/false);
    ++result_.task_restarts;
  }

  // Measurements spanning the outage describe a broken topology; discard
  // them and keep the scaler from reacting to the recovery transient.
  std::vector<JobEdgeId> adjacent = jv.inputs;
  adjacent.insert(adjacent.end(), jv.outputs.begin(), jv.outputs.end());
  for (QosManager& m : managers_) {
    m.MarkStale(events_.Now() + config_.measurement_interval);
    m.DropVertex(id.vertex, adjacent);
  }
  scaler_.SuppressFor(1);
}

void ClusterSimulation::ApplyScaling(const std::vector<ScalingAction>& actions) {
  for (const ScalingAction& a : actions) {
    graph_.SetParallelism(a.vertex, a.new_parallelism);
    if (a.new_parallelism > a.old_parallelism) {
      for (std::uint32_t s = a.old_parallelism; s < a.new_parallelism; ++s) {
        CreateTask(a.vertex, s, /*initial=*/false);
      }
    } else {
      for (std::uint32_t s = a.new_parallelism; s < a.old_parallelism; ++s) {
        BeginDrain(DenseIndex(TaskId{a.vertex, s}));
      }
    }
  }
  RebuildAllRouting();
}

// ------------------------------------------------------------------ wiring

std::uint32_t ClusterSimulation::GetOrCreateChannel(JobEdgeId edge, std::uint32_t prod_sub,
                                                    std::uint32_t cons_sub) {
  const ChannelId id{edge, prod_sub, cons_sub};
  const auto it = channel_index_.find(id);
  if (it != channel_index_.end()) return it->second;

  Channel ch;
  ch.id = id;
  ch.producer = DenseIndex(TaskId{graph_.edge(edge).source, prod_sub});
  ch.consumer = DenseIndex(TaskId{graph_.edge(edge).target, cons_sub});
  QosReporter& reporter = ReporterFor(tasks_[ch.consumer].worker);
  if (!reporter.HasChannel(id)) reporter.AddChannel(id);
  ch.sampler = &reporter.channel_sampler(id);

  channels_.push_back(std::move(ch));
  const std::uint32_t ci = static_cast<std::uint32_t>(channels_.size() - 1);
  channel_index_[id] = ci;
  tasks_[channels_[ci].producer].out_channels.push_back(ci);
  tasks_[channels_[ci].consumer].in_channels.push_back(ci);
  return ci;
}

std::uint32_t ClusterSimulation::CachedChannel(std::uint32_t ti, std::uint32_t output_index,
                                               JobEdgeId edge, std::uint32_t cons_sub) {
  std::vector<std::uint32_t>& cache = tasks_[ti].channel_cache[output_index];
  if (cons_sub >= cache.size()) cache.resize(cons_sub + 1, kNoChannel);
  std::uint32_t& slot = cache[cons_sub];
  if (slot == kNoChannel) slot = GetOrCreateChannel(edge, tasks_[ti].id.subtask, cons_sub);
  return slot;
}

void ClusterSimulation::RebuildRouting(JobEdgeId edge) {
  const JobEdge& je = graph_.edge(edge);
  EdgeRouting& routing = routing_[Value(edge)];
  routing.consumers.clear();
  routing.per_producer.clear();

  const std::uint32_t p_target = graph_.vertex(je.target).parallelism;
  for (std::uint32_t s = 0; s < p_target; ++s) {
    const auto it = task_index_.find(TaskId{je.target, s});
    if (it == task_index_.end()) continue;
    if (tasks_[it->second].state == TaskState::kRunning) routing.consumers.push_back(s);
  }

  if (je.pattern == WiringPattern::kPointwise && !routing.consumers.empty()) {
    const std::uint32_t p_source = graph_.vertex(je.source).parallelism;
    routing.per_producer.assign(p_source, {});
    const std::uint32_t n =
        std::max(p_source, static_cast<std::uint32_t>(routing.consumers.size()));
    for (std::uint32_t k = 0; k < n; ++k) {
      routing.per_producer[k % p_source].push_back(
          routing.consumers[k % routing.consumers.size()]);
    }
  }
}

void ClusterSimulation::RebuildAllRouting() {
  for (JobEdgeId e : graph_.EdgeIds()) RebuildRouting(e);
}

// -------------------------------------------------------------- processing

void ClusterSimulation::MaybeStartProbeAtEdge(SimItem& item, JobEdgeId edge) {
  if (item.probe_constraint != kNoProbe) return;
  for (std::size_t k = 0; k < probes_.size(); ++k) {
    if (probes_[k].start_edge && *probes_[k].start_edge == edge) {
      if (rng_.Bernoulli(config_.probe_sample_probability)) {
        item.probe_constraint = static_cast<std::int8_t>(k);
        item.probe_time = events_.Now();
      }
      return;
    }
  }
}

void ClusterSimulation::RecordProbeEnd(std::int8_t constraint, SimTime probe_time) {
  const double latency = ToSeconds(events_.Now() - probe_time);
  window_probe_[constraint]->Add(latency);
  adjustment_probe_[constraint]->Add(latency);
}

void ClusterSimulation::ResolveEmissions(std::uint32_t ti,
                                         const std::vector<EmitRequest>& requests,
                                         const SimItem* origin,
                                         std::vector<ResolvedEmit>& out) {
  Task& task = tasks_[ti];
  const JobVertex& jv = graph_.vertex(task.id.vertex);

  for (const EmitRequest& req : requests) {
    if (req.output_index >= jv.outputs.size()) {
      throw std::out_of_range("EmitRequest: bad output index for '" + jv.name + "'");
    }
    const JobEdgeId edge = jv.outputs[req.output_index];
    const EdgeRouting& routing = routing_[Value(edge)];

    // Resolve target consumer task(s) per the edge's wiring pattern.
    std::uint32_t single = 0;
    bool broadcast = false;
    const std::vector<std::uint32_t>* pool = &routing.consumers;
    switch (graph_.edge(edge).pattern) {
      case WiringPattern::kBroadcast:
        broadcast = true;
        break;
      case WiringPattern::kPointwise:
        if (task.id.subtask < routing.per_producer.size()) {
          pool = &routing.per_producer[task.id.subtask];
        }
        [[fallthrough]];
      case WiringPattern::kRoundRobin:
        if (!pool->empty()) single = (*pool)[task.rr[req.output_index]++ % pool->size()];
        break;
      case WiringPattern::kKeyPartitioned:
        if (!pool->empty()) single = (*pool)[req.key % pool->size()];
        break;
    }
    if (pool->empty()) {
      ++dropped_items_;  // no live consumer (transient during rescale)
      continue;
    }

    SimItem base;
    base.size_bytes = req.size_bytes;
    base.key = req.key;
    base.tag = req.tag;
    if (req.inherit_lineage && origin != nullptr) {
      base.source_emit = origin->source_emit;
      base.probe_constraint = origin->probe_constraint;
      base.probe_time = origin->probe_time;
    } else {
      base.source_emit = events_.Now();
      if (!task.pending_probes.empty()) {
        // A window result carries one probe sampled uniformly from the
        // window's inputs; the rest are discarded so stale probes from
        // earlier windows can never leak into later emissions.
        const std::size_t pick = static_cast<std::size_t>(task.rng.UniformInt(
            0, static_cast<std::int64_t>(task.pending_probes.size()) - 1));
        base.probe_constraint = task.pending_probes[pick].first;
        base.probe_time = task.pending_probes[pick].second;
        task.pending_probes.clear();
      }
    }

    const std::size_t first = out.size();
    if (broadcast) {
      for (std::uint32_t cons_sub : *pool) {
        ResolvedEmit re;
        re.channel = CachedChannel(ti, req.output_index, edge, cons_sub);
        re.item = base;
        // Only the first copy keeps the probe: recording the same probe once
        // per broadcast target would overweight broadcast hops.
        if (out.size() > first) re.item.probe_constraint = kNoProbe;
        MaybeStartProbeAtEdge(re.item, edge);
        out.push_back(re);
      }
    } else {
      ResolvedEmit re;
      re.channel = CachedChannel(ti, req.output_index, edge, single);
      re.item = base;
      MaybeStartProbeAtEdge(re.item, edge);
      out.push_back(re);
    }
  }
}

void ClusterSimulation::SetFlushDeadlines(FlushDeadlines deadlines) {
  flush_deadlines_ = std::move(deadlines);
  std::fill(flush_deadline_by_edge_.begin(), flush_deadline_by_edge_.end(),
            config_.batching.min_deadline);
  for (const auto& [edge, deadline] : flush_deadlines_) flush_deadline_by_edge_[edge] = deadline;
}

bool ClusterSimulation::CanFlush(const Channel& ch) const {
  return ch.inflight < config_.network.max_inflight_batches;
}

bool ClusterSimulation::AppendToChannel(std::uint32_t ci, SimItem item, bool allow_overfill) {
  Channel& ch = channels_[ci];
  // Instant flushing ships items individually: once the in-flight window is
  // exhausted the producer must stall on the single-item "buffer" instead
  // of silently accumulating a batch (which would make batching -- and its
  // throughput advantage -- emerge inside the supposedly unbatched config).
  const bool buffer_full = config_.shipping == ShippingStrategy::kInstantFlush
                               ? !ch.buffer.empty()
                               : ch.buffer_bytes >= config_.network.buffer_bytes;
  if (buffer_full) {
    if (CanFlush(ch)) {
      Flush(ci);
    } else if (!allow_overfill) {
      ch.flush_wanted = true;  // flush as soon as the window frees up
      return false;
    }
  }

  item.channel_emit = events_.Now();
  item.buffer_entered = events_.Now();
  ch.buffer.push_back(item);
  ch.buffer_bytes += std::max<std::uint32_t>(1, item.size_bytes);

  switch (config_.shipping) {
    case ShippingStrategy::kInstantFlush:
      if (CanFlush(ch)) {
        Flush(ci);
      } else {
        ch.flush_wanted = true;
      }
      break;
    case ShippingStrategy::kFixedBuffer:
      if (ch.buffer_bytes >= config_.network.buffer_bytes) {
        if (CanFlush(ch)) {
          Flush(ci);
        } else {
          ch.flush_wanted = true;
        }
      }
      break;
    case ShippingStrategy::kAdaptive:
      if (ch.buffer_bytes >= config_.network.buffer_bytes) {
        if (CanFlush(ch)) {
          Flush(ci);
        } else {
          ch.flush_wanted = true;
        }
      } else if (!ch.deadline_armed) {
        ch.deadline_armed = true;
        events_.Schedule(events_.Now() + flush_deadline_by_edge_[Value(ch.id.edge)],
                         EventType::kFlushDeadline, ci, ch.deadline_generation);
      }
      break;
  }
  return true;
}

void ClusterSimulation::Flush(std::uint32_t ci) {
  Channel& ch = channels_[ci];
  if (ch.buffer.empty()) return;

  Batch batch;
  batch.items = std::move(ch.buffer);
  batch.bytes = ch.buffer_bytes;
  // The channel's next buffer is a recycled one (DeliverReady returns
  // them), so steady-state flushing does not touch the allocator.
  if (spare_buffers_.empty()) {
    ch.buffer = {};
  } else {
    ch.buffer = std::move(spare_buffers_.back());
    spare_buffers_.pop_back();
  }
  ch.buffer_bytes = 0;
  ch.deadline_armed = false;
  ++ch.deadline_generation;
  ch.flush_wanted = false;

  if (ch.sampler != nullptr) {
    for (const SimItem& item : batch.items) {
      ch.sampler->OfferOutputBatchLatency(ToSeconds(events_.Now() - item.buffer_entered));
      ch.sampler->CountItem();
    }
  }

  const SimDuration transfer =
      config_.network.wire_latency +
      FromSeconds(static_cast<double>(batch.bytes) / config_.network.bandwidth_bytes_per_sec);
  const SimTime arrival = std::max(events_.Now() + transfer, ch.last_arrival);
  ch.last_arrival = arrival;
  ch.in_transit.push_back(std::move(batch));
  ++ch.inflight;
  ++tasks_[ch.consumer].inbound_inflight;
  tasks_[ch.producer].deferred_cpu += config_.network.flush_cpu;
  events_.Schedule(arrival, EventType::kBatchArrival, ci, ch.transit_generation);

  if (ch.producer_blocked) {
    ch.producer_blocked = false;
    ResumeEmissions(ch.producer);
  }
  // Emptying the buffer may have been the producer's last drain obstacle
  // (deadline- and delivery-triggered flushes run outside its own event
  // paths, so nothing else would re-check).
  MaybeStop(ch.producer);
}

void ClusterSimulation::DeliverReady(std::uint32_t ci) {
  Channel& ch = channels_[ci];
  Task& consumer = tasks_[ch.consumer];

  while (!ch.ready.empty()) {
    Batch& batch = ch.ready.front();
    if (consumer.input.size() + batch.items.size() > config_.network.queue_capacity) {
      // Backpressure: the batch waits until the consumer makes room.
      if (!ch.parked_registered) {
        ch.parked_registered = true;
        consumer.parked_channels.push_back(ci);
      }
      return;
    }
    for (SimItem& item : batch.items) {
      consumer.input.push_back(QueuedItem{item, events_.Now(), ci});
      if (consumer.sampler != nullptr) consumer.sampler->RecordArrivals(events_.Now(), 1);
    }
    consumer.deferred_cpu += config_.network.receive_batch_cpu;
    batch.items.clear();
    spare_buffers_.push_back(std::move(batch.items));
    ch.ready.pop_front();
    --ch.inflight;
    --consumer.inbound_inflight;

    if (ch.flush_wanted && !ch.buffer.empty() && CanFlush(ch)) Flush(ci);
    if (ch.producer_blocked && ch.buffer_bytes < config_.network.buffer_bytes) {
      ch.producer_blocked = false;
      ResumeEmissions(ch.producer);
    }
  }
  ch.parked_registered = false;
}

void ClusterSimulation::DrainParked(std::uint32_t ti) {
  Task& task = tasks_[ti];
  while (!task.parked_channels.empty()) {
    const std::uint32_t ci = task.parked_channels.front();
    channels_[ci].parked_registered = false;
    task.parked_channels.pop_front();
    DeliverReady(ci);
    if (channels_[ci].parked_registered) break;  // still does not fit
  }
}

void ClusterSimulation::TryStartNext(std::uint32_t ti) {
  Task& task = tasks_[ti];
  if (task.is_source || task.phase != TaskPhase::kIdle) return;
  if (task.state != TaskState::kRunning && task.state != TaskState::kDraining) return;
  if (task.input.empty()) {
    MaybeStop(ti);
    return;
  }

  QueuedItem qi = task.input.front();
  task.input.pop_front();
  DrainParked(ti);

  Channel& in_ch = channels_[qi.channel_index];
  if (in_ch.sampler != nullptr) {
    in_ch.sampler->OfferChannelLatency(ToSeconds(events_.Now() - qi.item.channel_emit));
  }

  // Ground-truth probe bookkeeping.
  if (qi.item.probe_constraint == kNoProbe) {
    for (std::size_t k = 0; k < probes_.size(); ++k) {
      if (probes_[k].start_vertex && *probes_[k].start_vertex == task.id.vertex) {
        if (rng_.Bernoulli(config_.probe_sample_probability)) {
          qi.item.probe_constraint = static_cast<std::int8_t>(k);
          qi.item.probe_time = events_.Now();
        }
        break;
      }
    }
  }
  task.pending_end_probe = {kNoProbe, 0};
  if (qi.item.probe_constraint != kNoProbe) {
    const ConstraintProbe& probe = probes_[qi.item.probe_constraint];
    if (probe.end_edge && *probe.end_edge == in_ch.id.edge) {
      RecordProbeEnd(qi.item.probe_constraint, qi.item.probe_time);
      qi.item.probe_constraint = kNoProbe;
    } else if (probe.end_vertex && *probe.end_vertex == task.id.vertex) {
      // Recorded once the item counts as processed (service complete).
      task.pending_end_probe = {qi.item.probe_constraint, qi.item.probe_time};
    }
  }

  // Windowed (read-write) task latency: remember sampled consume times until
  // the next emission.
  if (task.logic->latency_mode() == LatencyMode::kReadWrite &&
      task.rw_pending.size() < 256 &&
      task.rng.Bernoulli(config_.latency_sample_probability)) {
    task.rw_pending.push_back(events_.Now());
  }
  // Window results inherit a sampled probe of their inputs.
  if (qi.item.probe_constraint != kNoProbe && task.pending_end_probe.first == kNoProbe &&
      task.logic->latency_mode() == LatencyMode::kReadWrite &&
      task.pending_probes.size() < 64) {
    task.pending_probes.emplace_back(qi.item.probe_constraint, qi.item.probe_time);
  }

  if (graph_.vertex(task.id.vertex).outputs.empty()) {
    ++delivered_total_;
    ++window_delivered_;
  }

  scratch_requests_.clear();
  const double udf_seconds =
      task.logic->OnItem(events_.Now(), qi.item, task.rng, scratch_requests_);
  task.emits.clear();
  task.emit_pos = 0;
  ResolveEmissions(ti, scratch_requests_, &qi.item, task.emits);

  const double service = udf_seconds + config_.network.receive_item_cpu +
                         config_.network.emit_item_cpu * task.emits.size() +
                         task.deferred_cpu;
  task.deferred_cpu = 0.0;
  task.current_service_cpu = service;
  task.service_started = events_.Now();
  task.phase = TaskPhase::kServing;
  events_.Schedule(events_.Now() + FromSeconds(service), EventType::kServiceDone, ti,
                   task.generation);
}

void ClusterSimulation::ResumeEmissions(std::uint32_t ti) {
  Task& task = tasks_[ti];
  while (task.emit_pos < task.emits.size()) {
    ResolvedEmit& re = task.emits[task.emit_pos];
    if (!AppendToChannel(re.channel, re.item, /*allow_overfill=*/false)) {
      task.phase = TaskPhase::kBlocked;
      channels_[re.channel].producer_blocked = true;
      return;
    }
    ++task.emit_pos;
  }
  FinishEmissions(ti);
}

void ClusterSimulation::FinishEmissions(std::uint32_t ti) {
  Task& task = tasks_[ti];
  task.cpu_seconds += task.current_service_cpu;

  const bool emitted = !task.emits.empty();
  if (task.sampler != nullptr) {
    // Read-ready latency = consume -> ready for the next read.  Includes
    // time blocked on backpressure, which is exactly how the paper's
    // measured service time inflates at saturated producers.
    const double total = ToSeconds(events_.Now() - task.service_started);
    task.sampler->RecordServiceTime(total);
    if (!task.is_source && task.logic->latency_mode() == LatencyMode::kReadReady) {
      task.sampler->OfferTaskLatency(total);
    }
    if (emitted && !task.rw_pending.empty()) {
      for (SimTime t : task.rw_pending) {
        task.sampler->OfferTaskLatency(ToSeconds(events_.Now() - t));
      }
      task.rw_pending.clear();
    }
  }

  if (task.pending_end_probe.first != kNoProbe) {
    RecordProbeEnd(task.pending_end_probe.first, task.pending_end_probe.second);
    task.pending_end_probe = {kNoProbe, 0};
  }

  task.emits.clear();
  task.emit_pos = 0;
  task.phase = TaskPhase::kIdle;

  if (task.is_source) {
    if (task.state == TaskState::kRunning && !task.source_done) {
      const double interval = task.source->NextInterval(events_.Now(), task.rng);
      if (interval < 0) {
        task.source_done = true;
      } else {
        // Pace against the schedule, not against completion: emission CPU
        // and backpressure delays only throttle the source once the loop
        // falls behind by more than the catch-up window; older debt is
        // dropped (the paper's attempted-vs-effective throughput
        // semantics).
        task.next_tick = std::max(task.next_tick + FromSeconds(interval),
                                  events_.Now() - config_.source_catchup_window);
        events_.Schedule(task.next_tick, EventType::kSourceEmit, ti, task.generation);
      }
    }
  } else {
    TryStartNext(ti);
    MaybeStop(ti);
  }
}

// ----------------------------------------------------------- event handlers

void ClusterSimulation::OnSourceEmit(const Event& e) {
  Task& task = tasks_[e.a];
  if (e.generation != task.generation || task.state != TaskState::kRunning) return;
  if (task.phase != TaskPhase::kIdle) return;  // defensive; should not happen

  scratch_requests_.clear();
  task.source->MakeEmissions(events_.Now(), task.rng, scratch_requests_);
  task.emits.clear();
  task.emit_pos = 0;
  ResolveEmissions(e.a, scratch_requests_, nullptr, task.emits);

  ++window_emitted_;
  ++emitted_total_;

  const double service =
      config_.network.emit_item_cpu * task.emits.size() + task.deferred_cpu;
  task.deferred_cpu = 0.0;
  task.current_service_cpu = service;
  task.service_started = events_.Now();
  task.phase = TaskPhase::kServing;
  events_.Schedule(events_.Now() + FromSeconds(service), EventType::kServiceDone, e.a,
                   task.generation);
}

void ClusterSimulation::OnServiceDone(const Event& e) {
  Task& task = tasks_[e.a];
  if (e.generation != task.generation) return;
  if (task.phase != TaskPhase::kServing) return;
  task.phase = TaskPhase::kEmitting;
  ResumeEmissions(e.a);
}

void ClusterSimulation::OnFlushDeadline(const Event& e) {
  Channel& ch = channels_[e.a];
  if (e.generation != ch.deadline_generation) return;  // superseded by a flush
  ch.deadline_armed = false;
  if (ch.buffer.empty()) return;
  if (CanFlush(ch)) {
    Flush(e.a);
  } else {
    ch.flush_wanted = true;
  }
}

void ClusterSimulation::OnBatchArrival(const Event& e) {
  Channel& ch = channels_[e.a];
  if (e.generation != ch.transit_generation) return;  // wiped by a crash
  if (ch.in_transit.empty()) return;  // defensive
  ch.ready.push_back(std::move(ch.in_transit.front()));
  ch.in_transit.pop_front();
  const std::uint32_t consumer = ch.consumer;
  DeliverReady(e.a);
  TryStartNext(consumer);
  MaybeStop(consumer);
}

void ClusterSimulation::OnTaskTimer(const Event& e) {
  Task& task = tasks_[e.a];
  if (e.generation != task.generation) return;
  if (task.state == TaskState::kStopped) return;

  scratch_requests_.clear();
  const double cost = task.logic->OnTimer(events_.Now(), task.rng, scratch_requests_);
  task.deferred_cpu += cost;

  if (!scratch_requests_.empty()) {
    // Timer emissions bypass the service state machine (they model a
    // separate window-trigger thread); they overfill rather than block.
    scratch_emits_.clear();
    ResolveEmissions(e.a, scratch_requests_, nullptr, scratch_emits_);
    task.deferred_cpu += config_.network.emit_item_cpu * scratch_emits_.size();
    for (const ResolvedEmit& re : scratch_emits_) {
      AppendToChannel(re.channel, re.item, /*allow_overfill=*/true);
    }
    if (task.sampler != nullptr && !task.rw_pending.empty()) {
      for (SimTime t : task.rw_pending) {
        task.sampler->OfferTaskLatency(ToSeconds(events_.Now() - t));
      }
      task.rw_pending.clear();
    }
  }

  if (task.state != TaskState::kStopped) {
    events_.Schedule(events_.Now() + task.logic->TimerPeriod(), EventType::kTaskTimer, e.a,
                     task.generation);
  }
}

void ClusterSimulation::OnTaskStarted(const Event& e) {
  Task& task = tasks_[e.a];
  if (e.generation != task.generation) return;
  if (task.state != TaskState::kStarting) return;
  task.state = TaskState::kRunning;
  ActivateTask(e.a);
  RebuildAllRouting();
}

void ClusterSimulation::OnTaskFault(const Event& e) {
  const FaultSpec& fault = config_.faults[e.a];
  const TaskId id{graph_.VertexByName(fault.vertex), fault.subtask};
  const auto it = task_index_.find(id);
  if (it == task_index_.end() || (tasks_[it->second].state != TaskState::kRunning &&
                                  tasks_[it->second].state != TaskState::kDraining)) {
    ESP_LOG_WARN << "fault at t=" << ToSeconds(events_.Now()) << "s: task " << fault.vertex
                 << "[" << fault.subtask << "] is not live; fault skipped";
    return;
  }
  CrashTask(it->second, fault.restart);
}

void ClusterSimulation::OnMeasurementTick() {
  // Attempted throughput: integral of the sources' scheduled rates.
  double attempted_rate = 0.0;
  for (std::uint32_t ti : source_tasks_) {
    if (tasks_[ti].state == TaskState::kRunning) {
      attempted_rate += tasks_[ti].source->RateAt(events_.Now());
    }
  }
  window_attempted_ += attempted_rate * ToSeconds(config_.measurement_interval);

  // Reporters harvest; each task/channel measurement is sharded to a QoS
  // manager (paper: each manager sees only a subset).
  std::vector<QosReport> shards(managers_.size());
  for (auto& reporter : reporters_) {
    if (!reporter) continue;
    QosReport report = reporter->TakeReport(events_.Now());
    for (auto& entry : report.tasks) {
      shards[std::hash<TaskId>{}(entry.first) % shards.size()].tasks.push_back(
          std::move(entry));
    }
    for (auto& entry : report.channels) {
      shards[std::hash<ChannelId>{}(entry.first) % shards.size()].channels.push_back(
          std::move(entry));
    }
  }
  for (std::size_t m = 0; m < managers_.size(); ++m) {
    shards[m].time = events_.Now();
    managers_[m].Ingest(shards[m]);
  }

  events_.Schedule(events_.Now() + config_.measurement_interval,
                   EventType::kMeasurementTick);
}

void ClusterSimulation::OnAdjustmentTick() {
  std::vector<PartialSummary> partials;
  partials.reserve(managers_.size());
  for (QosManager& m : managers_) partials.push_back(m.MakePartialSummary(events_.Now()));
  last_summary_ = MergeSummaries(partials);

  AdjustmentRecord record;
  record.time = events_.Now();
  for (std::size_t k = 0; k < constraints_.size(); ++k) {
    const auto& acc = adjustment_probe_[k];
    record.measured_latency.push_back(acc->stats.count() ? acc->stats.Mean() : -1.0);
    double estimate = 0.0;
    const bool ok =
        EstimateSequenceLatency(last_summary_, constraints_[k].sequence, &estimate);
    record.estimated_latency.push_back(ok ? estimate : -1.0);
    acc->Reset();
  }

  if (config_.shipping == ShippingStrategy::kAdaptive && !constraints_.empty()) {
    SetFlushDeadlines(ComputeFlushDeadlines(graph_, constraints_, last_summary_,
                                            flush_deadlines_, config_.batching));
  }

  if (config_.scaler.enabled && !constraints_.empty()) {
    const std::vector<ScalingAction> actions =
        scaler_.Adjust(graph_, constraints_, last_summary_);
    if (!actions.empty()) {
      ApplyScaling(actions);
      scaler_.NotifyApplied(actions);
      // Measurements taken at the old parallelism describe a system that no
      // longer exists; drop them so the next summary is built from fresh
      // intervals only.
      for (const ScalingAction& a : actions) {
        const JobVertex& jv = graph_.vertex(a.vertex);
        std::vector<JobEdgeId> adjacent = jv.inputs;
        adjacent.insert(adjacent.end(), jv.outputs.begin(), jv.outputs.end());
        for (QosManager& m : managers_) m.DropVertex(a.vertex, adjacent);
      }
    }
    const RuntimeGraph rg = RuntimeGraph::Expand(graph_);
    for (QosManager& m : managers_) m.Prune(rg);
  }

  for (JobVertexId v : graph_.VertexIds()) {
    record.parallelism.push_back({graph_.vertex(v).name, graph_.vertex(v).parallelism});
  }
  result_.adjustments.push_back(std::move(record));

  events_.Schedule(events_.Now() + config_.adjustment_interval, EventType::kAdjustmentTick);
}

void ClusterSimulation::RollWindow(SimTime window_end) {
  WindowMetrics wm;
  wm.start = window_start_;
  wm.end = window_end;
  const double span = ToSeconds(window_end - window_start_);
  if (span <= 0) return;

  for (auto& acc : window_probe_) {
    ConstraintWindowStats cs;
    cs.samples = acc->stats.count();
    cs.mean_latency = acc->stats.Mean();
    cs.p95_latency = acc->p95.Value();
    wm.constraints.push_back(cs);
    acc->Reset();
  }

  wm.attempted_rate = window_attempted_ / span;
  wm.effective_rate = static_cast<double>(window_emitted_) / span;
  wm.delivered_rate = static_cast<double>(window_delivered_) / span;
  window_attempted_ = 0.0;
  window_emitted_ = 0;
  window_delivered_ = 0;

  for (JobVertexId v : graph_.VertexIds()) {
    wm.parallelism.push_back({graph_.vertex(v).name, graph_.vertex(v).parallelism});
  }

  double cpu = 0.0;
  double alive = 0.0;
  std::uint64_t running = 0;
  for (Task& t : tasks_) {
    if (t.state == TaskState::kRunning || t.state == TaskState::kDraining) {
      ++running;
      cpu += t.cpu_seconds - t.cpu_seconds_at_window;
      alive += ToSeconds(window_end - std::max(t.alive_at_window, window_start_));
      t.cpu_seconds_at_window = t.cpu_seconds;
      t.alive_at_window = window_end;
    }
  }
  wm.cpu_utilization = alive > 0 ? cpu / alive : 0.0;
  wm.running_tasks = running;

  result_.windows.push_back(std::move(wm));
  window_start_ = window_end;
}

void ClusterSimulation::OnMetricsTick() {
  RollWindow(events_.Now());
  events_.Schedule(events_.Now() + config_.metrics_window, EventType::kMetricsTick);
}

// ----------------------------------------------------------------- run loop

RunResult ClusterSimulation::Run(SimDuration duration) {
  if (ran_) throw std::logic_error("ClusterSimulation::Run: already ran");
  ran_ = true;
  run_duration_ = duration;

  for (std::size_t k = 0; k < constraints_.size(); ++k) {
    window_probe_.push_back(std::make_unique<ProbeWindowAcc>());
    adjustment_probe_.push_back(std::make_unique<ProbeWindowAcc>());
  }

  // Materialise the initial tasks and wiring.
  for (JobVertexId v : graph_.VertexIds()) {
    const JobVertex& jv = graph_.vertex(v);
    if (!jv.inputs.empty() && logic_factories_.find(jv.name) == logic_factories_.end()) {
      throw std::logic_error("Run: vertex '" + jv.name + "' has no logic factory");
    }
    if (jv.inputs.empty() && source_factories_.find(jv.name) == source_factories_.end()) {
      throw std::logic_error("Run: source vertex '" + jv.name + "' has no source factory");
    }
    for (std::uint32_t s = 0; s < jv.parallelism; ++s) CreateTask(v, s, /*initial=*/true);
  }
  RebuildAllRouting();

  if (config_.shipping == ShippingStrategy::kAdaptive && !constraints_.empty()) {
    SetFlushDeadlines(
        ComputeFlushDeadlines(graph_, constraints_, GlobalSummary{}, {}, config_.batching));
  }

  // Adjustment ticks trail measurement ticks by 1 ms so a summary built at
  // an interval boundary always includes that boundary's measurements.
  events_.Schedule(config_.measurement_interval, EventType::kMeasurementTick);
  events_.Schedule(config_.adjustment_interval + FromMillis(1), EventType::kAdjustmentTick);
  events_.Schedule(config_.metrics_window, EventType::kMetricsTick);

  for (std::size_t i = 0; i < config_.faults.size(); ++i) {
    const FaultSpec& f = config_.faults[i];
    graph_.VertexByName(f.vertex);  // validates the name before the run starts
    if (f.at <= 0) throw std::invalid_argument("FaultSpec: fault time must be positive");
    events_.Schedule(f.at, EventType::kTaskFault, static_cast<std::uint32_t>(i));
  }

  Event e;
  while (events_.PopUntil(duration, e)) {
    switch (e.type()) {
      case EventType::kSourceEmit: OnSourceEmit(e); break;
      case EventType::kServiceDone: OnServiceDone(e); break;
      case EventType::kFlushDeadline: OnFlushDeadline(e); break;
      case EventType::kBatchArrival: OnBatchArrival(e); break;
      case EventType::kTaskTimer: OnTaskTimer(e); break;
      case EventType::kTaskStarted: OnTaskStarted(e); break;
      case EventType::kMeasurementTick: OnMeasurementTick(); break;
      case EventType::kAdjustmentTick: OnAdjustmentTick(); break;
      case EventType::kMetricsTick: OnMetricsTick(); break;
      case EventType::kTaskFault: OnTaskFault(e); break;
    }
  }

  if (window_start_ < duration) RollWindow(duration);

  for (const Task& t : tasks_) {
    if (t.state == TaskState::kRunning || t.state == TaskState::kDraining ||
        t.state == TaskState::kStarting) {
      const double hours = ToSeconds(duration - t.started_at) / 3600.0;
      task_hours_ += hours;
      result_.task_hours_by_vertex[graph_.vertex(t.id.vertex).name] += hours;
    }
  }

  // Close the leases of nodes still occupied at the end of the run.
  for (std::uint32_t w = 0; w < worker_leased_at_.size(); ++w) {
    if (worker_leased_at_[w] >= 0) {
      node_hours_ += ToSeconds(duration - worker_leased_at_[w]) / 3600.0;
      worker_leased_at_[w] = -1;
    }
  }
  result_.node_hours = node_hours_;

  result_.task_hours = task_hours_;
  result_.total_items_emitted = emitted_total_;
  result_.total_items_delivered = delivered_total_;
  if (dropped_items_ > 0) {
    ESP_LOG_INFO << "simulation dropped " << dropped_items_
                 << " emissions during rescaling transients";
  }
  return std::move(result_);
}

}  // namespace esp::sim
