// Task-chaining support types (DESIGN.md §10).
//
// Task chaining is the paper's second enforcement lever next to adaptive
// output batching: when an edge is pointwise (non-shuffling) and both
// endpoints run at equal parallelism, the k-th downstream subtask only ever
// receives from the k-th upstream subtask, so LocalEngine fuses the two
// UDFs into ONE task thread that invokes the downstream UDF synchronously
// per emitted record -- no queue hop and no batch envelope.  The companion
// Nephele Streaming work measures this as the dominant latency win for
// co-located tasks; Röger & Mayer survey it as the canonical
// fusion/parallelism trade.
//
// Chains are DYNAMIC: they dissolve at every stop-the-world rebuild
// (rescale, kRestartEpoch) and re-form from the chainability analysis of
// the new parallelism vector (graph::ChainableEdges), so the ElasticScaler
// trades fusion for parallelism without knowing chains exist.  Fused
// members keep their identity for everything observable: metric samplers
// stay per-vertex, failures name the member vertex that threw, and
// EngineResult::final_parallelism is reported from the graph, not from
// thread counts.
#pragma once

#include <cstdint>
#include <vector>

#include "common/function_effects.h"
#include "runtime/timing_cadence.h"

namespace esp::runtime {

/// Head-thread-local metric staging for one fused member.
///
/// ChainInvoke runs on the chain head's thread, but a member's samplers are
/// guarded by the member's sampler mutex (the control thread harvests them
/// concurrently).  Taking that lock per record would reintroduce the very
/// cost fusion removes, so per-record attribution lands here lock-free and
/// the head flushes the whole batch's worth under ONE lock acquisition
/// (LocalEngine::FlushChainMetrics).  The vectors reach a steady capacity
/// after warm-up, so the per-record path stays allocation-free.
struct ChainMetricStaging {
  /// A fused sink's delivery: its lineage stamp and its end (0 = untimed:
  /// it ends at the head batch's closing read).
  struct SinkStamp {
    std::int64_t source_emit_ns;
    std::int64_t end_ns;
  };

  std::uint64_t arrivals = 0;   ///< records handed to the member this batch
  std::uint64_t delivered = 0;  ///< sink members: records consumed this batch
  /// The member's timing cadence (timing_cadence.h) across the head batch.
  TimingCadence cadence;
  std::vector<double> service;  ///< timed records' service times (s)
  std::vector<SinkStamp> sink;  ///< sink members: one per delivery

  bool empty() const noexcept ESP_NONBLOCKING { return arrivals == 0; }

  /// Clears one batch's staging and opens the next head batch's cadence.
  void Flush() noexcept ESP_NONBLOCKING {
    arrivals = 0;
    delivered = 0;
    cadence.BeginBatch(0);
    service.clear();
    sink.clear();
  }
};

}  // namespace esp::runtime
