// The benchmark's tracing: decorators around the engine's public UDF,
// source and collector interfaces, with spans kept in memory per thread.
//
// Nothing here reaches inside src/: a span is the time a decorated public
// call took, measured by the caller.  Every call updates per-thread
// aggregates (count, total, self time, a duration histogram, first/last
// time); calls whose record sequence number is a multiple of the span
// stride are also kept as individual spans, so spans of one record can be
// joined across threads by that number.  WriteSpans() dumps them when the
// run ends.  A layer's self time is its duration minus the decorated calls
// nested in it on the same thread (the chained Enrich OnRecord inside the
// Map Emit, for example).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "bench.h"
#include "common/histogram.h"
#include "runtime/udf.h"

namespace espbench {

enum class Kind : std::uint8_t { kProduce, kEmit, kOnRecord };
inline constexpr int kKinds = 3;
inline constexpr int kMaxVertices = 8;
inline constexpr std::uint64_t kNoTag = ~0ULL;

struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t tag = kNoTag;
  std::uint8_t vertex = 0;
  Kind kind = Kind::kEmit;
};

/// One (vertex, call kind) on one thread.
struct LayerStats {
  std::uint64_t count = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
  std::int64_t first_start_ns = -1;
  std::int64_t last_end_ns = -1;
  esp::LogHistogram duration_ns{1.0, 1.05};

  /// Mean duration (or self time) per call in ns; 0 without calls.
  double MeanNs(bool self = false) const {
    return count == 0 ? 0.0
                      : static_cast<double>(self ? self_ns : total_ns) / static_cast<double>(count);
  }
};

struct ThreadTrace {
  std::vector<Span> spans;
  std::array<std::array<LayerStats, kKinds>, kMaxVertices> stats;
};

/// Process-wide registry of per-thread trace buffers.  Buffers outlive the
/// engine threads that filled them; Reset() discards them all and must only
/// be called while no decorated call is running.
class Tracer {
 public:
  static constexpr std::size_t kMaxSpansPerThread = 1 << 20;

  static void Reset(std::uint64_t span_stride);
  static ThreadTrace& Local();
  static std::uint64_t span_stride();
  /// Snapshot of every buffer registered since the last Reset().
  static std::vector<const ThreadTrace*> Threads();
  /// Sums one (vertex, kind) over all threads.
  static LayerStats Merged(std::uint8_t vertex, Kind kind);
  /// Joins kept spans by sequence number: for each record with both spans,
  /// the microseconds from the start of the `from` span to the start of the
  /// `to` span.
  static std::vector<double> HopsUs(std::uint8_t from_vertex, Kind from_kind,
                                    std::uint8_t to_vertex, Kind to_kind);
  /// Writes every kept span as TSV (start, end, tag, vertex, kind).
  static void WriteSpans(const std::string& path, const std::vector<std::string>& vertex_names);
};

/// RAII span around one decorated call.
class SpanScope {
 public:
  SpanScope(std::uint8_t vertex, Kind kind, std::uint64_t tag) noexcept;
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  std::int64_t start_ns_;
  std::int64_t saved_child_ns_;
  std::uint64_t tag_;
  std::uint8_t vertex_;
  Kind kind_;
};

/// The sequence number of a record carrying a Stamped payload.
std::uint64_t TagOf(const esp::runtime::Record& record);

/// Times every Emit through the wrapped collector.
class TracedCollector final : public esp::runtime::Collector {
 public:
  TracedCollector(esp::runtime::Collector& inner, std::uint8_t vertex)
      : inner_(inner), vertex_(vertex) {}
  void Emit(esp::runtime::Record record, std::uint32_t output_index) override;

 private:
  esp::runtime::Collector& inner_;
  std::uint8_t vertex_;
};

/// Times OnRecord (and the Emits it makes) of the wrapped UDF.
class TracedUdf final : public esp::runtime::Udf {
 public:
  TracedUdf(std::unique_ptr<esp::runtime::Udf> inner, std::uint8_t vertex)
      : inner_(std::move(inner)), vertex_(vertex) {}
  void Open() override { inner_->Open(); }
  void OnRecord(const esp::runtime::Record& record, esp::runtime::Collector& out) override;
  esp::SimDuration TimerPeriod() const override { return inner_->TimerPeriod(); }
  void OnTimer(esp::runtime::Collector& out) override;
  esp::LatencyMode latency_mode() const override { return inner_->latency_mode(); }
  void Close() override { inner_->Close(); }

 private:
  std::unique_ptr<esp::runtime::Udf> inner_;
  std::uint8_t vertex_;
};

/// Times Produce (and the Emits it makes) of the wrapped source.
class TracedSource final : public esp::runtime::SourceFunction {
 public:
  TracedSource(std::unique_ptr<esp::runtime::SourceFunction> inner, std::uint8_t vertex)
      : inner_(std::move(inner)), vertex_(vertex) {}
  bool Produce(esp::runtime::Collector& out) override;

 private:
  std::unique_ptr<esp::runtime::SourceFunction> inner_;
  std::uint8_t vertex_;
};

esp::runtime::UdfFactory Traced(esp::runtime::UdfFactory factory, std::uint8_t vertex);
esp::runtime::SourceFunctionFactory Traced(esp::runtime::SourceFunctionFactory factory,
                                           std::uint8_t vertex);

/// Reports the record-path layers of a traced engine run: the source
/// thread's Emit cost and share, and the first hop (source Emit -> first
/// consumer OnRecord) and last hop (last producer Emit -> sink OnRecord).
void ReportEdgeLayers(Report& report, std::uint8_t source, std::uint8_t first_consumer,
                      std::uint8_t last_producer, std::uint8_t sink);

/// Instance lifecycle of one UDF vertex: factory call, Open, first and last
/// OnRecord, Close -- one clock read per record, so it stays on in
/// untraced runs of workloads whose records are sparse.
struct InstanceLife {
  std::uint32_t subtask = 0;
  std::int64_t factory_ns = -1;
  std::int64_t open_ns = -1;
  std::int64_t first_record_ns = -1;
  std::int64_t last_record_end_ns = -1;
  std::int64_t close_ns = -1;
};

class LifecycleLog {
 public:
  /// Registers a new instance; the returned pointer stays valid for the
  /// log's lifetime.
  InstanceLife* Add(std::uint32_t subtask);
  /// Instances in factory-call order (call after the engine run).
  std::vector<InstanceLife> Instances() const;

 private:
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<InstanceLife>> instances_;
};

/// Records the lifecycle of the wrapped UDF into `log`.
esp::runtime::UdfFactory WithLifecycle(esp::runtime::UdfFactory factory, LifecycleLog* log);

}  // namespace espbench
