#include "trace.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <unordered_map>

#include "runtime/record.h"

namespace espbench {

using esp::runtime::Collector;
using esp::runtime::Record;
using esp::runtime::SourceFunction;
using esp::runtime::SourceFunctionFactory;
using esp::runtime::Udf;
using esp::runtime::UdfFactory;

namespace {

struct Registry {
  std::mutex mutex;
  std::vector<std::unique_ptr<ThreadTrace>> threads;
  // Read lock-free by every decorated call; written only by Reset().
  std::atomic<std::uint64_t> generation{1};
  std::atomic<std::uint64_t> span_stride{256};
};

Registry& TheRegistry() {
  static Registry registry;
  return registry;
}

// Per-thread buffer of the current registry generation, plus the nested
// decorated time of the innermost open span (for self time).
thread_local ThreadTrace* tls_trace = nullptr;
thread_local std::uint64_t tls_generation = 0;
thread_local std::int64_t tls_child_ns = 0;

}  // namespace

void Tracer::Reset(std::uint64_t span_stride) {
  Registry& r = TheRegistry();
  std::lock_guard<std::mutex> lock(r.mutex);
  r.threads.clear();
  r.generation.fetch_add(1);
  r.span_stride.store(span_stride == 0 ? 1 : span_stride);
}

ThreadTrace& Tracer::Local() {
  Registry& r = TheRegistry();
  const std::uint64_t generation = r.generation.load(std::memory_order_acquire);
  if (tls_trace == nullptr || tls_generation != generation) {
    std::lock_guard<std::mutex> lock(r.mutex);
    r.threads.push_back(std::make_unique<ThreadTrace>());
    tls_trace = r.threads.back().get();
    tls_trace->spans.reserve(4096);
    tls_generation = generation;
  }
  return *tls_trace;
}

std::uint64_t Tracer::span_stride() {
  return TheRegistry().span_stride.load(std::memory_order_relaxed);
}

std::vector<const ThreadTrace*> Tracer::Threads() {
  Registry& r = TheRegistry();
  std::lock_guard<std::mutex> lock(r.mutex);
  std::vector<const ThreadTrace*> out;
  for (const auto& t : r.threads) out.push_back(t.get());
  return out;
}

LayerStats Tracer::Merged(std::uint8_t vertex, Kind kind) {
  LayerStats merged;
  for (const ThreadTrace* t : Threads()) {
    const LayerStats& s = t->stats[vertex][static_cast<int>(kind)];
    if (s.count == 0) continue;
    merged.count += s.count;
    merged.total_ns += s.total_ns;
    merged.self_ns += s.self_ns;
    if (merged.first_start_ns < 0 || s.first_start_ns < merged.first_start_ns) {
      merged.first_start_ns = s.first_start_ns;
    }
    merged.last_end_ns = std::max(merged.last_end_ns, s.last_end_ns);
    merged.duration_ns.Merge(s.duration_ns);
  }
  return merged;
}

std::vector<double> Tracer::HopsUs(std::uint8_t from_vertex, Kind from_kind,
                                   std::uint8_t to_vertex, Kind to_kind) {
  std::unordered_map<std::uint64_t, std::int64_t> from, to;
  for (const ThreadTrace* t : Threads()) {
    for (const Span& s : t->spans) {
      if (s.vertex == from_vertex && s.kind == from_kind) from[s.tag] = s.start_ns;
      if (s.vertex == to_vertex && s.kind == to_kind) to[s.tag] = s.start_ns;
    }
  }
  std::vector<double> hops;
  for (const auto& [tag, start] : from) {
    if (const auto it = to.find(tag); it != to.end()) {
      hops.push_back(static_cast<double>(it->second - start) * 1e-3);
    }
  }
  return hops;
}

void Tracer::WriteSpans(const std::string& path, const std::vector<std::string>& vertex_names) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  static const char* kKindNames[kKinds] = {"Produce", "Emit", "OnRecord"};
  std::fprintf(f, "thread\tstart_ns\tend_ns\ttag\tvertex\tcall\n");
  std::size_t thread = 0;
  for (const ThreadTrace* t : Threads()) {
    for (const Span& s : t->spans) {
      const char* vertex =
          s.vertex < vertex_names.size() ? vertex_names[s.vertex].c_str() : "?";
      std::fprintf(f, "%zu\t%lld\t%lld\t%llu\t%s\t%s\n", thread,
                   static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns),
                   static_cast<unsigned long long>(s.tag), vertex,
                   kKindNames[static_cast<int>(s.kind)]);
    }
    ++thread;
  }
  std::fclose(f);
}

SpanScope::SpanScope(std::uint8_t vertex, Kind kind, std::uint64_t tag) noexcept
    : start_ns_(NowNs()), saved_child_ns_(tls_child_ns), tag_(tag), vertex_(vertex),
      kind_(kind) {
  tls_child_ns = 0;
}

SpanScope::~SpanScope() {
  const std::int64_t end = NowNs();
  const std::int64_t duration = end - start_ns_;
  ThreadTrace& t = Tracer::Local();
  LayerStats& s = t.stats[vertex_][static_cast<int>(kind_)];
  ++s.count;
  s.total_ns += duration;
  s.self_ns += duration - tls_child_ns;
  if (s.first_start_ns < 0) s.first_start_ns = start_ns_;
  s.last_end_ns = end;
  s.duration_ns.Add(static_cast<double>(duration));
  tls_child_ns = saved_child_ns_ + duration;
  if (tag_ != kNoTag && tag_ % Tracer::span_stride() == 0 &&
      t.spans.size() < Tracer::kMaxSpansPerThread) {
    t.spans.push_back(Span{start_ns_, end, tag_, vertex_, kind_});
  }
}

std::uint64_t TagOf(const Record& record) {
  return record.has_payload() ? esp::runtime::Get<Stamped>(record).seq : kNoTag;
}

void TracedCollector::Emit(Record record, std::uint32_t output_index) {
  SpanScope span(vertex_, Kind::kEmit, TagOf(record));
  inner_.Emit(std::move(record), output_index);
}

void TracedUdf::OnRecord(const Record& record, Collector& out) {
  SpanScope span(vertex_, Kind::kOnRecord, TagOf(record));
  TracedCollector traced(out, vertex_);
  inner_->OnRecord(record, traced);
}

void TracedUdf::OnTimer(Collector& out) {
  TracedCollector traced(out, vertex_);
  inner_->OnTimer(traced);
}

bool TracedSource::Produce(Collector& out) {
  SpanScope span(vertex_, Kind::kProduce, kNoTag);
  TracedCollector traced(out, vertex_);
  return inner_->Produce(traced);
}

UdfFactory Traced(UdfFactory factory, std::uint8_t vertex) {
  return [factory = std::move(factory), vertex](std::uint32_t subtask) -> std::unique_ptr<Udf> {
    return std::make_unique<TracedUdf>(factory(subtask), vertex);
  };
}

SourceFunctionFactory Traced(SourceFunctionFactory factory, std::uint8_t vertex) {
  return [factory = std::move(factory),
          vertex](std::uint32_t subtask) -> std::unique_ptr<SourceFunction> {
    return std::make_unique<TracedSource>(factory(subtask), vertex);
  };
}

void ReportEdgeLayers(Report& report, std::uint8_t source, std::uint8_t first_consumer,
                      std::uint8_t last_producer, std::uint8_t sink) {
  const LayerStats emit = Tracer::Merged(source, Kind::kEmit);
  const LayerStats produce = Tracer::Merged(source, Kind::kProduce);
  report.Set("runtime.emit_ns_mean", emit.MeanNs(), "ns");
  report.Set("runtime.emit_ns_p99", emit.duration_ns.Quantile(0.99), "ns");
  report.Set("runtime.src_in_emit_share",
             produce.total_ns > 0
                 ? static_cast<double>(emit.total_ns) / static_cast<double>(produce.total_ns)
                 : 0.0,
             "1");
  const std::vector<double> hop1 =
      Tracer::HopsUs(source, Kind::kEmit, first_consumer, Kind::kOnRecord);
  const std::vector<double> hop2 =
      Tracer::HopsUs(last_producer, Kind::kEmit, sink, Kind::kOnRecord);
  report.Set("runtime.hop1_us_p50", Quantile(hop1, 0.50), "us");
  report.Set("runtime.hop1_us_p99", Quantile(hop1, 0.99), "us");
  report.Set("runtime.hop2_us_p50", Quantile(hop2, 0.50), "us");
  report.Set("runtime.hop2_us_p99", Quantile(hop2, 0.99), "us");
  report.Meta("hop_span_samples", static_cast<double>(std::min(hop1.size(), hop2.size())));
}

InstanceLife* LifecycleLog::Add(std::uint32_t subtask) {
  std::lock_guard<std::mutex> lock(mutex_);
  instances_.push_back(std::make_unique<InstanceLife>());
  instances_.back()->subtask = subtask;
  return instances_.back().get();
}

std::vector<InstanceLife> LifecycleLog::Instances() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<InstanceLife> out;
  for (const auto& i : instances_) out.push_back(*i);
  return out;
}

namespace {

// Each instance's fields are written only by the task thread running it
// (and the factory call before that thread starts); they are read after
// LocalEngine::Run returned, which joined every task thread.
class LifecycleUdf final : public Udf {
 public:
  LifecycleUdf(std::unique_ptr<Udf> inner, InstanceLife* life)
      : inner_(std::move(inner)), life_(life) {}
  void Open() override {
    life_->open_ns = NowNs();
    inner_->Open();
  }
  void OnRecord(const Record& record, Collector& out) override {
    const std::int64_t start = NowNs();
    if (life_->first_record_ns < 0) life_->first_record_ns = start;
    inner_->OnRecord(record, out);
    life_->last_record_end_ns = NowNs();
  }
  esp::SimDuration TimerPeriod() const override { return inner_->TimerPeriod(); }
  void OnTimer(Collector& out) override { inner_->OnTimer(out); }
  esp::LatencyMode latency_mode() const override { return inner_->latency_mode(); }
  void Close() override {
    inner_->Close();
    life_->close_ns = NowNs();
  }

 private:
  std::unique_ptr<Udf> inner_;
  InstanceLife* life_;
};

}  // namespace

UdfFactory WithLifecycle(UdfFactory factory, LifecycleLog* log) {
  return [factory = std::move(factory), log](std::uint32_t subtask) -> std::unique_ptr<Udf> {
    InstanceLife* life = log->Add(subtask);
    life->factory_ns = NowNs();
    return std::make_unique<LifecycleUdf>(factory(subtask), life);
  };
}

}  // namespace espbench
