// TwitterSentiment on the threaded local runtime with REAL text processing:
// synthetic tweets, hashtag-based hot-topic windows and lexicon sentiment
// scoring (the laptop-scale sibling of bench/fig8).
//
//   TweetSource --+--rr--> Filter --rr--> Sentiment --rr--> Sink
//                 \--rr--> HotTopics --rr--> Merger --broadcast--> Filter
//
// Run:  ./build/examples/twitter_sentiment_local
#include <algorithm>
#include <exception>
#include <cstdio>
#include <map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/thread_annotations.h"
#include "runtime/engine.h"
#include "workloads/sentiment.h"
#include "workloads/tweets.h"

using namespace esp;
using namespace esp::runtime;
using namespace esp::workloads;

namespace {

constexpr std::uint8_t kTagTweet = 0;
constexpr std::uint8_t kTagTopicList = 1;

class TweetSource final : public SourceFunction {
 public:
  TweetSource(const TopicModel* topics, int total)
      : generator_(topics, 1234), total_(total) {}

  bool Produce(Collector& out) override {
    if (produced_ >= total_) return false;
    Tweet tweet = generator_.Next(0);
    const std::uint64_t topic = tweet.topic;
    // Each tweet is forwarded twice (paper): to Filter and to HotTopics.
    // Tweet holds a std::string, so this record is BOXED (one allocation
    // here, refcounted aliasing after): both downstream copies share the
    // same payload instead of duplicating the text.
    auto record = MakeRecord<Tweet>(std::move(tweet), topic, kTagTweet);
    out.Emit(record, 0);
    out.Emit(record, 1);
    ++produced_;
    std::this_thread::sleep_for(std::chrono::microseconds(800));
    return true;
  }

 private:
  TweetGenerator generator_;
  int total_;
  int produced_ = 0;
};

// 200 ms windowed top-topic extraction (read-write latency, like the paper).
class HotTopicsUdf final : public Udf {
 public:
  void OnRecord(const Record& r, Collector&) override { ++counts_[Get<Tweet>(r).topic]; }
  SimDuration TimerPeriod() const override { return FromMillis(200); }
  void OnTimer(Collector& out) override {
    if (counts_.empty()) return;
    std::vector<std::pair<std::uint64_t, int>> ranked(counts_.begin(), counts_.end());
    std::partial_sort(ranked.begin(), ranked.begin() + std::min<std::size_t>(5, ranked.size()),
                      ranked.end(), [](auto& a, auto& b) { return a.second > b.second; });
    std::vector<std::uint64_t> top;
    for (std::size_t i = 0; i < std::min<std::size_t>(5, ranked.size()); ++i) {
      top.push_back(ranked[i].first);
    }
    // A window result starts a fresh lineage (as the simulator's
    // WindowedLogic does): it stands for many tweets, not one.
    out.Emit(MakeRecord<std::vector<std::uint64_t>>(std::move(top), 0, kTagTopicList));
    counts_.clear();
  }
  LatencyMode latency_mode() const override { return LatencyMode::kReadWrite; }

 private:
  std::map<std::uint64_t, int> counts_;
};

// Merges partial lists and broadcasts the global list to all filters.
class MergerUdf final : public Udf {
 public:
  void OnRecord(const Record& r, Collector& out) override {
    for (std::uint64_t t : Get<std::vector<std::uint64_t>>(r)) merged_.insert(t);
    std::vector<std::uint64_t> global(merged_.begin(), merged_.end());
    out.Emit(MakeRecord<std::vector<std::uint64_t>>(std::move(global), 0, kTagTopicList));
    if (merged_.size() > 16) merged_.clear();  // keep the hot set fresh
  }

 private:
  std::unordered_set<std::uint64_t> merged_;
};

// Passes tweets whose topic is currently hot; absorbs topic lists.
class FilterUdf final : public Udf {
 public:
  void OnRecord(const Record& r, Collector& out) override {
    if (r.tag == kTagTopicList) {
      const auto& list = Get<std::vector<std::uint64_t>>(r);
      hot_.clear();
      hot_.insert(list.begin(), list.end());
      return;
    }
    if (hot_.count(Get<Tweet>(r).topic) != 0) out.Emit(r, 0);
  }

 private:
  std::unordered_set<std::uint64_t> hot_;
};

// Trivially copyable and ≤ 24 bytes: stored INLINE in the Record itself
// (runtime/record.h SBO) — the sentiment stage emits without allocating.
struct ScoredTweet {
  std::uint64_t topic;
  Sentiment sentiment;
};

class SentimentUdf final : public Udf {
 public:
  void OnRecord(const Record& r, Collector& out) override {
    const Tweet& tweet = Get<Tweet>(r);
    Record scored =
        MakeRecord<ScoredTweet>({tweet.topic, lexicon_.Classify(tweet.text)}, tweet.topic);
    scored.source_emit_ns = r.source_emit_ns;  // keep the lineage: latency is source-to-sink
    out.Emit(std::move(scored));
  }

 private:
  SentimentLexicon lexicon_;
};

// Rescale-safe aggregate: UDF instances are recreated on every rescale, so
// the durable per-topic tallies live outside the UDF behind a mutex.
struct SentimentBoard {
  Mutex mutex;
  std::map<std::uint64_t, std::pair<long, long>> per_topic
      ESP_GUARDED_BY(mutex);  // +pos / -neg
  long long total ESP_GUARDED_BY(mutex) = 0;

  void Print() {
    MutexLock lock(mutex);
    std::printf("scored %lld hot-topic tweets; top topics by volume:\n", total);
    std::vector<std::pair<std::uint64_t, std::pair<long, long>>> rows(per_topic.begin(),
                                                                      per_topic.end());
    std::sort(rows.begin(), rows.end(), [](auto& a, auto& b) {
      return a.second.first + a.second.second > b.second.first + b.second.second;
    });
    for (std::size_t i = 0; i < std::min<std::size_t>(5, rows.size()); ++i) {
      std::printf("  #topic%-6llu  +%ld / -%ld\n",
                  static_cast<unsigned long long>(rows[i].first), rows[i].second.first,
                  rows[i].second.second);
    }
  }
};

class SentimentSink final : public Udf {
 public:
  explicit SentimentSink(SentimentBoard* board) : board_(board) {}
  void OnRecord(const Record& r, Collector&) override {
    const ScoredTweet& s = Get<ScoredTweet>(r);
    MutexLock lock(board_->mutex);
    auto& counts = board_->per_topic[s.topic];
    if (s.sentiment == Sentiment::kPositive) ++counts.first;
    if (s.sentiment == Sentiment::kNegative) ++counts.second;
    ++board_->total;
  }

 private:
  SentimentBoard* board_;
};

}  // namespace

static int Run() {
  JobGraph graph;
  const auto ts = graph.AddVertex({.name = "TweetSource", .parallelism = 1,
                                   .max_parallelism = 1});
  const auto ht = graph.AddVertex({.name = "HotTopics", .parallelism = 1,
                                   .min_parallelism = 1, .max_parallelism = 4,
                                   .latency_mode = LatencyMode::kReadWrite,
                                   .elastic = true});
  const auto htm = graph.AddVertex({.name = "Merger", .parallelism = 1,
                                    .max_parallelism = 1});
  const auto filter = graph.AddVertex({.name = "Filter", .parallelism = 2,
                                       .min_parallelism = 1, .max_parallelism = 4,
                                       .elastic = true});
  const auto sentiment = graph.AddVertex({.name = "Sentiment", .parallelism = 2,
                                          .min_parallelism = 1, .max_parallelism = 4,
                                          .elastic = true});
  const auto sink = graph.AddVertex({.name = "Sink", .parallelism = 1,
                                     .max_parallelism = 1});
  const auto e1 = graph.Connect(ts, filter, WiringPattern::kRoundRobin);
  const auto e2 = graph.Connect(filter, sentiment, WiringPattern::kRoundRobin);
  const auto e3 = graph.Connect(sentiment, sink, WiringPattern::kRoundRobin);
  const auto e4 = graph.Connect(ts, ht, WiringPattern::kRoundRobin);
  const auto e5 = graph.Connect(ht, htm, WiringPattern::kRoundRobin);
  graph.Connect(htm, filter, WiringPattern::kBroadcast);

  const LatencyConstraint hot_constraint{
      JobSequence::FromEdgeChain(graph, {e4, e5}), FromMillis(400), FromSeconds(10),
      "hot-topics"};
  const LatencyConstraint sentiment_constraint{
      JobSequence::FromEdgeChain(graph, {e1, e2, e3}), FromMillis(40), FromSeconds(10),
      "tweet-sentiment"};

  TopicModel::Params topic_params;
  topic_params.topics = 200;
  topic_params.hot_topics = 8;
  const TopicModel topics(topic_params);

  LocalEngineOptions options;
  options.shipping = ShippingStrategy::kAdaptive;
  options.measurement_interval = FromMillis(500);
  options.adjustment_interval = FromMillis(2000);

  LocalEngine engine(std::move(graph), options);
  engine.SetSource("TweetSource", [&topics](std::uint32_t) {
    return std::make_unique<TweetSource>(&topics, 8000);
  });
  engine.SetUdf("HotTopics", [](std::uint32_t) { return std::make_unique<HotTopicsUdf>(); });
  engine.SetUdf("Merger", [](std::uint32_t) { return std::make_unique<MergerUdf>(); });
  engine.SetUdf("Filter", [](std::uint32_t) { return std::make_unique<FilterUdf>(); });
  engine.SetUdf("Sentiment",
                [](std::uint32_t) { return std::make_unique<SentimentUdf>(); });
  SentimentBoard board;
  engine.SetUdf("Sink",
                [&board](std::uint32_t) { return std::make_unique<SentimentSink>(&board); });
  engine.AddConstraint(hot_constraint);
  engine.AddConstraint(sentiment_constraint);

  std::printf("replaying 8000 synthetic tweets...\n");
  const EngineResult result = engine.Run(FromSeconds(60));
  board.Print();
  std::printf("rescales=%u\n", result.rescales);
  std::printf("emitted=%llu records, delivered-to-sink=%llu\n",
              static_cast<unsigned long long>(result.records_emitted),
              static_cast<unsigned long long>(result.records_delivered));
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
