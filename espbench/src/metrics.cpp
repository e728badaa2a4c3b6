// Clock, order statistics, process counters and the report printer.
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "bench.h"

namespace espbench {

namespace {

const std::chrono::steady_clock::time_point kOrigin = std::chrono::steady_clock::now();

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

}  // namespace

std::int64_t NowNs() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - kOrigin)
      .count();
}

void SleepUntilNs(std::int64_t deadline_ns) {
  // Sleep to ~100 us short of the deadline, then spin: plain sleeps
  // overshoot by the timer slack, which would show up as generator lateness.
  for (;;) {
    const std::int64_t left = deadline_ns - NowNs();
    if (left <= 0) return;
    if (left > 150'000) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(left - 100'000));
    } else {
      std::this_thread::yield();
    }
  }
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double PeakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

HostCpuTimes ReadHostCpuTimes() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  HostCpuTimes times;
  // user nice system idle iowait irq softirq steal (guest time is already
  // counted in user and nice).
  for (int field = 0; field < 8; ++field) {
    std::uint64_t ticks = 0;
    if (!(stat >> ticks)) break;
    times.total += ticks;
    if (field == 7) times.steal = ticks;
  }
  return times;
}

double StealShare(const HostCpuTimes& from, const HostCpuTimes& to) {
  const std::uint64_t total = to.total - from.total;
  return total == 0 ? 0.0 : static_cast<double>(to.steal - from.steal) / static_cast<double>(total);
}

esp::runtime::Record Derived(const esp::runtime::Record& in, const Stamped& payload) {
  esp::runtime::Record out = esp::runtime::MakeRecord<Stamped>(payload, in.key);
  out.source_emit_ns = in.source_emit_ns;
  return out;
}

bool SeqBitmap::Mark(std::uint64_t seq) {
  if (seq < low_) return false;
  while (seq - low_ >= kWindowBits) {  // low_ is unmarked: give up on it
    ++low_;
    ++given_up_;
    Slide();
  }
  std::uint64_t& word = words_[(seq / 64) % kWords];
  const std::uint64_t bit = 1ULL << (seq % 64);
  if (word & bit) return false;
  word |= bit;
  Slide();
  return true;
}

void SeqBitmap::Slide() {
  for (;;) {
    std::uint64_t& w = words_[(low_ / 64) % kWords];
    const int shift = static_cast<int>(low_ % 64);
    const int run = std::countr_one(w >> shift);
    if (run == 0) return;
    const std::uint64_t mask = run == 64 ? ~0ULL : ((1ULL << run) - 1) << shift;
    w &= ~mask;
    low_ += static_cast<std::uint64_t>(run);
  }
}

std::uint64_t SeqBitmap::CountBelow(std::uint64_t n) const {
  const std::uint64_t below_low = std::min(low_, n);
  std::uint64_t count = below_low - std::min(given_up_, below_low);
  for (std::uint64_t seq = low_; seq < n && seq - low_ < kWindowBits; ++seq) {
    if (words_[(seq / 64) % kWords] & (1ULL << (seq % 64))) ++count;
  }
  return count;
}

void Report::Set(const std::string& name, double value, const std::string& unit) {
  metrics_[name] = Metric{value, unit};
}

void Report::Check(bool ok, const std::string& what) {
  checks_.push_back(std::string(ok ? "ok    " : "FAILED") + "  " + what);
  if (!ok) violations_.push_back(what);
}

void Report::Meta(const std::string& key, const std::string& value) {
  meta_[key] = JsonString(value);
}

void Report::Meta(const std::string& key, double value) { meta_[key] = JsonNumber(value); }

void Report::Meta(const std::string& key, const std::vector<double>& values) {
  std::string list = "[";
  for (const double v : values) {
    if (list.size() > 1) list += ", ";
    list += JsonNumber(v);
  }
  meta_[key] = list + "]";
}

void Report::Print(const Options& options) const {
  std::printf("espbench workload=%s seed=%llu seconds=%g trace=%d\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  for (const auto& line : checks_) std::printf("check  %s\n", line.c_str());
  for (const auto& [name, m] : metrics_) {
    std::printf("metric %-36s %16.6g %s\n", name.c_str(), m.value, m.unit.c_str());
  }
  std::string meta = "{";
  for (const auto& [key, value] : meta_) {
    if (meta.size() > 1) meta += ", ";
    meta += JsonString(key) + ": " + value;
  }
  meta += "}";
  std::printf("meta %s\n", meta.c_str());

  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics_) {
    if (!first) out += ", ";
    first = false;
    out += JsonString(name) + ": {\"value\": " + JsonNumber(m.value) +
           ", \"unit\": " + JsonString(m.unit) + "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

}  // namespace espbench
