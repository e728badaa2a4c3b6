// The engine's one timing cadence (DESIGN.md §10): which UDF invocations
// pay for clock reads.
//
// The paper's Table-I metrics are "measured by random sampling"; a clock
// read (~40 ns) per record costs more than a trivial UDF.  So the record
// path times a record only when the measurement is worth its price:
//
//   * the first record of every batch is timed;
//   * while the last timed record took >= kExactNs, the next one is timed
//     too, so a UDF whose cost dwarfs a clock read (the ms-scale
//     PrimeTester) is timed on every record;
//   * otherwise one record in kSampleEvery is timed, counting from the
//     last timed one.
//
// An untimed record reads no clock: its start (the Emit hint) is the last
// read taken, and its end is the batch's closing read.  Both are never later
// than the truth, so a record stamped from the hint looks older than it is
// and a deadline flush can only come early.  The hint lags the true time by
// the run time of the untimed records since the last read: fewer than
// kSampleEvery records, all after a timed record shorter than kExactNs, so
// about kSampleEvery * kExactNs ~ 130 us for a steady UDF, and never across
// a park (every batch opens with a fresh read).
//
// LocalEngine::RunUdfBatch drives one cadence per popped batch and every
// fused chain member drives its own across the head's batch
// (ChainMetricStaging); both go through Start/Finish below.  The clock is a
// parameter, so the cadence is unit-tested with a fake one.
#pragma once

#include <cstdint>

#include "common/function_effects.h"

namespace esp::runtime {

class TimingCadence {
 public:
  /// A timed record at least this long keeps the next record timed.
  static constexpr std::int64_t kExactNs = 2'000;
  /// Below kExactNs, one record in kSampleEvery is timed.  Equal to the
  /// task loop's pop batch, so a saturated batch of a cheap UDF times its
  /// first record only: three clock reads per batch with the opening and
  /// closing reads.
  static constexpr std::uint32_t kSampleEvery = 64;

  /// Opens a batch; its first record is timed.  `now` is a clock read just
  /// taken (it times the first record without a read of its own), or 0 when
  /// the caller has none -- a fused member, which Lends the head's reads.
  void BeginBatch(std::int64_t now) noexcept ESP_NONBLOCKING {
    untimed_left_ = 0;
    last_read_ = now;
    fresh_ = now != 0;
  }

  /// Lends a clock read taken elsewhere on this thread (the chain head's
  /// Emit hint).  Only ever moves the hint forward, and marks it stale: other
  /// work ran since, so a timed record still reads its own start.
  void Lend(std::int64_t now) noexcept ESP_NONBLOCKING {
    if (now > last_read_) last_read_ = now;
    fresh_ = false;
  }

  /// Opens one record and returns its start: a fresh read when the cadence
  /// times it (unless the read in hand was taken right before), else the
  /// last read.  The engine lends the result to Emit as its now-hint.
  template <typename Clock>
  std::int64_t Start(Clock&& clock) {
    timing_ = untimed_left_ == 0;
    if (!timing_) {
      --untimed_left_;
    } else if (!fresh_) {
      last_read_ = clock();
    }
    fresh_ = false;
    return last_read_;
  }

  /// Closes the record Start opened: its service time in ns when it is
  /// timed (one clock read, which also becomes the next start), else -1.
  template <typename Clock>
  std::int64_t Finish(Clock&& clock) {
    if (!timing_) return -1;
    const std::int64_t start = last_read_;
    last_read_ = clock();
    fresh_ = true;
    const std::int64_t service = last_read_ - start;
    untimed_left_ = service >= kExactNs ? 0 : kSampleEvery - 1;
    return service;
  }

  /// The batch's closing read: the read in hand when the last record was
  /// timed, else a fresh one.  Untimed records end here.
  template <typename Clock>
  std::int64_t Close(Clock&& clock) {
    if (!fresh_) {
      last_read_ = clock();
      fresh_ = true;
    }
    return last_read_;
  }

  /// The latest clock read (a timed record's end right after Finish).
  std::int64_t last_read() const noexcept ESP_NONBLOCKING { return last_read_; }

 private:
  std::int64_t last_read_ = 0;
  std::uint32_t untimed_left_ = 0;  // untimed records before the next timed one
  bool timing_ = false;             // the record Start opened is timed
  bool fresh_ = false;              // last_read_ was taken after the last record ran
};

/// One record of a popped batch, as RunUdfBatch metered it for the
/// post-batch metric pass.
struct RecordMeter {
  std::int64_t start_ns = 0;    ///< TimingCadence::Start's read (the Emit hint)
  std::int64_t service_ns = 0;  ///< measured service time; -1 when untimed
  bool emitted = false;         ///< the UDF emitted while handling the record
};

}  // namespace esp::runtime
