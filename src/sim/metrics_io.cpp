#include "sim/metrics_io.h"

namespace esp::sim {
namespace {

std::string ConstraintLabel(const std::vector<std::string>& names, std::size_t k) {
  if (k < names.size()) return names[k];
  // Appending to a named string, not `"c" + std::to_string(k)`: g++ 12 at
  // -O3 warns -Wrestrict (a false positive) inside that operator+.
  std::string label = "c";
  label += std::to_string(k);
  return label;
}

}  // namespace

void WriteWindowsTsv(std::ostream& os, const RunResult& result,
                     const std::vector<std::string>& constraint_names) {
  if (result.windows.empty()) return;
  const WindowMetrics& first = result.windows.front();

  os << "t_s\tattempted_per_s\temitted_per_s\tdelivered_per_s";
  for (std::size_t k = 0; k < first.constraints.size(); ++k) {
    const std::string label = ConstraintLabel(constraint_names, k);
    os << '\t' << label << "_mean_ms" << '\t' << label << "_p95_ms" << '\t' << label
       << "_samples";
  }
  for (const ParallelismSnapshot& p : first.parallelism) os << "\tp_" << p.vertex;
  os << "\tcpu_util\trunning_tasks\n";

  for (const WindowMetrics& w : result.windows) {
    os << ToSeconds(w.end) << '\t' << w.attempted_rate << '\t' << w.effective_rate << '\t'
       << w.delivered_rate;
    for (const ConstraintWindowStats& c : w.constraints) {
      os << '\t' << c.mean_latency * 1e3 << '\t' << c.p95_latency * 1e3 << '\t'
         << c.samples;
    }
    for (const ParallelismSnapshot& p : w.parallelism) os << '\t' << p.parallelism;
    os << '\t' << w.cpu_utilization << '\t' << w.running_tasks << '\n';
  }
}

void WriteAdjustmentsTsv(std::ostream& os, const RunResult& result,
                         const std::vector<std::string>& constraint_names) {
  if (result.adjustments.empty()) return;
  const AdjustmentRecord& first = result.adjustments.front();

  os << "t_s";
  for (std::size_t k = 0; k < first.measured_latency.size(); ++k) {
    const std::string label = ConstraintLabel(constraint_names, k);
    os << '\t' << label << "_measured_ms" << '\t' << label << "_estimated_ms";
  }
  for (const ParallelismSnapshot& p : first.parallelism) os << "\tp_" << p.vertex;
  os << '\n';

  for (const AdjustmentRecord& rec : result.adjustments) {
    os << ToSeconds(rec.time);
    for (std::size_t k = 0; k < rec.measured_latency.size(); ++k) {
      const double measured = rec.measured_latency[k];
      const double estimated = rec.estimated_latency[k];
      os << '\t' << (measured < 0 ? -1.0 : measured * 1e3) << '\t'
         << (estimated < 0 ? -1.0 : estimated * 1e3);
    }
    for (const ParallelismSnapshot& p : rec.parallelism) os << '\t' << p.parallelism;
    os << '\n';
  }
}

}  // namespace esp::sim
