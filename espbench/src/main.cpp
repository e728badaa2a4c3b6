// espbench: runs one benchmark workload with one seed and prints every
// metric it measured plus the correctness checks it made.
//
//   espbench --workload saturate_dag|elastic_primetester|sim_elastic
//            --seed N --seconds S --trace 0|1 [--out-dir DIR]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.  Exit code 0 when every check
// passed, 1 on a failed check, 2 on a usage error.  espbench/run.py builds
// this program and narrows the metrics to the set BENCHMARK.json names.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <thread>

#include "bench.h"
#include "common/logging.h"

namespace {

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

int Usage(const char* what) {
  std::fprintf(stderr,
               "espbench: %s\nusage: espbench --workload saturate_dag|elastic_primetester|"
               "sim_elastic --seed N --seconds S --trace 0|1 [--out-dir DIR]\n",
               what);
  return 2;
}

int Main(int argc, char** argv) {
  espbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      options.seconds = std::stod(value);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (options.seconds <= 0) return Usage("--seconds must be positive");

  esp::SetLogLevel(esp::LogLevel::kError);
  espbench::Report report;
  const espbench::HostCpuTimes host_start = espbench::ReadHostCpuTimes();
  int rc = 0;
  if (options.workload == "saturate_dag") {
    rc = espbench::RunSaturateDag(options, report);
  } else if (options.workload == "elastic_primetester") {
    rc = espbench::RunElasticPrimeTester(options, report);
  } else if (options.workload == "sim_elastic") {
    rc = espbench::RunSimElastic(options, report);
  } else {
    return Usage(("unknown workload '" + options.workload + "'").c_str());
  }

  // Hypervisor steal over the run: the part of host noise visible from
  // inside the machine (a noisy run shows it here).
  report.Meta("host_steal_share",
              espbench::StealShare(host_start, espbench::ReadHostCpuTimes()));
  report.Meta("nproc", static_cast<double>(std::thread::hardware_concurrency()));
  report.Meta("cpu_model", CpuModel());
  report.Meta("compiler", ESPBENCH_COMPILER);
  report.Meta("build_type", ESPBENCH_BUILD_TYPE);
  report.Meta("cxx_flags", ESPBENCH_CXX_FLAGS);
  report.Meta("seed", static_cast<double>(options.seed));
  report.Meta("seconds", options.seconds);
  report.Print(options);
  if (rc != 0) return rc;
  return report.correct() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "espbench: fatal: %s\n", e.what());
    return 1;
  }
}
