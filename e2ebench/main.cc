// End-to-end benchmark driver binary. One process runs one workload:
//
//   e2ebench --workload metro_stream|fleet_daemon --seed N
//            --seconds S --trace 0|1 --state-dir DIR [--trace-out FILE]
//
// and prints one JSON object (metrics, stamps, checks) as its last line.
// e2ebench/run.py builds this binary, runs it and reports the metrics
// declared in BENCHMARK.json. See e2ebench/README.md for the workloads.

#include <malloc.h>
#include <unistd.h>

#include <cstdlib>
#include <iostream>
#include <string>

#include "bench.h"
#include "common/thread_pool.h"
#include "tensor/kernels.h"
#include "workloads.h"

namespace {

int Usage() {
  std::cerr << "usage: e2ebench --workload metro_stream|fleet_daemon "
               "--seed N --seconds S --trace 0|1 "
               "--state-dir DIR [--trace-out FILE]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  e2e::Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      options.workload = value;
    } else if (key == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      options.trace = value == "1";
    } else if (key == "--trace-out") {
      options.trace_out = value;
    } else if (key == "--state-dir") {
      options.state_dir = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || options.workload.empty() || options.seconds <= 0 ||
      options.state_dir.empty()) {
    return Usage();
  }

  // A fixed mmap threshold turns off glibc's dynamic one, which keeps
  // freed large blocks (checkpoint text, growing vectors) in the heap or
  // not depending on the order of frees. With it on, fleet_daemon's
  // peak_rss_mb took one of two values 3 MB apart from run to run.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  ealgap::SetNumThreads(e2e::kPoolThreads);
  e2e::RunResult result;
#ifdef NDEBUG
  result.Info("build_type", "release");
#else
  result.Info("build_type", "debug");
#endif
  result.Info("simd", ealgap::kernels::BackendName(
                          ealgap::kernels::ActiveBackend()));
  result.Info("pool_threads", static_cast<double>(ealgap::GetNumThreads()));
  result.Info("nproc", static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)));
  result.Info("seed", std::to_string(options.seed));
  result.Info("workload", options.workload);
  result.Info("trace", options.trace ? "1" : "0");

  int rc = 0;
  if (options.workload == "metro_stream") {
    rc = e2e::RunMetroStream(options, &result);
  } else if (options.workload == "fleet_daemon") {
    rc = e2e::RunFleetDaemon(options, &result);
  } else {
    std::cerr << "unknown workload: " << options.workload << "\n";
    return Usage();
  }
  std::cout << result.ToJson() << std::endl;
  return rc;
}
