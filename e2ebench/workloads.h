// The benchmark workloads. Each fills `result` with its end-to-end
// metrics (untraced pass) and, when options.trace is set, the per-layer
// metrics of a traced pass. Returns a process exit code; output checks
// that fail are recorded in `result`, not returned.

#ifndef EALGAP_E2EBENCH_WORKLOADS_H_
#define EALGAP_E2EBENCH_WORKLOADS_H_

#include "bench.h"

namespace e2e {

int RunMetroStream(const Options& options, RunResult* result);
int RunFleetDaemon(const Options& options, RunResult* result);

/// The paper cell's pipeline, training and adaptation layers, which no
/// serving workload reaches; every traced run measures them (paper_cell.cc).
void RunPaperCellLayers(const Options& options, Tracer* tracer,
                        RunResult* result);

}  // namespace e2e

#endif  // EALGAP_E2EBENCH_WORKLOADS_H_
