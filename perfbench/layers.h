// Per-layer metrics of the traced run: service counters over the traced
// window, aggregates of the service's per-ticket span trees and of the
// benchmark's own client spans, and a layer replay that re-runs the
// workload's queries through each module's public stage calls on the
// benchmark's own devices.

#ifndef GSI_PERFBENCH_LAYERS_H_
#define GSI_PERFBENCH_LAYERS_H_

#include <vector>

#include "bench.h"
#include "obs/trace.h"
#include "service/query_service.h"

namespace gsi::perfbench {

/// Everything the traced run measured, handed to PerLayerMetrics.
struct TracedRun {
  const Workload* workload = nullptr;
  const Graph* data = nullptr;
  const std::vector<Graph>* stream = nullptr;
  /// The output check's reference of each stream shape.
  const std::vector<ResultSummary>* reference = nullptr;
  /// Shapes the population screen rejected (their joins overflow the
  /// serving row cap).
  const std::vector<Graph>* rejected = nullptr;
  /// Outcomes of the traced window (each carries its service trace).
  const std::vector<Outcome>* outcomes = nullptr;
  double untraced_qps = 0;
  double traced_qps = 0;
  /// Service counters around the traced window.
  ServiceStats before;
  ServiceStats after;
  /// Changes over the traced window, summed over pool devices.
  double halo_hits = 0;
  double halo_misses = 0;
  double halo_evictions = 0;
  double halo_resident_bytes = 0;  ///< at the end of the window
  double gld = 0;
  double gst = 0;
  double remote = 0;
  double kernels = 0;
  size_t peak_cursor_bytes = 0;
  const obs::Tracer* bench_tracer = nullptr;
};

/// Computes every per-layer metric (README.md lists them with the layer,
/// the end-to-end metric each should move and the workload it is stressed
/// on). Runs the layer replay, so it takes a few seconds.
std::vector<Metric> PerLayerMetrics(const TracedRun& run);

}  // namespace gsi::perfbench

#endif  // GSI_PERFBENCH_LAYERS_H_
