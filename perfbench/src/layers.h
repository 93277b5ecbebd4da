// Layer probes of the traced run: fixed-size, seeded calls into single layers
// (cache model, kernel syscall paths and invariant audit, checkpoint forks,
// plan-driven fault runs, each WCET stage), each wrapped in a span. Their
// counts are the same on every run of a seed. The runner and charge path are
// measured on the traffic phase's own calls instead.

#ifndef PERFBENCH_SRC_LAYERS_H_
#define PERFBENCH_SRC_LAYERS_H_

#include <cstdint>

#include "perfbench/src/bench.h"
#include "perfbench/src/phases.h"
#include "perfbench/src/span.h"

namespace perfbench {

struct LayerCounts {
  double l1_probe_ns = 0;  // ns per Cache::Access on the L1 geometry
  double l2_probe_ns = 0;  // ... on the L2 geometry
  // Machine::counters() deltas over the probe systems.
  std::uint64_t l1i_accesses = 0, l1i_misses = 0;
  std::uint64_t l1d_accesses = 0, l1d_misses = 0;
  std::uint64_t l2_accesses = 0, l2_misses = 0;
  std::uint64_t mem_stall_cycles = 0, cycles = 0;
  std::uint64_t kernel_entries = 0;
};

// Runs every probe, recording spans into |spans| and checking outputs into
// |tally|. |wcet| supplies the analysis configs (their images are unedited
// between edit sessions).
LayerCounts RunLayerProbes(const Options& opts, Tally& tally, SpanRecorder& spans,
                           WcetPhase& wcet);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_LAYERS_H_
