// The traced run: per-layer metrics as a ladder of rungs, each timed from
// the benchmark's own calls into one module's public functions, all in the
// same run (GF kernel -> codec -> Server automaton -> ThreadedCluster ->
// daemons over sockets -> persistence -> router and edge cache).
#pragma once

#include <cstdint>
#include <vector>

#include "probes.h"
#include "workloads.h"

namespace perfbench {

/// Appends every per-layer metric for `spec` to `out`; false when a rung
/// failed or a correctness check did not hold.
bool run_ladder(const WorkloadSpec& spec, std::uint64_t seed, double seconds,
                std::vector<Metric>& out, std::uint64_t& attempted,
                std::uint64_t& failed);

}  // namespace perfbench
