/// \file
/// The traced run's layer pass: each layer's public functions called and
/// timed from outside, on the workload's own design.

#ifndef PERFBENCH_LAYERS_H
#define PERFBENCH_LAYERS_H

#include <cstdint>
#include <string>

namespace perfbench {

/// Prints one JSON object of per-layer metrics as the last line of
/// standard output. \p phase "cold" runs every layer; "warm" times only
/// jit::build_module against the on-disk cache a cold pass left in
/// $CASCADE_JIT_CACHE_DIR. Returns the process exit code.
int run_layers(const std::string& workload, uint64_t seed,
               const std::string& phase, const std::string& spans_path);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_H
