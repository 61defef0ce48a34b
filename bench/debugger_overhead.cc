/// \file
/// Disarmed-debugger overhead headline: the acceptance criterion for the
/// interactive debugger is that a runtime with no points armed steps at
/// the same rate as one that has never heard of the debugger. Three
/// configurations over the same software-resident counter:
///
///   disarmed  -- no debug points (the guarded fast path: one relaxed
///                atomic load per inter-timestep window);
///   armed     -- one breakpoint whose condition never fires (prices the
///                per-window condition sweep + mirror-ring sampling);
///   watch     -- one value-change watchpoint on a quiet signal.
///
/// Writes BENCH_debugger_overhead.json (schema cascade.bench.v1) with
/// ticks/s per configuration; check_bench_regression.py compares the
/// *_ticks_per_s leaves against the committed baseline.

#include <chrono>
#include <cstdio>
#include <string>

#include "bench_result.h"
#include "runtime/runtime.h"

using cascade::runtime::Runtime;

namespace {

constexpr uint64_t kWarmupTicks = 2000;
constexpr uint64_t kTimedTicks = 100000;

enum class Config { Disarmed, ArmedBreak, ArmedWatch };

double
ticks_per_second(Config config)
{
    Runtime::Options opts;
    opts.enable_hardware = false;
    Runtime rt(opts);
    rt.on_output = [](const std::string&) {};
    std::string errors;
    // `quiet` never changes, so the watchpoint never fires; the break
    // condition is unreachable within the timed window.
    if (!rt.eval("reg [31:0] cnt = 0; reg quiet = 0; "
                 "always @(posedge clk.val) cnt <= cnt + 1;",
                 &errors)) {
        std::fprintf(stderr, "eval failed: %s\n", errors.c_str());
        return -1;
    }
    if (config == Config::ArmedBreak) {
        rt.debug_break("cnt", "==", "4000000000", &errors);
    } else if (config == Config::ArmedWatch) {
        rt.debug_watch("quiet", &errors);
    }
    rt.run_for_ticks(kWarmupTicks);
    const auto t0 = std::chrono::steady_clock::now();
    rt.run_for_ticks(kTimedTicks);
    const double elapsed = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
    return elapsed > 0 ? static_cast<double>(kTimedTicks) / elapsed : 0;
}

} // namespace

int
main()
{
    std::printf("%-10s %16s\n", "config", "ticks/s");
    const double disarmed = ticks_per_second(Config::Disarmed);
    std::printf("%-10s %16.0f\n", "disarmed", disarmed);
    const double armed = ticks_per_second(Config::ArmedBreak);
    std::printf("%-10s %16.0f\n", "break", armed);
    const double watch = ticks_per_second(Config::ArmedWatch);
    std::printf("%-10s %16.0f\n", "watch", watch);
    if (disarmed <= 0 || armed <= 0 || watch <= 0) {
        return 1;
    }
    std::printf("\narmed/disarmed ratio: %.3f (break), %.3f (watch)\n",
                disarmed / armed, disarmed / watch);

    cascade::bench::BenchResult result("debugger_overhead");
    result.begin_object("configs")
        .dbl("disarmed_ticks_per_s", disarmed, "%.0f")
        .dbl("armed_break_ticks_per_s", armed, "%.0f")
        .dbl("armed_watch_ticks_per_s", watch, "%.0f");
    result.write();
    return 0;
}
