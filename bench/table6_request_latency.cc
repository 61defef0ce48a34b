/// \file
/// Table 6 (request tracing, beyond the paper): end-to-end edit ->
/// hardware latency measured by the causal request tracker, for three
/// request classes:
///
///   - cold: a fresh runtime per iteration, each compile a distinct
///     placement seed, so every request takes the full synthesize /
///     techmap / place / adopt path;
///   - warm: fresh runtimes sharing ONE pooled CompileService with a
///     pinned seed, so every compile after the first is a
///     content-addressed bitstream cache hit;
///   - shared: a 4-tenant fleet on one fabric through the hypervisor,
///     each tenant's first compile admitted onto a device slice.
///
/// Each sample is a finished "compile" request from the runtime's own
/// tracker -- the submit-to-first-hardware-tick wall time the REPL's
/// `:why` decomposes -- so the bench measures exactly what the
/// observability surface reports, and asserts the tracker's invariant
/// (segments sum to end-to-end latency within 1%) on every sample.
///
/// Output: BENCH_table6_request_latency.json with p50/p99 per class and
/// the mean cold-path segment breakdown (queue, cache, synth, techmap,
/// place, timing, admission, adoption).

#include <algorithm>
#include <barrier>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench_result.h"
#include "hypervisor/fabric_manager.h"
#include "runtime/runtime.h"
#include "service/compile_service.h"
#include "telemetry/request_trace.h"

using cascade::hypervisor::FabricManager;
using cascade::runtime::Runtime;
using cascade::service::CompileService;
using cascade::telemetry::RequestRecord;

namespace {

constexpr int kColdRuns = 8;
constexpr int kWarmRuns = 16;
constexpr int kSharedTenants = 4;

Runtime::Options
bench_options(uint64_t seed)
{
    Runtime::Options opts;
    opts.enable_hardware = true;
    opts.compile_effort = 0.05;
    opts.open_loop_target_wall_s = 0.02;
    opts.compile_seed = seed;
    return opts;
}

const char* const kProgram = "reg [15:0] n = 0;\n"
                             "wire [15:0] h;\n"
                             "assign h = (n * 16'h9E37) ^ (n >> 3);\n"
                             "always @(posedge clk.val) n <= n + 1;\n";

/// Runs \p rt until its adopted compile request retires (the request
/// closes at the first post-adoption hardware tick) and returns it.
/// Exits the process on timeout or a failed compile.
RequestRecord
measure_compile_request(Runtime& rt, const char* what)
{
    std::string errors;
    if (!rt.eval(kProgram, &errors)) {
        std::fprintf(stderr, "%s: eval failed: %s\n", what,
                     errors.c_str());
        std::exit(1);
    }
    if (!rt.wait_for_hardware(120)) {
        std::fprintf(stderr, "%s: never reached hardware\n", what);
        std::exit(1);
    }
    const auto t0 = std::chrono::steady_clock::now();
    while (true) {
        rt.step();
        for (const RequestRecord& r : rt.request_tracker().recent()) {
            if (std::string(r.kind) == "compile" && r.done && r.ok) {
                return r;
            }
        }
        if (std::chrono::duration<double>(
                std::chrono::steady_clock::now() - t0)
                .count() > 60) {
            std::fprintf(stderr, "%s: compile request never retired\n",
                         what);
            std::exit(1);
        }
    }
}

/// The tracker's contract, asserted on every sample the bench reports.
void
check_partition(const RequestRecord& r, const char* what)
{
    const double total = r.total_us();
    if (total <= 0 ||
        std::fabs(r.segment_sum_us() - total) > 0.01 * total) {
        std::fprintf(stderr,
                     "%s: request %llu segments sum %.3fus != "
                     "end-to-end %.3fus\n",
                     what, static_cast<unsigned long long>(r.id),
                     r.segment_sum_us(), total);
        std::exit(1);
    }
}

double
percentile(std::vector<double> v, double p)
{
    std::sort(v.begin(), v.end());
    const size_t at = static_cast<size_t>(p * (v.size() - 1) + 0.5);
    return v[std::min(at, v.size() - 1)];
}

void
add_class(cascade::JsonWriter& w, const char* name,
          const std::vector<double>& seconds)
{
    w.begin_object(name)
        .num("samples", seconds.size())
        .dbl("p50_s", percentile(seconds, 0.5), "%.6f")
        .dbl("p99_s", percentile(seconds, 0.99), "%.6f")
        .end_object();
}

} // namespace

int
main()
{
    std::printf("Table 6: edit->hardware request latency "
                "(cold / warm / shared)\n");

    // -- Cold: fresh runtime, fresh seed, full compile path. ------------
    std::vector<double> cold_s;
    std::map<std::string, double> cold_segment_us;
    for (int i = 0; i < kColdRuns; ++i) {
        Runtime rt(bench_options(100 + i));
        rt.on_output = [](const std::string&) {};
        const RequestRecord r = measure_compile_request(rt, "cold");
        check_partition(r, "cold");
        if (r.cache_hit) {
            std::fprintf(stderr, "cold run %d unexpectedly hit cache\n",
                         i);
            return 1;
        }
        cold_s.push_back(r.total_us() * 1e-6);
        for (const auto& s : r.segments) {
            cold_segment_us[s.name] += s.dur_us;
        }
    }

    // -- Warm: one pooled service, pinned seed -> cache hits. -----------
    std::vector<double> warm_s;
    {
        CompileService::Config cfg;
        cfg.workers = 1;
        CompileService service(cfg);
        for (int i = 0; i < kWarmRuns + 1; ++i) {
            FabricManager fabric;
            Runtime rt(bench_options(7), service, fabric);
            rt.on_output = [](const std::string&) {};
            const RequestRecord r = measure_compile_request(rt, "warm");
            check_partition(r, "warm");
            if (i == 0) {
                continue; // the priming miss populates the cache
            }
            if (!r.cache_hit) {
                std::fprintf(stderr, "warm run %d missed the cache\n",
                             i);
                return 1;
            }
            warm_s.push_back(r.total_us() * 1e-6);
        }
    }

    // -- Shared: a tenant fleet through the hypervisor. -----------------
    std::vector<double> shared_s(kSharedTenants, 0);
    {
        CompileService::Config cfg;
        CompileService service(cfg);
        FabricManager fabric;
        std::barrier start(kSharedTenants);
        std::vector<std::thread> threads;
        threads.reserve(kSharedTenants);
        for (int i = 0; i < kSharedTenants; ++i) {
            threads.emplace_back([&, i] {
                Runtime::Options opts = bench_options(200 + i);
                opts.tenant_name = "bench-t" + std::to_string(i);
                Runtime rt(opts, service, fabric);
                rt.on_output = [](const std::string&) {};
                start.arrive_and_wait();
                const RequestRecord r =
                    measure_compile_request(rt, "shared");
                check_partition(r, "shared");
                shared_s[i] = r.total_us() * 1e-6;
            });
        }
        for (std::thread& t : threads) {
            t.join();
        }
    }

    std::printf("cold   p50 %.4fs  p99 %.4fs  (%d runs)\n",
                percentile(cold_s, 0.5), percentile(cold_s, 0.99),
                kColdRuns);
    std::printf("warm   p50 %.4fs  p99 %.4fs  (%d runs, cache hits)\n",
                percentile(warm_s, 0.5), percentile(warm_s, 0.99),
                kWarmRuns);
    std::printf("shared p50 %.4fs  p99 %.4fs  (%d tenants)\n",
                percentile(shared_s, 0.5), percentile(shared_s, 0.99),
                kSharedTenants);

    cascade::bench::BenchResult result("table6_request_latency");
    add_class(result, "cold", cold_s);
    add_class(result, "warm", warm_s);
    add_class(result, "shared", shared_s);
    result.begin_object("cold_segments_mean");
    for (const auto& [name, us] : cold_segment_us) {
        result.dbl(name + "_seconds", us * 1e-6 / kColdRuns, "%.6f");
        std::printf("  cold mean %-10s %.4fs\n", name.c_str(),
                    us * 1e-6 / kColdRuns);
    }
    result.write();
    return 0;
}
