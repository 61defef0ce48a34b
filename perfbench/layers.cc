// The traced run's layer pass. Every metric is taken from outside a layer,
// around a call to its public functions, on the workload's own design:
// the standalone module form for the compiler layers and the engine
// cycles, and the workload's REPL items for the runtime sessions that
// measure what the workload's own job does not exercise.

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "fpga/bitstream.h"
#include "fpga/place.h"
#include "fpga/synth.h"
#include "fpga/techmap.h"
#include "ir/hw_wrapper.h"
#include "jit/codegen.h"
#include "jit/jit_cache.h"
#include "jit/jit_kernel.h"
#include "layers.h"
#include "runtime/runtime.h"
#include "service/compile_service.h"
#include "sim/interpreter.h"
#include "telemetry/sync.h"
#include "telemetry/telemetry.h"
#include "verilog/elaborate.h"
#include "verilog/parser.h"

namespace perfbench {

using cascade::BitVector;
using cascade::Diagnostics;
using cascade::runtime::Location;
using cascade::runtime::Runtime;
namespace fpga = cascade::fpga;
namespace verilog = cascade::verilog;

namespace {

/// Repeats of the millisecond-scale front-end calls.
constexpr int kRepeats = 5;
/// Wall time each engine-cycle loop runs for.
constexpr double kCycleLoop_s = 0.3;
constexpr double kTimeout_s = 120.0;

using Metrics = std::map<std::string, double>;

void
print(const Metrics& m)
{
    std::string out = "{";
    char buf[64];
    for (const auto& [name, value] : m) {
        std::snprintf(buf, sizeof buf, "%.9g", value);
        out += (out.size() > 1 ? ",\"" : "\"") + name + "\":" + buf;
    }
    std::printf("%s}\n", (out).c_str());
}

/// Drives one engine through full clock periods until kCycleLoop_s has
/// passed; returns ns per period. \p edge sets the clock level and
/// settles the engine.
template <typename Edge>
double
cycle_ns(Edge edge)
{
    uint64_t cycles = 0;
    const double t0 = now_s();
    double t = t0;
    while (t - t0 < kCycleLoop_s) {
        for (int i = 0; i < 256; ++i) {
            edge(true, cycles);
            edge(false, cycles);
            ++cycles;
        }
        t = now_s();
    }
    return (t - t0) / static_cast<double>(cycles) * 1e9;
}

/// Drives the design's inputs other than the clock for cycle \p n: the
/// matcher reads one stream byte per clock; the miner has none.
template <typename Engine>
void
drive_data(Engine& e, bool matcher, const std::string& stream, uint64_t n)
{
    if (matcher) {
        e.set_input("din_valid", BitVector(1, 1));
        e.set_input("din", BitVector(8, static_cast<uint8_t>(
                                            stream[n % stream.size()])));
    }
}

/// A runtime session on the workload's REPL items: eval, then wait
/// without ticks until \p reached holds. Returns seconds from the start
/// of the eval, or -1 when the tier was never reached.
double
session_to(const std::string& items, Runtime::Options o,
           const std::function<bool(Runtime&)>& reached, Metrics* m)
{
    Runtime rt(o);
    rt.on_output = [](const std::string&) {};
    std::string err;
    const double t0 = now_s();
    if (!rt.eval(items, &err)) {
        std::fprintf(stderr, "layer session eval failed: %s\n", err.c_str());
        return -1;
    }
    const bool ok =
        wait_without_ticks(rt, [&] { return reached(rt); }, kTimeout_s);
    const double took = now_s() - t0;
    if (m != nullptr) {
        const uint64_t launched = counter(rt, "compile.launched");
        const uint64_t jit_launched = counter(rt, "jit.launched");
        (*m)["runtime.compile_adopt_ratio"] =
            launched == 0 ? 0
                          : static_cast<double>(counter(rt, "compile.adopted")) /
                                static_cast<double>(launched);
        (*m)["jit.adopt_ratio"] =
            jit_launched == 0
                ? 0
                : static_cast<double>(counter(rt, "jit.adopted")) /
                      static_cast<double>(jit_launched);
    }
    return ok ? took : -1;
}

} // namespace

int
run_layers(const std::string& workload, uint64_t seed,
           const std::string& phase, const std::string& spans_path)
{
    const std::string module_src = design_module(workload, seed);
    const std::string items = design_items(workload, seed);
    if (module_src.empty()) {
        std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
        return 2;
    }
    const bool matcher = workload == "stream_sw";
    Spans spans(true);
    Metrics m;
    Diagnostics diags;

    // verilog: parse and elaborate the standalone module.
    std::vector<double> parse_s;
    std::vector<double> elab_s;
    std::vector<double> wrap_s;
    std::shared_ptr<const verilog::ElaboratedModule> em;
    std::shared_ptr<const verilog::ElaboratedModule> wem;
    for (int i = 0; i < kRepeats; ++i) {
        double t0 = now_s();
        verilog::SourceUnit unit;
        {
            Spans::Scope s(spans, "verilog.parse");
            unit = verilog::parse(module_src, &diags);
        }
        parse_s.push_back(now_s() - t0);
        if (diags.has_errors() || unit.modules.empty()) {
            std::fprintf(stderr, "parse failed: %s\n", diags.str().c_str());
            return 1;
        }
        t0 = now_s();
        {
            Spans::Scope s(spans, "verilog.elaborate");
            verilog::Elaborator elab(&diags);
            em = elab.elaborate(*unit.modules[0]);
        }
        elab_s.push_back(now_s() - t0);
        if (em == nullptr) {
            std::fprintf(stderr, "elaborate failed: %s\n",
                         diags.str().c_str());
            return 1;
        }
        // ir: the hardware wrapper plus its re-elaboration, as the
        // runtime does before every fabric compile.
        t0 = now_s();
        {
            Spans::Scope s(spans, "ir.wrapper");
            cascade::ir::WrapperMap map;
            auto wrapper = cascade::ir::generate_hw_wrapper(*em, "clk", &map,
                                                            &diags);
            if (wrapper == nullptr) {
                std::fprintf(stderr, "wrapper failed: %s\n",
                             diags.str().c_str());
                return 1;
            }
            verilog::Elaborator welab(&diags);
            wem = welab.elaborate(*wrapper);
        }
        wrap_s.push_back(now_s() - t0);
        if (wem == nullptr) {
            std::fprintf(stderr, "wrapper elaboration failed: %s\n",
                         diags.str().c_str());
            return 1;
        }
    }

    // fpga: synthesize the wrapped module once for the JIT builds.
    std::shared_ptr<const fpga::Netlist> wnl;
    {
        const double t0 = now_s();
        Spans::Scope s(spans, "fpga.synthesize");
        wnl = fpga::synthesize(*wem, &diags);
        m["fpga.synth_s"] = now_s() - t0;
    }
    if (wnl == nullptr) {
        std::fprintf(stderr, "synthesis failed: %s\n", diags.str().c_str());
        return 1;
    }
    std::string body;
    {
        const double t0 = now_s();
        Spans::Scope s(spans, "jit.generate_source");
        body = cascade::jit::generate_source(*wnl);
        m["jit.codegen_s"] = now_s() - t0;
    }

    if (phase == "warm") {
        // The cold pass left this kernel in the on-disk cache; this
        // process has never loaded it.
        std::string digest;
        std::string err;
        bool hit = false;
        const double t0 = now_s();
        const cascade::jit::JitModule* mod = nullptr;
        {
            Spans::Scope s(spans, "jit.build_module");
            mod = cascade::jit::build_module(body, &digest, &hit, &err);
        }
        const double took = now_s() - t0;
        if (mod == nullptr || !hit) {
            std::fprintf(stderr, "warm jit load missed the cache: %s\n",
                         err.c_str());
            return 1;
        }
        print(Metrics{{"jit.load_s", took}});
        return 0;
    }

    m["verilog.parse_s"] = median(parse_s);
    m["verilog.elaborate_s"] = median(elab_s);
    m["ir.wrapper_s"] = median(wrap_s);

    // jit: a cold build of the wrapped kernel into the empty cache.
    {
        std::string digest;
        std::string err;
        bool hit = false;
        const double t0 = now_s();
        const cascade::jit::JitModule* mod = nullptr;
        {
            Spans::Scope s(spans, "jit.build_module");
            mod = cascade::jit::build_module(body, &digest, &hit, &err);
        }
        m["jit.cxx_s"] = now_s() - t0;
        if (mod == nullptr || hit) {
            std::fprintf(stderr, "cold jit build failed or hit a cache: %s\n",
                         err.c_str());
            return 1;
        }
    }

    // fpga: the rest of the flow on the wrapped module, at the
    // benchmark's effort and a fixed seed.
    {
        fpga::MappedDesign mapped;
        {
            const double t0 = now_s();
            Spans::Scope s(spans, "fpga.technology_map");
            mapped = fpga::technology_map(*wnl);
            m["fpga.techmap_s"] = now_s() - t0;
        }
        fpga::PlacementResult placement;
        {
            fpga::PlaceOptions po;
            po.effort = kEffort;
            po.seed = 1;
            const double t0 = now_s();
            Spans::Scope s(spans, "fpga.place");
            placement = fpga::place(mapped, po);
            m["fpga.place_s"] = now_s() - t0;
        }
        m["fpga.anneal_moves"] = static_cast<double>(placement.moves_evaluated);
        {
            const double t0 = now_s();
            Spans::Scope s(spans, "fpga.analyze_timing");
            fpga::analyze_timing(*wnl, mapped, placement, 50.0);
            m["fpga.timing_s"] = now_s() - t0;
        }
    }

    // service: a cold compile of the wrapped module, then the same job
    // again (a bitstream-cache hit).
    {
        cascade::service::CompileService svc;
        const uint64_t client = svc.register_client();
        for (const char* name : {"service.compile_s", "service.cache_hit_s"}) {
            cascade::service::CompileService::Job job;
            job.version = 1;
            job.module = wem;
            job.options.effort = kEffort;
            job.options.seed = 1;
            const double t0 = now_s();
            Spans::Scope s(spans, "service.submit");
            svc.submit(client, std::move(job));
            while (svc.poll(client).empty()) {
                svc.wait_for_done(client, kTimeout_s);
            }
            m[name] = now_s() - t0;
        }
        svc.unregister_client(client);
    }

    // Engine cycles, standalone, on the unwrapped module: the work one
    // tick costs each tier before the runtime adds anything.
    const std::string stream = generate_stream(seed, 4096);
    {
        Spans::Scope s(spans, "sim.cycle_loop");
        cascade::sim::ModuleInterpreter interp(em, nullptr);
        interp.run_initials();
        m["sim.tick_ns"] = cycle_ns([&](bool level, uint64_t n) {
            if (level) {
                drive_data(interp, matcher, stream, n);
            }
            interp.set_input("clk", BitVector(1, level ? 1 : 0));
            interp.evaluate();
            while (interp.there_are_updates()) {
                interp.update();
                interp.evaluate();
            }
        });
    }
    std::shared_ptr<const fpga::Netlist> nl = fpga::synthesize(*em, &diags);
    if (nl == nullptr) {
        std::fprintf(stderr, "synthesis failed: %s\n", diags.str().c_str());
        return 1;
    }
    {
        Spans::Scope s(spans, "fpga.bitstream_cycle_loop");
        fpga::Bitstream bs(nl);
        m["fpga.bitstream_cycle_ns"] = cycle_ns([&](bool level, uint64_t n) {
            if (level) {
                drive_data(bs, matcher, stream, n);
            }
            bs.set_input("clk", BitVector(1, level ? 1 : 0));
            bs.eval_comb();
            bs.step();
        });
    }
    {
        std::string err;
        std::unique_ptr<cascade::jit::JitKernel> kernel;
        {
            Spans::Scope s(spans, "jit.kernel_create");
            kernel = cascade::jit::JitKernel::create(nl, &err);
        }
        if (kernel == nullptr) {
            std::fprintf(stderr, "jit kernel failed: %s\n", err.c_str());
            return 1;
        }
        Spans::Scope s(spans, "jit.kernel_cycle_loop");
        m["jit.kernel_cycle_ns"] = cycle_ns([&](bool level, uint64_t n) {
            if (level) {
                drive_data(*kernel, matcher, stream, n);
            }
            kernel->set_input("clk", BitVector(1, level ? 1 : 0));
            kernel->eval_comb();
            kernel->step();
        });
    }

    // telemetry: the two primitives the scheduler calls on every tick.
    {
        Spans::Scope s(spans, "telemetry.histogram_record_loop");
        cascade::telemetry::Histogram h;
        constexpr uint64_t kCalls = 1u << 21;
        const double t0 = now_s();
        for (uint64_t i = 0; i < kCalls; ++i) {
            h.record(i * 977);
        }
        m["telemetry.histogram_record_ns"] =
            (now_s() - t0) / static_cast<double>(kCalls) * 1e9;
    }
    {
        Spans::Scope s(spans, "telemetry.mutex_loop");
        cascade::telemetry::Mutex mu("perfbench.layer");
        constexpr uint64_t kCalls = 1u << 20;
        const double t0 = now_s();
        for (uint64_t i = 0; i < kCalls; ++i) {
            mu.lock();
            mu.unlock();
        }
        m["telemetry.mutex_lock_ns"] =
            (now_s() - t0) / static_cast<double>(kCalls) * 1e9;
    }

    // runtime: what the workload's own job does not exercise. fifo_push
    // queues the seeded stream on a fresh runtime; the tier transitions
    // are timed on fresh sessions of the workload's REPL items. run.py
    // keeps the job's own numbers where the job has them.
    {
        Spans::Scope s(spans, "runtime.fifo_push_session");
        Runtime::Options o;
        o.enable_hardware = false;
        Runtime rt(o);
        const std::string bytes = generate_stream(seed, kStreamBytes);
        const double t0 = now_s();
        for (size_t off = 0; off < bytes.size(); off += kStreamPush) {
            const size_t n = std::min(kStreamPush, bytes.size() - off);
            rt.fifo_push(std::vector<uint8_t>(bytes.begin() + off,
                                              bytes.begin() + off + n));
        }
        m["runtime.fifo_push_ns"] =
            (now_s() - t0) / static_cast<double>(bytes.size()) * 1e9;
    }
    if (workload != "pow_jit") {
        Spans::Scope s(spans, "runtime.to_jit_session");
        Runtime::Options o;
        o.compile_effort = kEffort;
        o.device_les = 10; // the fabric rejects, so the JIT rung is reached
        o.open_loop_target_wall_s = 0.01;
        m["runtime.to_jit_s"] = session_to(
            items, o,
            [](Runtime& rt) { return rt.user_location() == Location::Jit; },
            nullptr);
    }
    if (workload != "edit_fabric") {
        Spans::Scope s(spans, "runtime.to_fabric_session");
        Runtime::Options o;
        o.compile_effort = kEffort;
        o.open_loop_target_wall_s = 0.01;
        m["runtime.to_fabric_s"] = session_to(
            items, o, [](Runtime& rt) { return rt.hardware_ready(); }, &m);
    }

    for (const char* name : {"runtime.to_jit_s", "runtime.to_fabric_s"}) {
        if (m.count(name) != 0 && m[name] < 0) {
            std::fprintf(stderr, "%s: the tier was never reached\n", name);
            return 1;
        }
    }
    if (!spans_path.empty() && !spans.write_json(spans_path)) {
        std::fprintf(stderr, "cannot write %s\n", spans_path.c_str());
    }
    print(m);
    return 0;
}

} // namespace perfbench
