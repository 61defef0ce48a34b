// perfbench_driver: one process per measured round of the repository
// benchmark. run.py starts it once per round and aggregates the rounds.
//
//   perfbench_driver round  --workload W --seed N [--trace 0|1] [--spans F]
//   perfbench_driver layers --workload W --seed N [--phase cold|warm] [--spans F]
//   perfbench_driver host
//   perfbench_driver selftest
//
// A round sets the workload up, runs its fixed job, checks every output
// against the benchmark's own references, and prints one JSON object as
// its last line of standard output.

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "jit/jit_cache.h"
#include "layers.h"
#include "runtime/runtime.h"
#include "workloads/workloads.h"

namespace perfbench {

using cascade::runtime::Location;
using cascade::runtime::Runtime;

namespace {

// --- Fixed job sizes (README "Workloads") --------------------------------

/// Fresh set-ups timed per round on the interpreter workloads, where one
/// set-up takes milliseconds.
constexpr int kSwSetups = 40;
constexpr uint64_t kPowSwChunk = 1024;
constexpr uint64_t kStreamChunk = 512;
constexpr uint64_t kStreamDrainTicks = 64;
constexpr uint64_t kPowJitChunk = 8192;
/// pow_jit sessions per round (one cold, the rest on resident kernels).
constexpr int kPowJitSessions = 4;
constexpr uint64_t kEditChunk = 256;
/// Bound on a job that runs to the miner's $finish.
constexpr uint64_t kMaxTicks = uint64_t{1} << 26;
/// Longest wait for any tier transition before the round gives up.
constexpr double kTierTimeout = 120.0;

struct Args {
    std::string cmd;
    std::string workload;
    uint64_t seed = 1;
    bool trace = false;
    std::string spans_path;
    std::string phase = "cold";
};

/// Every check is one operation; a mismatch is a failed one.
struct Checks {
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> errors;

    void
    expect(bool ok, const std::string& what)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            if (errors.size() < 8) {
                errors.push_back(what);
            }
        }
    }
};

/// Collects the program's $display lines.
struct Lines {
    std::vector<std::string> done;
    std::string partial;

    void
    add(const std::string& text)
    {
        for (char ch : text) {
            if (ch == '\n') {
                done.push_back(partial);
                partial.clear();
            } else {
                partial += ch;
            }
        }
    }
};

/// Peak resident set of this process. VmHWM belongs to the address
/// space, so unlike getrusage's ru_maxrss it does not carry over the high
/// water mark of the process that forked and exec'd this one.
double
peak_rss_mb()
{
    std::ifstream status("/proc/self/status");
    for (std::string line; std::getline(status, line);) {
        if (line.rfind("VmHWM:", 0) == 0) {
            return std::stod(line.substr(6)) / 1024.0;
        }
    }
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Process CPU seconds, including reaped children (the JIT's compiler).
double
process_cpu_s()
{
    double total = 0;
    for (int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
        rusage ru{};
        getrusage(who, &ru);
        total += static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
                 static_cast<double>(ru.ru_utime.tv_usec +
                                     ru.ru_stime.tv_usec) /
                     1e6;
    }
    return total;
}

std::string
json_escape(const std::string& s)
{
    std::string out;
    for (char ch : s) {
        if (ch == '"' || ch == '\\') {
            out += '\\';
            out += ch;
        } else if (static_cast<unsigned char>(ch) < 0x20) {
            out += ' ';
        } else {
            out += ch;
        }
    }
    return out;
}

/// One round's result: numbers by metric name, the job samples, notes.
struct Result {
    std::map<std::string, double> metrics;
    /// wall_s and ticks_per_s of every job the round ran.
    std::map<std::string, std::vector<double>> samples;
    std::vector<std::string> transitions;
    Checks checks;
    std::string error; ///< set when the round could not run at all

    std::string
    json() const
    {
        std::string out = "{";
        char buf[64];
        for (const auto& [name, value] : metrics) {
            std::snprintf(buf, sizeof buf, "%.9g", value);
            out += "\"" + name + "\":" + buf + ",";
        }
        out += "\"samples\":{";
        for (const auto& [name, values] : samples) {
            out += (out.back() == '{' ? "\"" : ",\"") + name + "\":[";
            for (size_t i = 0; i < values.size(); ++i) {
                std::snprintf(buf, sizeof buf, "%s%.9g", i ? "," : "",
                              values[i]);
                out += buf;
            }
            out += "]";
        }
        out += "},";
        out += "\"attempted\":" + std::to_string(checks.attempted) +
               ",\"failed\":" + std::to_string(checks.failed) +
               ",\"transitions\":[";
        for (size_t i = 0; i < transitions.size(); ++i) {
            out += (i ? ",\"" : "\"") + transitions[i] + "\"";
        }
        out += "],\"errors\":[";
        for (size_t i = 0; i < checks.errors.size(); ++i) {
            out += (i ? ",\"" : "\"") + json_escape(checks.errors[i]) + "\"";
        }
        out += "]";
        if (!error.empty()) {
            out += ",\"error\":\"" + json_escape(error) + "\"";
        }
        out += "}";
        return out;
    }
};

uint64_t
peek(Runtime& rt, Spans& spans, const std::string& signal, Checks& checks)
{
    Spans::Scope s(spans, "runtime.debug_peek");
    std::string err;
    const auto v = rt.debug_peek(signal, &err);
    checks.expect(v.has_value(), "debug_peek " + signal + ": " + err);
    return v.has_value() ? v->to_uint64() : 0;
}

bool
eval(Runtime& rt, Spans& spans, const std::string& src, std::string* err)
{
    Spans::Scope s(spans, "runtime.eval");
    return rt.eval(src, err);
}

/// Runs \p ticks virtual ticks, or until $finish, in calls of \p chunk;
/// returns ticks run.
uint64_t
run_ticks(Runtime& rt, Spans& spans, uint64_t ticks, uint64_t chunk)
{
    const uint64_t t0 = rt.virtual_ticks();
    while (rt.virtual_ticks() - t0 < ticks && !rt.finished()) {
        const uint64_t left = ticks - (rt.virtual_ticks() - t0);
        Spans::Scope s(spans, "runtime.run_for_ticks");
        rt.run_for_ticks(std::min(chunk, left));
    }
    return rt.virtual_ticks() - t0;
}

// --- Output checks ---------------------------------------------------------

/// Checks the miner's output against the reference SHA-256: every
/// reported hash, the exact list of qualifying nonces in [start, end),
/// the LED, and that the miner stopped at \p end after exactly the clocks
/// the runtime ran (\p posedges).
void
check_miner(Runtime& rt, Spans& spans, const std::vector<std::string>& lines,
            uint32_t start, uint32_t end, uint32_t zero_bits,
            uint64_t posedges, Checks& checks)
{
    std::vector<uint32_t> reported;
    for (const std::string& line : lines) {
        unsigned nonce = 0;
        unsigned hash = 0;
        if (std::sscanf(line.c_str(), "nonce %x -> hash %x", &nonce,
                        &hash) != 2) {
            continue;
        }
        reported.push_back(nonce);
        const uint32_t want = sha256_nonce_word0(nonce);
        char buf[96];
        std::snprintf(buf, sizeof buf,
                      "nonce %08x: reported hash %08x, sha256 %08x", nonce,
                      hash, want);
        checks.expect(hash == want, buf);
    }
    checks.expect(rt.finished(), "the miner never reached $finish");
    const uint64_t nonce = peek(rt, spans, "nonce", checks);
    checks.expect(nonce == end, "nonce register " + std::to_string(nonce) +
                                    " at $finish, expected " +
                                    std::to_string(end));
    const uint64_t clocks = (uint64_t{end} - start) * 64 + 1;
    checks.expect(posedges == clocks,
                  "runtime ran " + std::to_string(posedges) +
                      " clocks to $finish, expected " +
                      std::to_string(clocks));
    std::vector<uint32_t> expected;
    for (uint32_t n = start; n != end; ++n) {
        if ((sha256_nonce_word0(n) >> (32 - zero_bits)) == 0) {
            expected.push_back(n);
        }
    }
    std::string diff;
    for (size_t i = 0; i < std::max(reported.size(), expected.size()); ++i) {
        if (i >= reported.size() || i >= expected.size() ||
            reported[i] != expected[i]) {
            char buf[96];
            std::snprintf(buf, sizeof buf,
                          " (first difference at #%zu: reported %08x, "
                          "reference %08x)",
                          i, i < reported.size() ? reported[i] : 0,
                          i < expected.size() ? expected[i] : 0);
            diff = buf;
            break;
        }
    }
    checks.expect(reported == expected,
                  "reported " + std::to_string(reported.size()) +
                      " qualifying nonces, reference has " +
                      std::to_string(expected.size()) + diff);
    const uint64_t led = rt.led_state().to_uint64();
    checks.expect(led == expected.size() % 256,
                  "led " + std::to_string(led) + ", reference hit count " +
                      std::to_string(expected.size()));
}

std::vector<std::string>
transitions(Runtime& rt)
{
    std::vector<std::string> out;
    for (const auto& t : rt.transitions()) {
        out.push_back("v" + std::to_string(t.version) + ":" +
                      cascade::runtime::location_name(t.to));
    }
    return out;
}

void
record_runtime_layers(Runtime& rt, const Spans& spans, uint64_t ticks,
                      uint64_t iterations, Result& r)
{
    if (!spans.enabled()) {
        return;
    }
    const double run_s = spans.total_s("runtime.run_for_ticks");
    if (ticks > 0) {
        r.metrics["runtime.tick_ns"] = run_s / static_cast<double>(ticks) * 1e9;
        r.metrics["runtime.iterations_per_tick"] =
            static_cast<double>(iterations) / static_cast<double>(ticks);
    }
    r.metrics["runtime.eval_s"] = median(spans.durations("runtime.eval"));
    const uint64_t launched = counter(rt, "compile.launched");
    if (launched > 0) {
        r.metrics["runtime.compile_adopt_ratio"] =
            static_cast<double>(counter(rt, "compile.adopted")) /
            static_cast<double>(launched);
    }
    const uint64_t jit_launched = counter(rt, "jit.launched");
    if (jit_launched > 0) {
        r.metrics["jit.adopt_ratio"] =
            static_cast<double>(counter(rt, "jit.adopted")) /
            static_cast<double>(jit_launched);
    }
}

// --- Workloads ---------------------------------------------------------------

Runtime::Options
sw_options()
{
    Runtime::Options o;
    o.enable_hardware = false;
    return o;
}

/// Times kSwSetups fresh interpreter set-ups of \p src (construction plus
/// the first eval) and keeps the last runtime for the job.
std::unique_ptr<Runtime>
sw_setup(const std::string& src, Spans& spans, Lines& lines, Result& r)
{
    std::vector<double> samples;
    std::unique_ptr<Runtime> rt;
    for (int i = 0; i < kSwSetups; ++i) {
        rt.reset();
        lines = Lines();
        Spans::Scope s(spans, "setup");
        const double t0 = now_s();
        rt = std::make_unique<Runtime>(sw_options());
        rt->on_output = [&lines](const std::string& t) { lines.add(t); };
        std::string err;
        if (!eval(*rt, spans, src, &err)) {
            r.error = "eval failed: " + err;
            return nullptr;
        }
        samples.push_back(now_s() - t0);
    }
    r.metrics["setup_s"] = median(samples);
    return rt;
}

void
add_job_sample(double wall_s, uint64_t ticks, Result& r)
{
    r.samples["wall_s"].push_back(wall_s);
    r.samples["ticks_per_s"].push_back(static_cast<double>(ticks) / wall_s);
}

void
finish_job(Runtime& rt, Spans& spans, double wall_s, double cpu0,
           uint64_t ticks, uint64_t iterations, Result& r)
{
    add_job_sample(wall_s, ticks, r);
    r.metrics["ticks"] = static_cast<double>(ticks);
    r.metrics["process.cpu_s"] = process_cpu_s() - cpu0;
    record_runtime_layers(rt, spans, ticks, iterations, r);
}

void
pow_sw(const Args& a, Spans& spans, Result& r)
{
    const uint32_t start = start_nonce(a.seed);
    Lines lines;
    auto rt = sw_setup(design_items("pow_sw", a.seed), spans, lines, r);
    if (rt == nullptr) {
        return;
    }
    const uint64_t p0 = rt->posedges_seen();
    const uint64_t it0 = rt->scheduler_iterations();
    const double cpu0 = process_cpu_s();
    const double t0 = now_s();
    uint64_t ticks = 0;
    {
        Spans::Scope s(spans, "job");
        ticks = run_ticks(*rt, spans, kMaxTicks, kPowSwChunk);
    }
    finish_job(*rt, spans, now_s() - t0, cpu0, ticks,
               rt->scheduler_iterations() - it0, r);
    check_miner(*rt, spans, lines.done, start, start + kPowSwNonces,
                kPowSwZeroBits,
                rt->posedges_seen() - p0, r.checks);
    r.transitions = transitions(*rt);
}

void
stream_sw(const Args& a, Spans& spans, Result& r)
{
    const std::string stream = generate_stream(a.seed, kStreamBytes);
    Lines lines;
    auto rt = sw_setup(matcher_items(), spans, lines, r);
    if (rt == nullptr) {
        return;
    }
    const uint64_t it0 = rt->scheduler_iterations();
    const uint64_t tick0 = rt->virtual_ticks();
    const double cpu0 = process_cpu_s();
    const double t0 = now_s();
    size_t pushed = 0;
    {
        Spans::Scope s(spans, "job");
        while (rt->fifo_bytes_consumed() < stream.size()) {
            if (pushed < stream.size() && rt->fifo_backlog() < kStreamPush) {
                const size_t n = std::min(kStreamPush, stream.size() - pushed);
                std::vector<uint8_t> chunk(stream.begin() + pushed,
                                           stream.begin() + pushed + n);
                Spans::Scope p(spans, "runtime.fifo_push");
                rt->fifo_push(chunk);
                pushed += n;
            }
            Spans::Scope t(spans, "runtime.run_for_ticks");
            rt->run_for_ticks(kStreamChunk);
        }
        run_ticks(*rt, spans, kStreamDrainTicks, kStreamDrainTicks);
    }
    const uint64_t ticks = rt->virtual_ticks() - tick0;
    finish_job(*rt, spans, now_s() - t0, cpu0, ticks,
               rt->scheduler_iterations() - it0, r);
    if (spans.enabled()) {
        r.metrics["runtime.fifo_push_ns"] =
            spans.total_s("runtime.fifo_push") /
            static_cast<double>(stream.size()) * 1e9;
    }

    // Reference: std::regex over the generated stream.
    const std::vector<Match> want = regex_reference(stream);
    std::vector<Match> got;
    for (const std::string& line : lines.done) {
        unsigned long long n = 0;
        unsigned long long at = 0;
        if (std::sscanf(line.c_str(), "match %llu at byte %llu", &n, &at) ==
            2) {
            got.push_back(Match{n, at});
        }
    }
    for (size_t i = 0; i < got.size(); ++i) {
        const bool ok = i < want.size() && got[i].index == want[i].index &&
                        got[i].byte == want[i].byte;
        r.checks.expect(ok, "match line " + std::to_string(i + 1) +
                                ": got byte " + std::to_string(got[i].byte) +
                                (i < want.size()
                                     ? ", reference byte " +
                                           std::to_string(want[i].byte)
                                     : ", reference has no such match"));
    }
    r.checks.expect(got.size() == want.size(),
                    std::to_string(got.size()) + " match lines, reference " +
                        std::to_string(want.size()));
    r.checks.expect(rt->fifo_bytes_consumed() == stream.size(),
                    "fifo_bytes_consumed " +
                        std::to_string(rt->fifo_bytes_consumed()));
    const uint64_t consumed = peek(*rt, spans, "consumed", r.checks);
    r.checks.expect(consumed == stream.size(),
                    "design consumed " + std::to_string(consumed) + " of " +
                        std::to_string(stream.size()) + " bytes");
    r.checks.expect(rt->led_state().to_uint64() == want.size() % 256,
                    "led differs from the reference match count");
    r.transitions = transitions(*rt);
}

/// One pow_jit session: eval, wait (without ticks) until the kernel is
/// adopted and the fabric compile rejected, run the job to $finish, and
/// check it. Returns false when the session could not run.
bool
pow_jit_session(const Args& a, Spans& spans, bool cold, Result& r)
{
    const uint32_t start = start_nonce(a.seed);
    Runtime::Options o;
    o.compile_effort = kEffort;
    o.device_les = 10; // nothing fits: the fabric rejects, the JIT keeps it
    // Each scheduler iteration on the JIT rung free-runs one open-loop
    // grant sized to this wall target.
    o.open_loop_target_wall_s = 0.05;
    Lines lines;
    const double t0 = now_s();
    std::unique_ptr<Runtime> rt;
    uint64_t p0 = 0;
    {
        Spans::Scope s(spans, "setup");
        rt = std::make_unique<Runtime>(o);
        rt->on_output = [&lines](const std::string& t) { lines.add(t); };
        std::string err;
        const double e0 = now_s();
        if (!eval(*rt, spans, design_items("pow_jit", a.seed), &err)) {
            r.error = "eval failed: " + err;
            return false;
        }
        p0 = rt->posedges_seen();
        Spans::Scope w(spans, "runtime.wait_jit");
        const bool ok = wait_without_ticks(
            *rt,
            [&] {
                return rt->user_location() == Location::Jit &&
                       counter(*rt, "compile.rejected") >= 1;
            },
            kTierTimeout);
        if (!ok) {
            r.error = "the program never settled on the JIT tier (location " +
                      std::string(cascade::runtime::location_name(
                          rt->user_location())) +
                      ", jit.unavailable " +
                      std::to_string(counter(*rt, "jit.unavailable")) + ")";
            return false;
        }
        if (cold) {
            r.metrics["runtime.to_jit_s"] = now_s() - e0;
        }
    }
    if (cold) {
        r.metrics["setup_s"] = now_s() - t0;
    }
    const uint64_t it0 = rt->scheduler_iterations();
    const double cpu0 = process_cpu_s();
    const double j0 = now_s();
    uint64_t ticks = 0;
    {
        Spans::Scope s(spans, "job");
        ticks = run_ticks(*rt, spans, kMaxTicks, kPowJitChunk);
    }
    const double wall_s = now_s() - j0;
    if (cold) {
        finish_job(*rt, spans, wall_s, cpu0, ticks,
                   rt->scheduler_iterations() - it0, r);
        r.transitions = transitions(*rt);
    } else {
        add_job_sample(wall_s, ticks, r);
    }
    check_miner(*rt, spans, lines.done, start, start + kPowJitNonces,
                kPowJitZeroBits, rt->posedges_seen() - p0, r.checks);
    r.checks.expect(rt->user_location() == Location::Jit,
                    "the job left the JIT tier");
    return true;
}

void
pow_jit(const Args& a, Spans& spans, Result& r)
{
    // The first session builds both kernels cold and gives setup_s. The
    // later ones find the kernels in the process's resident registry, set
    // up in a fraction of a second, and add job samples only.
    for (int i = 0; i < kPowJitSessions; ++i) {
        if (!pow_jit_session(a, spans, i == 0, r)) {
            return;
        }
    }
}

void
edit_fabric(const Args& a, Spans& spans, Result& r)
{
    const uint32_t start = start_nonce(a.seed);
    const std::vector<Counter> edits = edit_sequence(a.seed, kEdits);
    Runtime::Options o;
    o.compile_effort = kEffort;
    o.open_loop_target_wall_s = 0.01;
    Lines lines;
    const double t0 = now_s();
    std::unique_ptr<Runtime> rt;
    uint64_t p0 = 0;
    std::vector<double> to_fabric;
    {
        Spans::Scope s(spans, "setup");
        rt = std::make_unique<Runtime>(o);
        rt->on_output = [&lines](const std::string& t) { lines.add(t); };
        std::string err;
        const double e0 = now_s();
        if (!eval(*rt, spans,
                  miner_items(start, kEditZeroBits,
                              start + kEditNonces * (kEdits + 1)),
                  &err)) {
            r.error = "eval failed: " + err;
            return;
        }
        p0 = rt->posedges_seen();
        Spans::Scope w(spans, "runtime.wait_for_hardware");
        if (!rt->wait_for_hardware(kTierTimeout)) {
            r.error = "the miner never reached the fabric";
            return;
        }
        to_fabric.push_back(now_s() - e0);
    }
    r.metrics["setup_s"] = now_s() - t0;
    const uint64_t it0 = rt->scheduler_iterations();
    const uint64_t tick0 = rt->virtual_ticks();
    const double timeline0 = rt->timeline_seconds();
    const double cpu0 = process_cpu_s();
    const double j0 = now_s();
    std::vector<uint64_t> eval_posedge;
    {
        Spans::Scope s(spans, "job");
        for (const Counter& c : edits) {
            // Each edit follows a stretch of mining, long enough that the
            // previous version's JIT build is nearly done (README.md,
            // "Workloads").
            run_ticks(*rt, spans, kEditNonces * 64, kEditChunk);
            // An open-loop grant can leave the clock high, after a
            // posedge whose updates the fabric has not latched; an eval
            // there loses that edge (README.md, "Faults"). Each edit is
            // made on a settled timestep instead.
            while (rt->posedges_seen() != rt->virtual_ticks() &&
                   !rt->finished()) {
                Spans::Scope t(spans, "runtime.step");
                rt->step();
            }
            std::string err;
            eval_posedge.push_back(rt->posedges_seen());
            const double e0 = now_s();
            if (!eval(*rt, spans, counter_item(c.name, c.width, c.increment),
                      &err)) {
                r.error = "edit failed: " + err;
                return;
            }
            Spans::Scope w(spans, "runtime.wait_for_hardware");
            if (!rt->wait_for_hardware(kTierTimeout)) {
                r.error = "edit " + c.name + " never reached the fabric";
                return;
            }
            to_fabric.push_back(now_s() - e0);
        }
        // The miner ends itself ($finish) after one more stretch of
        // nonces, so every line is printed when the job ends.
        run_ticks(*rt, spans, kMaxTicks, kEditChunk);
    }
    const uint64_t ticks = rt->virtual_ticks() - tick0;
    // The fabric's modelled clock: a simulated statistic, reported for
    // reference and never as a measured host time.
    r.metrics["timeline_ticks_per_s"] =
        static_cast<double>(ticks) / (rt->timeline_seconds() - timeline0);
    finish_job(*rt, spans, now_s() - j0, cpu0, ticks,
               rt->scheduler_iterations() - it0, r);
    if (spans.enabled()) {
        r.metrics["runtime.to_fabric_s"] = median(to_fabric);
    }
    const uint64_t p_end = rt->posedges_seen();
    // Whether the updates of the $finish clock itself landed differs by
    // tier and, on the fabric, from run to run (README.md, "Faults"). The
    // miner's round register tells: it is 0 at that clock and 1 after
    // it. Every counter must agree with it.
    const uint64_t landed = peek(*rt, spans, "round", r.checks);
    r.checks.expect(landed <= 1, "round register " + std::to_string(landed) +
                                     " at $finish, expected 0 or 1");
    for (size_t i = 0; i < edits.size(); ++i) {
        const Counter& c = edits[i];
        const uint64_t got = peek(*rt, spans, c.name, r.checks);
        const uint64_t mask = (uint64_t{1} << c.width) - 1;
        const uint64_t clocks = p_end - eval_posedge[i] - 1 + landed;
        const uint64_t want = (c.increment * clocks) & mask;
        r.checks.expect(got == want, c.name + " = " + std::to_string(got) +
                                         ", expected " + std::to_string(want));
    }
    check_miner(*rt, spans, lines.done, start,
                start + kEditNonces * (kEdits + 1), kEditZeroBits,
                p_end - p0, r.checks);
    r.transitions = transitions(*rt);
}

// --- Commands ----------------------------------------------------------------

int
cmd_round(const Args& a)
{
    Spans spans(a.trace);
    Result r;
    {
        Spans::Scope root(spans, "round");
        if (a.workload == "pow_sw") {
            pow_sw(a, spans, r);
        } else if (a.workload == "stream_sw") {
            stream_sw(a, spans, r);
        } else if (a.workload == "pow_jit") {
            pow_jit(a, spans, r);
        } else if (a.workload == "edit_fabric") {
            edit_fabric(a, spans, r);
        } else {
            std::fprintf(stderr, "unknown workload '%s'\n",
                         a.workload.c_str());
            return 2;
        }
    }
    r.metrics["peak_rss_mb"] = peak_rss_mb();
    if (a.trace && !a.spans_path.empty() && !spans.write_json(a.spans_path)) {
        std::fprintf(stderr, "cannot write %s\n", a.spans_path.c_str());
    }
    std::printf("%s\n", r.json().c_str());
    return r.error.empty() ? 0 : 1;
}

int
cmd_host()
{
    std::string cpu = "unknown";
    std::ifstream info("/proc/cpuinfo");
    for (std::string line; std::getline(info, line);) {
        if (line.rfind("model name", 0) == 0) {
            cpu = line.substr(line.find(':') + 2);
            break;
        }
    }
    std::printf("{\"nproc\":%u,\"cpu_model\":\"%s\",\"compiler\":\"%s %s\","
                "\"build_type\":\"%s\",\"jit_compiler\":\"%s\"}\n",
                std::thread::hardware_concurrency(),
                json_escape(cpu).c_str(), PERFBENCH_CXX_ID,
                PERFBENCH_CXX_VERSION, PERFBENCH_BUILD_TYPE,
                json_escape(cascade::jit::find_compiler()).c_str());
    return 0;
}

/// Shows the references are live: the known-answer vectors pass, the
/// benchmark's miner passes every check, and the miner as src/workloads
/// writes it fails every hash check.
int
cmd_selftest()
{
    bool ok = true;
    std::string why;
    if (sha256_self_test(&why)) {
        std::printf("sha256 known-answer vectors: pass\n");
    } else {
        std::printf("sha256 known-answer vectors: FAIL (%s)\n", why.c_str());
        ok = false;
    }
    const std::vector<Match> m =
        regex_reference("xGET /abc GET /x GET / GET /ab1 GGET /zz ");
    const bool regex_ok = m.size() == 3 && m[0].byte == 9 &&
                          m[1].byte == 16 && m[2].byte == 40;
    std::printf("regex reference on a fixed string: %s\n",
                regex_ok ? "pass" : "FAIL");
    ok = ok && regex_ok;

    constexpr uint32_t kBits = 4;
    constexpr uint32_t kNonces = 512;
    constexpr uint64_t kTicks = 64 * kNonces;
    {
        Spans spans(false);
        Checks own;
        Lines lines;
        Runtime rt(sw_options());
        rt.on_output = [&lines](const std::string& t) { lines.add(t); };
        std::string err;
        if (!rt.eval(miner_items(0, kBits, kNonces), &err)) {
            std::printf("benchmark miner: eval failed: %s\n", err.c_str());
            return 1;
        }
        const uint64_t p0 = rt.posedges_seen();
        run_ticks(rt, spans, kTicks + 1, kTicks + 1);
        check_miner(rt, spans, lines.done, 0, kNonces, kBits,
                    rt.posedges_seen() - p0, own);
        std::printf("benchmark miner: %" PRIu64 " checks, %" PRIu64
                    " failed\n",
                    own.attempted, own.failed);
        for (const std::string& e : own.errors) {
            std::printf("  %s\n", e.c_str());
        }
        ok = ok && own.failed == 0 && own.attempted > 3;
    }

    // The repo's miner starts at nonce 0 and prints the same line format.
    Spans spans(false);
    Lines lines;
    Runtime rt(sw_options());
    rt.on_output = [&lines](const std::string& t) { lines.add(t); };
    std::string err;
    if (!rt.eval(cascade::workloads::proof_of_work_source(kBits), &err)) {
        std::printf("src/workloads miner: eval failed: %s\n", err.c_str());
        return 1;
    }
    rt.run_for_ticks(kTicks);
    uint64_t lines_checked = 0;
    uint64_t hash_failed = 0;
    for (const std::string& line : lines.done) {
        unsigned nonce = 0;
        unsigned hash = 0;
        if (std::sscanf(line.c_str(), "nonce %x -> hash %x", &nonce,
                        &hash) == 2) {
            ++lines_checked;
            hash_failed += hash != sha256_nonce_word0(nonce) ? 1 : 0;
        }
    }
    std::printf("src/workloads miner: %" PRIu64 " reported hashes, %" PRIu64
                " failed the SHA-256 check\n",
                lines_checked, hash_failed);
    const bool repo_caught = lines_checked > 0 && hash_failed == lines_checked;
    ok = ok && repo_caught;
    std::printf("%s\n", ok ? "selftest: the reference checks are live"
                           : "selftest: FAILED");
    return ok ? 0 : 1;
}

bool
parse_args(int argc, char** argv, Args* a)
{
    if (argc < 2) {
        return false;
    }
    a->cmd = argv[1];
    for (int i = 2; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string val = argv[i + 1];
        if (key == "--workload") {
            a->workload = val;
        } else if (key == "--seed") {
            a->seed = std::stoull(val);
        } else if (key == "--trace") {
            a->trace = val == "1";
        } else if (key == "--spans") {
            a->spans_path = val;
        } else if (key == "--phase") {
            a->phase = val;
        } else {
            return false;
        }
    }
    return true;
}

} // namespace

} // namespace perfbench

int
main(int argc, char** argv)
{
    using namespace perfbench;
    Args a;
    if (!parse_args(argc, argv, &a)) {
        std::fprintf(stderr,
                     "usage: perfbench_driver round|layers|host|selftest "
                     "[--workload W] [--seed N] [--trace 0|1] [--spans F] "
                     "[--phase cold|warm]\n");
        return 2;
    }
    if (a.cmd == "round") {
        return cmd_round(a);
    }
    if (a.cmd == "layers") {
        return run_layers(a.workload, a.seed, a.phase, a.spans_path);
    }
    if (a.cmd == "host") {
        return cmd_host();
    }
    if (a.cmd == "selftest") {
        return cmd_selftest();
    }
    std::fprintf(stderr, "unknown command '%s'\n", a.cmd.c_str());
    return 2;
}
