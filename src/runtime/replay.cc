#include "runtime/replay.h"

#include <cstdio>
#include <fstream>
#include <memory>

namespace cascade::runtime {

namespace {

/// Event classes. Input events are re-executed (they are the API calls
/// the original driver made); compared events are outputs the re-executed
/// session must reproduce byte-for-byte; everything else (repl.input,
/// log, compile.stale) is informational and ignored.
bool
is_compared(const std::string& type)
{
    return type == "eval" || type == "rebuild" ||
           type == "interrupt.enqueue" || type == "interrupt.flush" ||
           type == "monitor.line" || type == "compile.launch" ||
           type == "compile.done" || type == "compile.rejected" ||
           type == "adopt" || type == "jit.launch" ||
           type == "jit.adopt" || type == "jit.unavailable" ||
           type == "openloop.grant" ||
           type == "vcd.digest" || type == "finish" ||
           type == "debug.fire" || type == "debug.peek" ||
           type == "debug.step" || type == "debug.resume";
}

std::vector<uint8_t>
decode_hex(const std::string& hex)
{
    std::vector<uint8_t> out;
    out.reserve(hex.size() / 2);
    for (size_t i = 0; i + 1 < hex.size(); i += 2) {
        unsigned v = 0;
        std::sscanf(hex.c_str() + i, "%2x", &v);
        out.push_back(static_cast<uint8_t>(v));
    }
    return out;
}

/// Marks \p report diverged at the recorded event \p want.
void
diverge(ReplayReport* report, const ReplayLogEvent& want, std::string actual)
{
    report->diverged = true;
    report->divergence_seq = want.seq;
    report->divergence_vt = want.vt;
    report->divergence_type = want.type;
    report->expected = want.type + " " + want.data_raw;
    report->actual = std::move(actual);
}

/// The in-order divergence detector, attached as the runtime journal's
/// observer. Compares each compared-class event the replay produces
/// against the next compared-class event of the recording.
struct Comparator {
    const std::vector<ReplayLogEvent>* expected;
    std::vector<size_t> compared_idx; ///< indices of compared events
    size_t next = 0;
    ReplayReport* report;

    void
    on_event(const telemetry::Journal::Event& event)
    {
        if (report->diverged || !is_compared(event.type)) {
            return;
        }
        if (next >= compared_idx.size()) {
            report->diverged = true;
            report->divergence_type = event.type;
            report->expected = "<none: recording ended>";
            report->actual = event.data;
            return;
        }
        const ReplayLogEvent& want = (*expected)[compared_idx[next]];
        if (event.type != want.type || event.data != want.data_raw) {
            diverge(report, want, event.type + " " + event.data);
            return;
        }
        ++next;
        ++report->outputs_compared;
    }
};

} // namespace

bool
load_journal(const std::string& path, ReplayLog* out, std::string* err)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        if (err != nullptr) {
            *err = "cannot open '" + path + "'";
        }
        return false;
    }
    std::string line;
    size_t lineno = 0;
    bool have_header = false;
    while (std::getline(in, line)) {
        ++lineno;
        if (line.empty()) {
            continue;
        }
        JsonValue v;
        std::string perr;
        if (!parse_json(line, &v, &perr)) {
            if (err != nullptr) {
                *err = path + ":" + std::to_string(lineno) + ": " + perr;
            }
            return false;
        }
        if (!have_header) {
            if (v.get_str("schema") != "cascade.events.v1") {
                if (err != nullptr) {
                    *err = path + ": not a cascade.events.v1 journal";
                }
                return false;
            }
            const JsonValue* h = v.find("header");
            if (h != nullptr) {
                out->header = *h;
            }
            have_header = true;
            continue;
        }
        ReplayLogEvent ev;
        ev.seq = v.get_u64("seq");
        ev.vt = v.get_u64("vt");
        ev.type = v.get_str("type");
        const JsonValue* d = v.find("data");
        if (d != nullptr) {
            ev.data = *d;
        }
        // The payload's exact bytes: event_json() writes "data" last, so
        // the raw text runs from after the key to the line's final '}'.
        const size_t pos = line.find("\"data\":");
        if (pos != std::string::npos && line.size() > pos + 8) {
            ev.data_raw = line.substr(pos + 7, line.size() - pos - 8);
        }
        out->events.push_back(std::move(ev));
    }
    if (!have_header) {
        if (err != nullptr) {
            *err = path + ": empty journal";
        }
        return false;
    }
    return true;
}

Runtime::Options
options_from_header(const JsonValue& header)
{
    Runtime::Options o;
    o.enable_inlining =
        header.get_bool("enable_inlining", o.enable_inlining);
    o.enable_hardware =
        header.get_bool("enable_hardware", o.enable_hardware);
    o.enable_jit = header.get_bool("enable_jit", o.enable_jit);
    o.enable_forwarding =
        header.get_bool("enable_forwarding", o.enable_forwarding);
    o.enable_open_loop =
        header.get_bool("enable_open_loop", o.enable_open_loop);
    o.native_mode = header.get_bool("native_mode", o.native_mode);
    o.compile_effort = header.get_num("compile_effort", o.compile_effort);
    o.device_clock_mhz =
        header.get_num("device_clock_mhz", o.device_clock_mhz);
    o.mmio_latency_s = header.get_num("mmio_latency_s", o.mmio_latency_s);
    o.device_les = header.get_u64("device_les", o.device_les);
    o.device_bram_bits =
        header.get_u64("device_bram_bits", o.device_bram_bits);
    o.open_loop_iterations =
        header.get_u64("open_loop_iterations", o.open_loop_iterations);
    o.open_loop_target_wall_s = header.get_num("open_loop_target_wall_s",
                                               o.open_loop_target_wall_s);
    o.profiling = header.get_bool("profiling", o.profiling);
    o.compile_seed = header.get_u64("compile_seed", o.compile_seed);
    return o;
}

ReplayReport
replay_into(Runtime* rt, const ReplayLog& log, const ReplayOptions& opts)
{
    ReplayReport report;

    // Extract everything the runtime must pin: per-version placement
    // seeds, the iteration each build landed at, forced rejections, the
    // open-loop grant sequence and the evictions.
    ReplaySchedule schedule;
    for (const ReplayLogEvent& ev : log.events) {
        const std::string& t = ev.type;
        if (t == "adopt" || t == "compile.rejected" || t == "jit.adopt" ||
            t == "jit.unavailable") {
            const uint64_t version = ev.data.get_u64("version");
            schedule.landings.push_back({ev.data.get_u64("iteration"),
                                         version, t.rfind("jit.", 0) == 0});
            if (t == "compile.rejected") {
                schedule.rejections[version] = ev.data.get_str("error");
            } else if (t == "jit.unavailable") {
                schedule.jit_unavailable.insert(version);
            }
        } else if (t == "openloop.grant") {
            schedule.grants.push_back(ev.data.get_u64("batch"));
        } else if (t == "compile.launch") {
            schedule.seeds[ev.data.get_u64("version")] =
                ev.data.get_u64("seed");
        } else if (t == "hypervisor.evict") {
            schedule.evictions.push_back(ev.data.get_u64("iteration"));
        }
    }
    rt->begin_replay(std::move(schedule));
    report.loaded = true;

    if (!opts.record_path.empty()) {
        std::string rerr;
        if (!rt->start_recording(opts.record_path, &rerr)) {
            report.error = "cannot re-record: " + rerr;
            return report;
        }
    }

    Comparator cmp;
    cmp.expected = &log.events;
    cmp.report = &report;
    for (size_t i = 0; i < log.events.size(); ++i) {
        if (is_compared(log.events[i].type)) {
            cmp.compared_idx.push_back(i);
        }
    }
    rt->journal().set_observer(
        [&cmp](const telemetry::Journal::Event& ev) { cmp.on_event(ev); });

    // Re-execute the recorded inputs in order. Compared events emitted by
    // these calls flow through the observer above; feeding stops at the
    // first divergence (the session has left the recorded trajectory).
    for (const ReplayLogEvent& ev : log.events) {
        if (report.diverged) {
            break;
        }
        const std::string& t = ev.type;
        if (t == "eval") {
            rt->eval(ev.data.get_str("src"));
        } else if (t == "api.step") {
            const uint64_t steps = ev.data.get_u64("n");
            for (uint64_t i = 0; i < steps && !report.diverged; ++i) {
                rt->step();
            }
        } else if (t == "api.run") {
            rt->run(ev.data.get_u64("n"));
        } else if (t == "api.run_ticks") {
            rt->run_for_ticks(ev.data.get_u64("n"));
        } else if (t == "api.wait_hw") {
            // Re-waited whatever it returned: a wait that timed out may
            // still have adopted a JIT kernel or taken a rejection, and
            // the replayed wait applies exactly the landings pinned to
            // this iteration.
            rt->wait_for_hardware(opts.hardware_wait_s);
        } else if (t == "api.set_pad") {
            rt->set_pad(ev.data.get_u64("value"));
        } else if (t == "api.fifo_push") {
            rt->fifo_push(decode_hex(ev.data.get_str("hex")));
        } else if (t == "api.led") {
            const BitVector led = rt->led_state();
            if (led.to_uint64() != ev.data.get_u64("value")) {
                diverge(&report, ev,
                        t + ' ' +
                            JsonWriter()
                                .num("value", led.to_uint64())
                                .build());
            }
        } else if (t == "api.vcd") {
            rt->vcd_open(ev.data.get_str("path"));
        } else if (t == "api.vcd_close") {
            rt->close_vcd();
        } else if (t == "api.probe") {
            rt->add_probe(ev.data.get_str("name"));
        } else if (t == "api.unprobe") {
            rt->remove_probe(ev.data.get_str("name"));
        } else if (t == "api.profiling") {
            rt->set_profiling(ev.data.get_bool("on"));
        } else if (t == "api.debug_break") {
            rt->debug_break(ev.data.get_str("signal"),
                            ev.data.get_str("op"),
                            ev.data.get_str("value"));
        } else if (t == "api.debug_watch") {
            rt->debug_watch(ev.data.get_str("signal"));
        } else if (t == "api.debug_delete") {
            rt->debug_delete(ev.data.get_u64("id"));
        } else if (t == "api.debug_step") {
            rt->debug_step(ev.data.get_u64("n"));
        } else if (t == "api.debug_continue") {
            rt->debug_continue();
        } else if (t == "api.debug_peek") {
            rt->debug_peek(ev.data.get_str("signal"));
        } else {
            continue; // compared or informational: not an input
        }
        ++report.inputs_fed;
    }

    // The recording may end with compared events the replay never
    // produced (e.g. it recorded an adoption the replay missed).
    if (!report.diverged && cmp.next < cmp.compared_idx.size()) {
        diverge(&report, log.events[cmp.compared_idx[cmp.next]],
                "<missing: replay produced no such event>");
    }

    rt->journal().set_observer(nullptr);
    if (!opts.record_path.empty()) {
        rt->stop_recording();
    }
    report.ok = !report.diverged && report.error.empty();
    return report;
}

ReplayReport
replay_journal(const std::string& path, const ReplayOptions& opts)
{
    ReplayLog log;
    ReplayReport report;
    if (!load_journal(path, &log, &report.error)) {
        return report;
    }
    Runtime rt(options_from_header(log.header));
    if (opts.echo) {
        rt.on_output = [](const std::string& text) {
            std::fputs(text.c_str(), stdout);
            std::fflush(stdout);
        };
    }
    return replay_into(&rt, log, opts);
}

std::string
ReplayReport::summary() const
{
    if (!error.empty()) {
        return "replay failed: " + error;
    }
    if (diverged) {
        return "replay DIVERGED at recorded seq " +
               std::to_string(divergence_seq) + " (vt " +
               std::to_string(divergence_vt) + ", " + divergence_type +
               ")\n  expected: " + expected + "\n  actual:   " + actual;
    }
    return "replay ok: " + std::to_string(inputs_fed) +
           " inputs re-fed, " + std::to_string(outputs_compared) +
           " output events matched";
}

} // namespace cascade::runtime
