// Helpers shared by the round and the layer pass: the in-memory span
// recorder of the traced mode, medians, and waiting on tier transitions.

#include <algorithm>
#include <fstream>
#include <thread>

#include "bench.h"
#include "runtime/runtime.h"

namespace perfbench {

double
median(std::vector<double> v)
{
    if (v.empty()) {
        return 0;
    }
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

uint64_t
counter(cascade::runtime::Runtime& rt, const char* name)
{
    return rt.telemetry().counter(name)->value();
}

bool
wait_without_ticks(cascade::runtime::Runtime& rt,
                   const std::function<bool()>& done, double timeout_s)
{
    const double t0 = now_s();
    while (!done()) {
        if (now_s() - t0 > timeout_s) {
            return false;
        }
        // Polls the compile service and the JIT build without stepping
        // the scheduler; returns at once when no fabric compile is in
        // flight, so the short sleep keeps this from spinning a core
        // that the JIT's compiler needs.
        rt.wait_for_hardware(0.01);
        if (!done()) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
    }
    return true;
}

Spans::Scope::Scope(Spans& spans, const char* name) : spans_(spans)
{
    if (!spans_.enabled_) {
        return;
    }
    Span s;
    s.name = name;
    s.parent = spans_.open_.empty() ? -1 : spans_.open_.back();
    index_ = static_cast<int>(spans_.spans_.size());
    spans_.spans_.push_back(std::move(s));
    spans_.open_.push_back(index_);
    spans_.spans_[index_].start_s = now_s();
}

Spans::Scope::~Scope()
{
    if (index_ < 0) {
        return;
    }
    spans_.spans_[index_].end_s = now_s();
    spans_.open_.pop_back();
}

double
Spans::total_s(const std::string& name) const
{
    double total = 0;
    for (const Span& s : spans_) {
        if (s.name == name) {
            total += s.end_s - s.start_s;
        }
    }
    return total;
}

std::vector<double>
Spans::durations(const std::string& name) const
{
    std::vector<double> out;
    for (const Span& s : spans_) {
        if (s.name == name) {
            out.push_back(s.end_s - s.start_s);
        }
    }
    return out;
}

bool
Spans::write_json(const std::string& path) const
{
    std::ofstream out(path, std::ios::trunc);
    if (!out) {
        return false;
    }
    const double t0 = spans_.empty() ? 0 : spans_.front().start_s;
    out << "[";
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        char buf[256];
        std::snprintf(buf, sizeof buf,
                      "%s\n{\"id\":%zu,\"name\":\"%s\",\"start_us\":%.3f,"
                      "\"end_us\":%.3f,\"parent\":%d}",
                      i == 0 ? "" : ",", i, s.name.c_str(),
                      (s.start_s - t0) * 1e6, (s.end_s - t0) * 1e6,
                      s.parent);
        out << buf;
    }
    out << "\n]\n";
    out.flush();
    return static_cast<bool>(out);
}

} // namespace perfbench
