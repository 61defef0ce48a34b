#include "telemetry/journal.h"

#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <mutex>

#include "common/check.h"
#include "telemetry/telemetry.h"

namespace cascade::telemetry {

uint64_t
fnv1a64(std::string_view data)
{
    uint64_t h = 14695981039346656037ull;
    for (const char c : data) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ull;
    }
    return h;
}

std::string
digest_hex(std::string_view data)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(fnv1a64(data)));
    return buf;
}

// ---------------------------------------------------------------------------
// Journal

namespace {

void
write_line(std::FILE* f, const std::string& line)
{
    std::fwrite(line.data(), 1, line.size(), f);
    std::fputc('\n', f);
}

/// Creates \p path and writes a journal's first line,
/// `{"schema":"cascade.events.v1","header":<header>}`.
std::FILE*
open_journal(const std::string& path, const std::string& header_json,
             std::string* err)
{
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        if (err != nullptr) {
            *err = path + ": " + std::strerror(errno);
        }
        return nullptr;
    }
    write_line(f, JsonWriter()
                      .str("schema", "cascade.events.v1")
                      .raw("header", header_json.empty() ? "{}" : header_json)
                      .build());
    return f;
}

} // namespace

Journal::Journal(size_t ring_capacity)
    : ring_capacity_(ring_capacity == 0 ? 1 : ring_capacity)
{
    ring_.reserve(ring_capacity_);
}

Journal::~Journal()
{
    stop_file();
}

void
Journal::set_clock(std::function<uint64_t()> clock)
{
    std::lock_guard<Mutex> lock(mutex_);
    clock_ = std::move(clock);
}

void
Journal::set_tenant(uint64_t tenant)
{
    std::lock_guard<Mutex> lock(mutex_);
    tenant_ = tenant;
}

uint64_t
Journal::record(const char* type, std::string data)
{
    Event event;
    std::function<void(const Event&)> observer;
    std::vector<std::function<void(const Event&)>> taps;
    {
        std::lock_guard<Mutex> lock(mutex_);
        event.seq = ++seq_;
        event.vt = clock_ ? clock_() : 0;
        event.tenant = tenant_;
        event.type = type;
        event.data = std::move(data);
        if (ring_.size() < ring_capacity_) {
            ring_.push_back(event);
        } else {
            ring_[next_] = event;
        }
        next_ = (next_ + 1) % ring_capacity_;
        count_ = ring_.size();
        if (file_ != nullptr) {
            write_line(file_, event_json(event));
        }
        observer = observer_;
        if (!taps_.empty()) {
            taps.reserve(taps_.size());
            for (const auto& [id, tap] : taps_) {
                taps.push_back(tap);
            }
        }
    }
    // The observer and taps run unlocked so they may inspect the journal
    // (but must not record into it).
    if (observer) {
        observer(event);
    }
    for (const auto& tap : taps) {
        tap(event);
    }
    return event.seq;
}

bool
Journal::start_file(const std::string& path, const std::string& header_json,
                    std::string* err)
{
    std::lock_guard<Mutex> lock(mutex_);
    if (file_ != nullptr) {
        if (err != nullptr) {
            *err = "already recording to " + path_;
        }
        return false;
    }
    std::FILE* f = open_journal(path, header_json, err);
    if (f == nullptr) {
        return false;
    }
    file_ = f;
    path_ = path;
    return true;
}

void
Journal::stop_file()
{
    std::lock_guard<Mutex> lock(mutex_);
    if (file_ != nullptr) {
        std::fclose(file_);
        file_ = nullptr;
        path_.clear();
    }
}

bool
Journal::writing() const
{
    std::lock_guard<Mutex> lock(mutex_);
    return file_ != nullptr;
}

bool
Journal::write_ring(const std::string& path, const std::string& header_json,
                    std::string* err) const
{
    std::FILE* f = open_journal(path, header_json, err);
    if (f == nullptr) {
        return false;
    }
    for (const Event& event : ring()) {
        write_line(f, event_json(event));
    }
    std::fclose(f);
    return true;
}

void
Journal::set_observer(std::function<void(const Event&)> observer)
{
    std::lock_guard<Mutex> lock(mutex_);
    observer_ = std::move(observer);
}

int
Journal::add_tap(std::function<void(const Event&)> tap)
{
    std::lock_guard<Mutex> lock(mutex_);
    const int id = next_tap_id_++;
    taps_.emplace_back(id, std::move(tap));
    return id;
}

void
Journal::remove_tap(int id)
{
    std::lock_guard<Mutex> lock(mutex_);
    for (size_t i = 0; i < taps_.size(); ++i) {
        if (taps_[i].first == id) {
            taps_.erase(taps_.begin() + static_cast<long>(i));
            return;
        }
    }
}

std::vector<Journal::Event>
Journal::ring() const
{
    std::lock_guard<Mutex> lock(mutex_);
    std::vector<Event> out;
    out.reserve(ring_.size());
    if (ring_.size() < ring_capacity_) {
        out = ring_;
    } else {
        for (size_t i = 0; i < ring_.size(); ++i) {
            out.push_back(ring_[(next_ + i) % ring_capacity_]);
        }
    }
    return out;
}

std::string
Journal::ring_json() const
{
    JsonWriter w(JsonWriter::Root::Array);
    for (const Event& event : ring()) {
        w.raw(event_json(event));
    }
    return w.build();
}

uint64_t
Journal::events_recorded() const
{
    std::lock_guard<Mutex> lock(mutex_);
    return seq_;
}

std::string
Journal::event_json(const Event& event)
{
    // This exact shape ("data" last, payload verbatim) is relied upon by
    // replay's loader, which compares the raw payload text of recorded
    // vs. re-executed events.
    JsonWriter w;
    w.num("seq", event.seq).num("vt", event.vt).str("type", event.type);
    // Shared-mode attribution tag; omitted entirely at tenant 0 so
    // exclusive-session journals are byte-identical to pre-tag ones.
    // Placed before "data" — replay's loader extracts the payload as
    // everything from the final "data": key, and must not see it.
    if (event.tenant != 0) {
        w.num("tenant", event.tenant);
    }
    w.raw("data", event.data.empty() ? "{}" : event.data);
    return w.build();
}

// ---------------------------------------------------------------------------
// BlackBox

namespace {

std::atomic<bool> g_dumped{false};

void
blackbox_dump(const char* reason)
{
    BlackBox::instance().dump(reason);
}

void
blackbox_signal_handler(int sig)
{
    const char* name = "fatal signal";
    switch (sig) {
        case SIGABRT: name = "SIGABRT"; break;
        case SIGSEGV: name = "SIGSEGV"; break;
        case SIGBUS: name = "SIGBUS"; break;
        case SIGFPE: name = "SIGFPE"; break;
        case SIGILL: name = "SIGILL"; break;
        default: break;
    }
    blackbox_dump(name);
    std::signal(sig, SIG_DFL);
    std::raise(sig);
}

std::terminate_handler g_prev_terminate = nullptr;

[[noreturn]] void
blackbox_terminate_handler()
{
    blackbox_dump("std::terminate");
    if (g_prev_terminate != nullptr) {
        g_prev_terminate();
    }
    std::abort();
}

void
blackbox_check_hook(const char* message)
{
    blackbox_dump(message);
}

#if defined(__SANITIZE_ADDRESS__)
constexpr bool kAsan = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
constexpr bool kAsan = true;
#else
constexpr bool kAsan = false;
#endif
#else
constexpr bool kAsan = false;
#endif

} // namespace

BlackBox&
BlackBox::instance()
{
    static BlackBox* box = new BlackBox(); // leaked: outlives static dtors
    return *box;
}

void
BlackBox::install_handlers()
{
    static std::once_flag once;
    std::call_once(once, [] {
        std::signal(SIGABRT, blackbox_signal_handler);
        if (!kAsan) {
            // ASan owns these for its own reports; stealing them would
            // trade a sanitizer diagnostic for a ring dump.
            std::signal(SIGSEGV, blackbox_signal_handler);
            std::signal(SIGBUS, blackbox_signal_handler);
            std::signal(SIGFPE, blackbox_signal_handler);
            std::signal(SIGILL, blackbox_signal_handler);
        }
        g_prev_terminate = std::set_terminate(blackbox_terminate_handler);
        common_detail::check_fail_hook.store(blackbox_check_hook);
    });
}

int
BlackBox::add_source(const std::string& name,
                     std::function<std::string()> provider)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const int id = next_id_++;
    sources_.push_back(Source{id, name, std::move(provider)});
    return id;
}

void
BlackBox::remove_source(int id)
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto it = sources_.begin(); it != sources_.end(); ++it) {
        if (it->id == id) {
            sources_.erase(it);
            return;
        }
    }
}

void
BlackBox::set_directory(const std::string& dir)
{
    std::lock_guard<std::mutex> lock(mutex_);
    directory_ = dir;
}

std::string
BlackBox::dump_json(const std::string& reason) const
{
    JsonWriter w;
    w.str("schema", "cascade.crash.v1")
        .str("reason", reason)
        .num_signed("pid", ::getpid())
        .begin_array("sources");
    // Best-effort locking: if the crash happened while the registry lock
    // was held we still want the dump, at the cost of a racy read.
    const bool locked = mutex_.try_lock();
    for (const Source& source : sources_) {
        std::string data;
        try {
            data = source.provider();
        } catch (...) {
            data.clear();
        }
        w.begin_object()
            .str("name", source.name)
            .raw("data", data.empty() ? "null" : data)
            .end_object();
    }
    if (locked) {
        mutex_.unlock();
    }
    return w.build();
}

std::string
BlackBox::dump(const std::string& reason)
{
    if (g_dumped.exchange(true)) {
        return "";
    }
    std::string dir;
    {
        const bool locked = mutex_.try_lock();
        dir = directory_;
        if (locked) {
            mutex_.unlock();
        }
    }
    if (dir.empty()) {
        const char* env = std::getenv("CASCADE_CRASH_DIR");
        dir = std::string(env != nullptr && env[0] != '\0' ? env : ".");
    }
    const std::string path =
        dir + "/cascade-crash-" + std::to_string(::getpid()) + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        return "";
    }
    const std::string body = dump_json(reason);
    std::fwrite(body.data(), 1, body.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::fprintf(stderr, "cascade: black box written to %s\n", path.c_str());
    return path;
}

} // namespace cascade::telemetry
