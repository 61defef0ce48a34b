/// \file
/// Shared declarations of the repository benchmark's driver: the
/// benchmark-owned Verilog sources and seeded input generators, the
/// independent references the outputs are checked against (FIPS 180-4
/// SHA-256 and a std::regex scan), and the in-memory span recorder that
/// the traced mode uses.

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace cascade::runtime {
class Runtime;
}

namespace perfbench {

inline double
now_s()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

// --- Independent references --------------------------------------------

/// First word of the FIPS 180-4 SHA-256 digest of the four big-endian
/// bytes of \p nonce: the message the miner hashes for each candidate.
uint32_t sha256_nonce_word0(uint32_t nonce);
/// Runs the standard known-answer vectors; false (with \p why) on the
/// first mismatch.
bool sha256_self_test(std::string* why);

/// One `match N at byte M` line the matcher should print.
struct Match {
    uint64_t index = 0; ///< 1-based match count
    uint64_t byte = 0;  ///< 0-based stream offset of the closing space
};
/// Every match of "GET /[a-z]+ " in \p stream, found with std::regex.
std::vector<Match> regex_reference(const std::string& stream);

// --- Benchmark-owned Verilog --------------------------------------------

/// The SHA-256 miner as REPL items of the root module: it hashes the
/// four big-endian bytes of each nonce from \p start_nonce upward (one
/// round per clock, 64 clocks per nonce), prints `nonce N -> hash H` for
/// every digest whose top \p zero_bits bits are zero, and shows the hit
/// count on the Led. The digest word is t1 + t2 + H0, as SHA-256 defines
/// it. With a nonzero \p end_nonce it calls $finish on the first clock
/// of that nonce, so a job ends with every earlier nonce done and its
/// line printed.
std::string miner_items(uint32_t start_nonce, uint32_t zero_bits,
                        uint32_t end_nonce = 0);
/// The same datapath as a standalone module with a `clk` port (the
/// layer pass compiles it without the runtime).
/// \p extra is appended to the module body.
std::string miner_module(uint32_t start_nonce, uint32_t zero_bits,
                         const std::string& extra = "");
/// The "GET /[a-z]+ " matcher fed by the stdlib FIFO, printing `match N
/// at byte M` per match, as REPL items.
std::string matcher_items();
/// The matcher as a standalone module with the byte on a port.
std::string matcher_module();
/// One edit of the edit_fabric session: a counter `name` of \p width bits
/// that adds \p increment on every rising edge of \p clk.
std::string counter_item(const std::string& name, uint32_t width,
                         uint64_t increment,
                         const std::string& clk = "clk.val");

/// A counter added by one edit.
struct Counter {
    std::string name;
    uint32_t width = 0;
    uint64_t increment = 0;
};
/// The seeded edit sequence of edit_fabric.
std::vector<Counter> edit_sequence(uint64_t seed, size_t count);
/// The seeded byte stream of stream_sw: lowercase words, request-like
/// fragments (some complete, some broken), and other printable bytes.
std::string generate_stream(uint64_t seed, size_t bytes);
/// The miner's first nonce for a seed.
uint32_t start_nonce(uint64_t seed);

// --- Workload constants (README "Workloads") ------------------------------

/// Leading zero bits of a qualifying digest, per miner workload.
inline constexpr uint32_t kPowSwZeroBits = 4;
inline constexpr uint32_t kPowJitZeroBits = 6;
inline constexpr uint32_t kEditZeroBits = 4;
/// Nonces each miner job hashes before the miner calls $finish; on
/// edit_fabric, the nonces run after each edit (and once more after the
/// last one).
inline constexpr uint32_t kPowSwNonces = 640;
inline constexpr uint32_t kPowJitNonces = 2048;
inline constexpr uint32_t kEditNonces = 64;
/// Counters added by the edit_fabric session.
inline constexpr uint32_t kEdits = 3;
/// Length of the stream_sw byte stream.
inline constexpr size_t kStreamBytes = 96 * 1024;
/// Bytes per Runtime::fifo_push call.
inline constexpr size_t kStreamPush = 4096;
/// Placement effort of every fabric compile the benchmark starts.
inline constexpr double kEffort = 0.01;

/// The workload's program as REPL items (for edit_fabric: after every
/// edit) and as one standalone module with a `clk` port, for the layer
/// pass. Empty strings for an unknown workload.
std::string design_items(const std::string& workload, uint64_t seed);
std::string design_module(const std::string& workload, uint64_t seed);

// --- Shared helpers -------------------------------------------------------

double median(std::vector<double> v);
/// The runtime's own telemetry counter \p name.
uint64_t counter(cascade::runtime::Runtime& rt, const char* name);
/// Polls background compiles without advancing virtual time until
/// \p done holds; false after \p timeout_s wall seconds.
bool wait_without_ticks(cascade::runtime::Runtime& rt,
                        const std::function<bool()>& done, double timeout_s);

// --- Tracing --------------------------------------------------------------

/// Spans kept in memory and written out when the run ends. A disabled
/// recorder records nothing; Scope then costs one branch.
class Spans {
  public:
    struct Span {
        std::string name;
        double start_s = 0;
        double end_s = 0;
        int parent = -1; ///< index of the enclosing span, -1 at the root
    };

    explicit Spans(bool enabled) : enabled_(enabled) {}
    bool enabled() const { return enabled_; }

    class Scope {
      public:
        Scope(Spans& spans, const char* name);
        ~Scope();
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

      private:
        Spans& spans_;
        int index_ = -1;
    };

    /// Sum of the durations of the spans named \p name.
    double total_s(const std::string& name) const;
    /// Durations of the spans named \p name, in order.
    std::vector<double> durations(const std::string& name) const;
    /// Writes every span as one JSON array; false on an IO error.
    bool write_json(const std::string& path) const;

  private:
    bool enabled_;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
