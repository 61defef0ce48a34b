// The benchmark's own Verilog inputs and seeded input generators. The
// miner and the matcher are derived from src/workloads; they are kept here
// so that a change there cannot silently change what the benchmark
// measures. The miner's digest word is t1 + t2 + H0 as SHA-256 defines it
// (src/workloads adds the previous `a` word as well).

#include <cstdio>

#include "bench.h"

namespace perfbench {

namespace {

constexpr uint32_t kRound[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
};

std::string
hex32(uint32_t v)
{
    char buf[16];
    std::snprintf(buf, sizeof buf, "32'h%08x", v);
    return buf;
}

/// One round per clock over a 16-word message schedule; the message is
/// the nonce followed by SHA-256 padding for a 4-byte input.
std::string
miner_body(uint32_t start_nonce, uint32_t zero_bits, const std::string& clk,
           bool with_display, uint32_t end_nonce = 0)
{
    std::string src = "function [31:0] kconst;\n  input [5:0] i;\n"
                      "  case (i)\n";
    for (int i = 0; i < 64; ++i) {
        src += "    " + std::to_string(i) + ": kconst = " +
               hex32(kRound[i]) + ";\n";
    }
    src += "    default: kconst = 0;\n  endcase\nendfunction\n";
    src += R"(
function [31:0] rotr;
  input [31:0] x;
  input [4:0] n;
  rotr = (x >> n) | (x << (32 - n));
endfunction
function [31:0] bsig0;
  input [31:0] x;
  bsig0 = rotr(x, 2) ^ rotr(x, 13) ^ rotr(x, 22);
endfunction
function [31:0] bsig1;
  input [31:0] x;
  bsig1 = rotr(x, 6) ^ rotr(x, 11) ^ rotr(x, 25);
endfunction
function [31:0] ssig0;
  input [31:0] x;
  ssig0 = rotr(x, 7) ^ rotr(x, 18) ^ (x >> 3);
endfunction
function [31:0] ssig1;
  input [31:0] x;
  ssig1 = rotr(x, 17) ^ rotr(x, 19) ^ (x >> 10);
endfunction
function [31:0] chf;
  input [31:0] e, f, g;
  chf = (e & f) ^ (~e & g);
endfunction
function [31:0] majf;
  input [31:0] a, b, c;
  majf = (a & b) ^ (a & c) ^ (b & c);
endfunction
function [31:0] msg;
  input [3:0] i;
  case (i)
    1: msg = 32'h80000000;
    15: msg = 32'd32;
    default: msg = 0;
  endcase
endfunction

reg [31:0] ha = 32'h6a09e667, hb = 32'hbb67ae85;
reg [31:0] hc = 32'h3c6ef372, hd = 32'ha54ff53a;
reg [31:0] he = 32'h510e527f, hf = 32'h9b05688c;
reg [31:0] hg = 32'h1f83d9ab, hh = 32'h5be0cd19;
reg [31:0] w [0:15];
reg [5:0] round = 0;
)";
    src += "reg [31:0] nonce = " + hex32(start_nonce) + ";\n";
    src += R"(reg [31:0] hits = 0;
wire [31:0] wcur;
wire [31:0] t1;
wire [31:0] t2;
wire [31:0] final_a;
wire found;
assign wcur = (round < 16)
    ? ((round == 0) ? nonce : msg(round[3:0]))
    : (ssig1(w[(round + 14) & 15]) + w[(round + 9) & 15] +
       ssig0(w[(round + 1) & 15]) + w[round & 15]);
assign t1 = hh + bsig1(he) + chf(he, hf, hg) + kconst(round) + wcur;
assign t2 = bsig0(ha) + majf(ha, hb, hc);
assign final_a = t1 + t2 + 32'h6a09e667;
)";
    src += "assign found = (round == 63) && ((final_a >> " +
           std::to_string(32 - zero_bits) + ") == 0);\n";
    src += "always @(posedge " + clk + ") begin\n"
           "  w[round & 15] <= wcur;\n"
           "  if (round == 63) begin\n"
           "    if (found) begin\n"
           "      hits <= hits + 1;\n";
    if (with_display) {
        src += "      $display(\"nonce %h -> hash %h\", nonce, final_a);\n";
    }
    src += R"(    end
    nonce <= nonce + 1;
    round <= 0;
    ha <= 32'h6a09e667; hb <= 32'hbb67ae85;
    hc <= 32'h3c6ef372; hd <= 32'ha54ff53a;
    he <= 32'h510e527f; hf <= 32'h9b05688c;
    hg <= 32'h1f83d9ab; hh <= 32'h5be0cd19;
  end else begin
)";
    if (end_nonce != 0) {
        // At the first clock of end_nonce, so the last nonce's updates
        // have landed on every tier.
        src += "    if (round == 0 && nonce == " + hex32(end_nonce) +
               ") $finish;\n";
    }
    src += R"(    round <= round + 1;
    hh <= hg; hg <= hf; hf <= he;
    he <= hd + t1;
    hd <= hc; hc <= hb; hb <= ha;
    ha <= t1 + t2;
  end
end
)";
    return src;
}

/// The matcher's DFA over one byte per clock.
std::string
matcher_body(const std::string& byte_expr, const std::string& valid_expr,
             const std::string& clk, bool with_display)
{
    std::string src = R"(
reg [2:0] state = 0;
reg [31:0] hits = 0;
reg [31:0] consumed = 0;
wire [7:0] ch;
wire lower;
)";
    src += "assign ch = " + byte_expr + ";\n";
    src += "assign lower = (ch >= 8'h61) && (ch <= 8'h7a);\n";
    src += "always @(posedge " + clk + ")\n";
    src += "  if (" + valid_expr + ") begin\n";
    src += R"(    consumed <= consumed + 1;
    case (state)
      0: state <= (ch == 8'h47) ? 1 : 0;
      1: state <= (ch == 8'h45) ? 2 : ((ch == 8'h47) ? 1 : 0);
      2: state <= (ch == 8'h54) ? 3 : ((ch == 8'h47) ? 1 : 0);
      3: state <= (ch == 8'h20) ? 4 : ((ch == 8'h47) ? 1 : 0);
      4: state <= (ch == 8'h2f) ? 5 : ((ch == 8'h47) ? 1 : 0);
      5: state <= lower ? 6 : ((ch == 8'h47) ? 1 : 0);
      6:
        if (ch == 8'h20) begin
          hits <= hits + 1;
)";
    if (with_display) {
        src += "          $display(\"match %0d at byte %0d\", hits + 1, "
               "consumed);\n";
    }
    src += R"(          state <= 0;
        end else
          state <= lower ? 6 : ((ch == 8'h47) ? 1 : 0);
      default: state <= 0;
    endcase
  end
)";
    return src;
}

/// splitmix64: a fixed, portable mixing function, so a seed gives the
/// same inputs with any standard library.
uint64_t
mix(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

class Rng {
  public:
    explicit Rng(uint64_t seed) : state_(mix(seed)) {}
    uint64_t next() { return state_ = mix(state_); }
    /// Uniform in [lo, hi].
    uint64_t range(uint64_t lo, uint64_t hi)
    {
        return lo + next() % (hi - lo + 1);
    }

  private:
    uint64_t state_;
};

std::string
lower_word(Rng& rng, uint64_t min_len, uint64_t max_len)
{
    std::string w;
    const uint64_t n = rng.range(min_len, max_len);
    for (uint64_t i = 0; i < n; ++i) {
        w += static_cast<char>('a' + rng.range(0, 25));
    }
    return w;
}

} // namespace

std::string
miner_items(uint32_t start_nonce, uint32_t zero_bits, uint32_t end_nonce)
{
    return "Led#(8) led();\n" +
           miner_body(start_nonce, zero_bits, "clk.val", true, end_nonce) +
           "assign led.val = hits[7:0];\n";
}

std::string
miner_module(uint32_t start_nonce, uint32_t zero_bits,
             const std::string& extra)
{
    return "module Miner(input wire clk, output wire [7:0] led_val);\n" +
           miner_body(start_nonce, zero_bits, "clk", false) + extra +
           "assign led_val = hits[7:0];\nendmodule\n";
}

std::string
matcher_items()
{
    std::string src = R"(
Led#(8) led();
wire [7:0] fdata;
wire fempty;
wire ren;
FIFO#(8, 8) f(.clk(clk.val), .rreq(ren), .rdata(fdata),
              .empty(fempty));
assign ren = !fempty;
)";
    src += matcher_body("fdata", "!fempty", "clk.val", true);
    src += "assign led.val = hits[7:0];\n";
    return src;
}

std::string
matcher_module()
{
    return "module Matcher(input wire clk, input wire [7:0] din,\n"
           "               input wire din_valid,\n"
           "               output wire [31:0] nhits);\n" +
           matcher_body("din", "din_valid", "clk", false) +
           "assign nhits = hits;\nendmodule\n";
}

std::string
counter_item(const std::string& name, uint32_t width, uint64_t increment,
             const std::string& clk)
{
    const std::string w = std::to_string(width);
    return "reg [" + std::to_string(width - 1) + ":0] " + name + " = 0;\n" +
           "always @(posedge " + clk + ") " + name + " <= " + name + " + " +
           w + "'d" + std::to_string(increment) + ";\n";
}

std::vector<Counter>
edit_sequence(uint64_t seed, size_t count)
{
    Rng rng(seed ^ 0x65646974ULL);
    std::vector<Counter> out;
    for (size_t i = 0; i < count; ++i) {
        Counter c;
        c.name = "edit" + std::to_string(i);
        // Fixed widths keep every seed's compiles the same size; the
        // seed picks the increments.
        c.width = 12 + 4 * static_cast<uint32_t>(i % 3);
        c.increment = rng.range(1, (uint64_t{1} << c.width) - 1);
        out.push_back(c);
    }
    return out;
}

std::string
generate_stream(uint64_t seed, size_t bytes)
{
    Rng rng(seed ^ 0x73747265616dULL);
    std::string out;
    out.reserve(bytes + 64);
    while (out.size() < bytes) {
        switch (rng.range(0, 7)) {
        case 0:
        case 1: // a complete request line
            out += "GET /" + lower_word(rng, 1, 10) + " ";
            break;
        case 2: // a request whose path breaks off
            out += "GET /" + lower_word(rng, 0, 6) +
                   static_cast<char>("GX/9-"[rng.range(0, 4)]);
            break;
        case 3: // a prefix that stops early
            out += std::string("GET /").substr(0, rng.range(1, 4));
            break;
        case 4:
        case 5: // filler words
            out += lower_word(rng, 1, 8) + " ";
            break;
        default: // other printable bytes
            for (uint64_t n = rng.range(1, 6); n > 0; --n) {
                out += static_cast<char>(rng.range(0x20, 0x7e));
            }
            break;
        }
    }
    out.resize(bytes);
    return out;
}

uint32_t
start_nonce(uint64_t seed)
{
    // Low enough that no run wraps the 32-bit nonce.
    return static_cast<uint32_t>(mix(seed ^ 0x6e6f6e6365ULL) & 0x3fffffffU);
}

std::string
design_items(const std::string& workload, uint64_t seed)
{
    const uint32_t start = start_nonce(seed);
    if (workload == "pow_sw") {
        return miner_items(start, kPowSwZeroBits, start + kPowSwNonces);
    }
    if (workload == "pow_jit") {
        return miner_items(start, kPowJitZeroBits, start + kPowJitNonces);
    }
    if (workload == "stream_sw") {
        return matcher_items();
    }
    if (workload == "edit_fabric") {
        std::string src = miner_items(start, kEditZeroBits,
                                      start + kEditNonces * (kEdits + 1));
        for (const Counter& c : edit_sequence(seed, kEdits)) {
            src += counter_item(c.name, c.width, c.increment);
        }
        return src;
    }
    return {};
}

std::string
design_module(const std::string& workload, uint64_t seed)
{
    if (workload == "pow_sw") {
        return miner_module(start_nonce(seed), kPowSwZeroBits);
    }
    if (workload == "pow_jit") {
        return miner_module(start_nonce(seed), kPowJitZeroBits);
    }
    if (workload == "stream_sw") {
        return matcher_module();
    }
    if (workload == "edit_fabric") {
        std::string extra;
        for (const Counter& c : edit_sequence(seed, kEdits)) {
            extra += counter_item(c.name, c.width, c.increment, "clk");
        }
        return miner_module(start_nonce(seed), kEditZeroBits, extra);
    }
    return {};
}

} // namespace perfbench
