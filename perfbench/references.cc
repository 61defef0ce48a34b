// FIPS 180-4 SHA-256 and the regex reference: the computations the
// benchmark checks Cascade's outputs against, written apart from Cascade.

#include <array>
#include <cstdio>
#include <cstring>
#include <regex>

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

uint32_t
rotr(uint32_t x, int n)
{
    return (x >> n) | (x << (32 - n));
}

void
compress(std::array<uint32_t, 8>& h, const uint8_t* block)
{
    uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
        w[i] = (uint32_t{block[4 * i]} << 24) |
               (uint32_t{block[4 * i + 1]} << 16) |
               (uint32_t{block[4 * i + 2]} << 8) | uint32_t{block[4 * i + 3]};
    }
    for (int i = 16; i < 64; ++i) {
        const uint32_t s0 =
            rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
        const uint32_t s1 =
            rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    uint32_t a = h[0], b = h[1], c = h[2], d = h[3];
    uint32_t e = h[4], f = h[5], g = h[6], hh = h[7];
    for (int i = 0; i < 64; ++i) {
        const uint32_t t1 = hh + (rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25)) +
                            ((e & f) ^ (~e & g)) + kRound[i] + w[i];
        const uint32_t t2 = (rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22)) +
                            ((a & b) ^ (a & c) ^ (b & c));
        hh = g;
        g = f;
        f = e;
        e = d + t1;
        d = c;
        c = b;
        b = a;
        a = t1 + t2;
    }
    h[0] += a;
    h[1] += b;
    h[2] += c;
    h[3] += d;
    h[4] += e;
    h[5] += f;
    h[6] += g;
    h[7] += hh;
}

std::string
hex(const std::array<uint32_t, 8>& h)
{
    std::string out;
    char buf[9];
    for (uint32_t word : h) {
        std::snprintf(buf, sizeof buf, "%08x", word);
        out += buf;
    }
    return out;
}

std::array<uint32_t, 8>
sha256(const uint8_t* data, size_t len)
{
    std::array<uint32_t, 8> h = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                                 0xa54ff53a, 0x510e527f, 0x9b05688c,
                                 0x1f83d9ab, 0x5be0cd19};
    size_t off = 0;
    for (; off + 64 <= len; off += 64) {
        compress(h, data + off);
    }
    // Padding: 0x80, zeros, then the bit length as a 64-bit big-endian
    // integer, in one or two final blocks.
    uint8_t tail[128] = {};
    const size_t rest = len - off;
    std::memcpy(tail, data + off, rest);
    tail[rest] = 0x80;
    const size_t tail_len = rest + 9 <= 64 ? 64 : 128;
    const uint64_t bits = static_cast<uint64_t>(len) * 8;
    for (int i = 0; i < 8; ++i) {
        tail[tail_len - 1 - i] = static_cast<uint8_t>(bits >> (8 * i));
    }
    for (size_t b = 0; b < tail_len; b += 64) {
        compress(h, tail + b);
    }
    return h;
}

} // namespace

uint32_t
sha256_nonce_word0(uint32_t nonce)
{
    const uint8_t msg[4] = {static_cast<uint8_t>(nonce >> 24),
                            static_cast<uint8_t>(nonce >> 16),
                            static_cast<uint8_t>(nonce >> 8),
                            static_cast<uint8_t>(nonce)};
    return sha256(msg, sizeof msg)[0];
}

bool
sha256_self_test(std::string* why)
{
    // FIPS 180-4 / NIST CAVP known answers: empty, one block, two blocks,
    // a message that fills the padding block exactly, and one million 'a'.
    struct Vector {
        std::string msg;
        const char* digest;
    };
    const Vector vectors[] = {
        {"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
        {"abc",
         "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
        {"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
         "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
        {std::string(64, 'a'),
         "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb"},
        {std::string(1000000, 'a'),
         "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"},
    };
    for (const Vector& v : vectors) {
        const std::string got = hex(sha256(
            reinterpret_cast<const uint8_t*>(v.msg.data()), v.msg.size()));
        if (got != v.digest) {
            *why = "sha256 of " + std::to_string(v.msg.size()) +
                   "-byte vector: got " + got + ", want " + v.digest;
            return false;
        }
    }
    // The miner's own message shape, known from Python's hashlib.
    if (sha256_nonce_word0(0x103) != 0xee480628) {
        *why = "sha256 of nonce 0x103: first word is not ee480628";
        return false;
    }
    return true;
}

std::vector<Match>
regex_reference(const std::string& stream)
{
    static const std::regex pattern("GET /[a-z]+ ");
    std::vector<Match> out;
    for (auto it = std::sregex_iterator(stream.begin(), stream.end(),
                                        pattern);
         it != std::sregex_iterator(); ++it) {
        Match m;
        m.index = out.size() + 1;
        m.byte = static_cast<uint64_t>(it->position(0) + it->length(0) - 1);
        out.push_back(m);
    }
    return out;
}

} // namespace perfbench
