#include "common/json.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/check.h"

namespace cascade {

namespace {

void
escape_into(std::string& out, std::string_view s)
{
    for (const char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
}

} // namespace

std::string
json_escape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    escape_into(out, s);
    return out;
}

// ---------------------------------------------------------------------------
// JsonWriter

JsonWriter::JsonWriter(Root root)
{
    open(root == Root::Object ? '{' : '[', root == Root::Object ? '}' : ']');
}

void
JsonWriter::separate()
{
    if (keyed_) {
        keyed_ = false; // the value of the member key() just wrote
        return;
    }
    CASCADE_CHECK(closers_.back() == ']');
    if (!first_) {
        out_ += ',';
    }
    first_ = false;
}

JsonWriter&
JsonWriter::key(Key k)
{
    CASCADE_CHECK(closers_.back() == '}' && !keyed_);
    if (!first_) {
        out_ += ',';
    }
    first_ = false;
    out_ += '"';
    escape_into(out_, k);
    out_ += "\":";
    keyed_ = true;
    return *this;
}

void
JsonWriter::open(char bracket, char closer)
{
    out_ += bracket;
    closers_ += closer;
    first_ = true;
}

JsonWriter&
JsonWriter::close(char closer)
{
    // The root stays open until build().
    CASCADE_CHECK(closers_.size() > 1 && closers_.back() == closer);
    out_ += closer;
    closers_.pop_back();
    first_ = false;
    return *this;
}

JsonWriter&
JsonWriter::str(std::string_view value)
{
    separate();
    out_ += '"';
    escape_into(out_, value);
    out_ += '"';
    return *this;
}

JsonWriter&
JsonWriter::num(uint64_t value)
{
    separate();
    out_ += std::to_string(value);
    return *this;
}

JsonWriter&
JsonWriter::num_signed(int64_t value)
{
    separate();
    out_ += std::to_string(value);
    return *this;
}

JsonWriter&
JsonWriter::dbl(double value, const char* format)
{
    separate();
    char buf[64];
    std::snprintf(buf, sizeof buf, format, value);
    out_ += buf;
    return *this;
}

JsonWriter&
JsonWriter::boolean(bool value)
{
    separate();
    out_ += value ? "true" : "false";
    return *this;
}

JsonWriter&
JsonWriter::raw(std::string_view json)
{
    separate();
    out_ += json;
    return *this;
}

JsonWriter&
JsonWriter::begin_object()
{
    separate();
    open('{', '}');
    return *this;
}

JsonWriter&
JsonWriter::begin_array()
{
    separate();
    open('[', ']');
    return *this;
}

std::string
JsonWriter::build() const
{
    return out_ + std::string(closers_.rbegin(), closers_.rend());
}

// ---------------------------------------------------------------------------
// JSON parser

namespace {

struct Parser {
    std::string_view text;
    size_t pos = 0;
    std::string error;

    bool fail(const std::string& msg)
    {
        if (error.empty()) {
            error = msg + " at offset " + std::to_string(pos);
        }
        return false;
    }

    void skip_ws()
    {
        while (pos < text.size() &&
               std::isspace(static_cast<unsigned char>(text[pos]))) {
            ++pos;
        }
    }

    bool literal(const char* word)
    {
        const size_t n = std::strlen(word);
        if (text.compare(pos, n, word) != 0) {
            return fail(std::string("expected '") + word + "'");
        }
        pos += n;
        return true;
    }

    bool parse_string(std::string* out)
    {
        if (pos >= text.size() || text[pos] != '"') {
            return fail("expected string");
        }
        ++pos;
        out->clear();
        while (pos < text.size()) {
            const char c = text[pos];
            if (c == '"') {
                ++pos;
                return true;
            }
            if (c == '\\') {
                if (pos + 1 >= text.size()) {
                    return fail("truncated escape");
                }
                const char e = text[pos + 1];
                pos += 2;
                switch (e) {
                    case '"': *out += '"'; break;
                    case '\\': *out += '\\'; break;
                    case '/': *out += '/'; break;
                    case 'b': *out += '\b'; break;
                    case 'f': *out += '\f'; break;
                    case 'n': *out += '\n'; break;
                    case 'r': *out += '\r'; break;
                    case 't': *out += '\t'; break;
                    case 'u': {
                        if (pos + 4 > text.size()) {
                            return fail("truncated \\u escape");
                        }
                        unsigned cp = 0;
                        for (int i = 0; i < 4; ++i) {
                            const char h = text[pos + i];
                            cp <<= 4;
                            if (h >= '0' && h <= '9') {
                                cp |= h - '0';
                            } else if (h >= 'a' && h <= 'f') {
                                cp |= h - 'a' + 10;
                            } else if (h >= 'A' && h <= 'F') {
                                cp |= h - 'A' + 10;
                            } else {
                                return fail("bad \\u escape");
                            }
                        }
                        pos += 4;
                        // BMP-only UTF-8 encoding; JsonWriter never
                        // emits surrogate pairs (it escapes bytes < 0x20).
                        if (cp < 0x80) {
                            *out += static_cast<char>(cp);
                        } else if (cp < 0x800) {
                            *out += static_cast<char>(0xc0 | (cp >> 6));
                            *out += static_cast<char>(0x80 | (cp & 0x3f));
                        } else {
                            *out += static_cast<char>(0xe0 | (cp >> 12));
                            *out +=
                                static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
                            *out += static_cast<char>(0x80 | (cp & 0x3f));
                        }
                        break;
                    }
                    default:
                        return fail("unknown escape");
                }
                continue;
            }
            *out += c;
            ++pos;
        }
        return fail("unterminated string");
    }

    bool parse_value(JsonValue* out)
    {
        skip_ws();
        if (pos >= text.size()) {
            return fail("unexpected end of input");
        }
        const char c = text[pos];
        if (c == '{') {
            ++pos;
            out->kind = JsonValue::Kind::Object;
            skip_ws();
            if (pos < text.size() && text[pos] == '}') {
                ++pos;
                return true;
            }
            while (true) {
                skip_ws();
                std::string k;
                if (!parse_string(&k)) {
                    return false;
                }
                skip_ws();
                if (pos >= text.size() || text[pos] != ':') {
                    return fail("expected ':'");
                }
                ++pos;
                JsonValue v;
                if (!parse_value(&v)) {
                    return false;
                }
                out->obj.emplace_back(std::move(k), std::move(v));
                skip_ws();
                if (pos < text.size() && text[pos] == ',') {
                    ++pos;
                    continue;
                }
                if (pos < text.size() && text[pos] == '}') {
                    ++pos;
                    return true;
                }
                return fail("expected ',' or '}'");
            }
        }
        if (c == '[') {
            ++pos;
            out->kind = JsonValue::Kind::Array;
            skip_ws();
            if (pos < text.size() && text[pos] == ']') {
                ++pos;
                return true;
            }
            while (true) {
                JsonValue v;
                if (!parse_value(&v)) {
                    return false;
                }
                out->arr.push_back(std::move(v));
                skip_ws();
                if (pos < text.size() && text[pos] == ',') {
                    ++pos;
                    continue;
                }
                if (pos < text.size() && text[pos] == ']') {
                    ++pos;
                    return true;
                }
                return fail("expected ',' or ']'");
            }
        }
        if (c == '"') {
            out->kind = JsonValue::Kind::String;
            return parse_string(&out->str);
        }
        if (c == 't') {
            out->kind = JsonValue::Kind::Bool;
            out->b = true;
            return literal("true");
        }
        if (c == 'f') {
            out->kind = JsonValue::Kind::Bool;
            out->b = false;
            return literal("false");
        }
        if (c == 'n') {
            out->kind = JsonValue::Kind::Null;
            return literal("null");
        }
        // Number.
        const size_t start = pos;
        if (pos < text.size() && (text[pos] == '-' || text[pos] == '+')) {
            ++pos;
        }
        bool integral = true;
        while (pos < text.size() &&
               (std::isdigit(static_cast<unsigned char>(text[pos])) ||
                text[pos] == '.' || text[pos] == 'e' || text[pos] == 'E' ||
                text[pos] == '-' || text[pos] == '+')) {
            if (text[pos] == '.' || text[pos] == 'e' || text[pos] == 'E') {
                integral = false;
            }
            ++pos;
        }
        if (pos == start) {
            return fail("expected value");
        }
        const std::string tok(text.substr(start, pos - start));
        out->kind = JsonValue::Kind::Number;
        out->num = std::strtod(tok.c_str(), nullptr);
        if (integral && tok[0] != '-') {
            out->is_int = true;
            out->u64 = std::strtoull(tok.c_str(), nullptr, 10);
        }
        return true;
    }
};

} // namespace

const JsonValue*
JsonValue::find(const std::string& k) const
{
    if (kind != Kind::Object) {
        return nullptr;
    }
    for (const auto& [key, value] : obj) {
        if (key == k) {
            return &value;
        }
    }
    return nullptr;
}

uint64_t
JsonValue::get_u64(const std::string& k, uint64_t dflt) const
{
    const JsonValue* v = find(k);
    if (v == nullptr || v->kind != Kind::Number) {
        return dflt;
    }
    return v->is_int ? v->u64 : static_cast<uint64_t>(v->num);
}

double
JsonValue::get_num(const std::string& k, double dflt) const
{
    const JsonValue* v = find(k);
    return (v != nullptr && v->kind == Kind::Number) ? v->num : dflt;
}

bool
JsonValue::get_bool(const std::string& k, bool dflt) const
{
    const JsonValue* v = find(k);
    return (v != nullptr && v->kind == Kind::Bool) ? v->b : dflt;
}

std::string
JsonValue::get_str(const std::string& k, const std::string& dflt) const
{
    const JsonValue* v = find(k);
    return (v != nullptr && v->kind == Kind::String) ? v->str : dflt;
}

bool
parse_json(std::string_view text, JsonValue* out, std::string* err)
{
    Parser p{text, 0, {}};
    if (!p.parse_value(out)) {
        if (err != nullptr) {
            *err = p.error;
        }
        return false;
    }
    p.skip_ws();
    if (p.pos != text.size()) {
        if (err != nullptr) {
            *err = "trailing characters at offset " + std::to_string(p.pos);
        }
        return false;
    }
    return true;
}

} // namespace cascade
