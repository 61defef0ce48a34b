/// \file
/// The one JSON module: JsonWriter serializes every document the system
/// emits (stats, profile and debug snapshots, telemetry exports, journal
/// lines, crash dumps, bench results), and parse_json reads documents
/// back (journal replay, tests). Lives in common, at the bottom of the
/// dependency graph, so every layer writes JSON the same way.

#ifndef CASCADE_COMMON_JSON_H
#define CASCADE_COMMON_JSON_H

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace cascade {

/// Escapes a string for embedding in JSON (quotes not included).
std::string json_escape(std::string_view s);

/// Incremental builder for one JSON document with insertion-ordered keys.
/// The root is an object (or an array, by constructor); keyed calls add
/// members to the innermost open object, unkeyed calls add elements to
/// the innermost open array, and commas go in automatically. Keys and
/// string values are escaped. Journal payloads are built with this:
/// replay compares the raw payload text of recorded vs. re-executed
/// events, so the serialization itself is part of the schema.
class JsonWriter {
  public:
    enum class Root { Object, Array };

    explicit JsonWriter(Root root = Root::Object);

    /// @{ Elements of the enclosing array.
    JsonWriter& str(std::string_view value);
    JsonWriter& num(uint64_t value);
    JsonWriter& num_signed(int64_t value);
    /// \p format is a printf conversion for one double. The default
    /// %.17g is enough digits that a parse -> re-print round trip is
    /// exact (options headers survive replay re-recording).
    JsonWriter& dbl(double value, const char* format = "%.17g");
    JsonWriter& boolean(bool value);
    /// Pre-serialized JSON (objects/arrays) embedded verbatim.
    JsonWriter& raw(std::string_view json);
    JsonWriter& begin_object();
    JsonWriter& begin_array();
    /// @}

    /// @{ The same, as members of the enclosing object.
    using Key = std::string_view;
    JsonWriter& str(Key k, std::string_view v) { return key(k).str(v); }
    JsonWriter& num(Key k, uint64_t v) { return key(k).num(v); }
    JsonWriter& num_signed(Key k, int64_t v) { return key(k).num_signed(v); }
    JsonWriter& boolean(Key k, bool v) { return key(k).boolean(v); }
    JsonWriter& raw(Key k, std::string_view json) { return key(k).raw(json); }
    JsonWriter& begin_object(Key k) { return key(k).begin_object(); }
    JsonWriter& begin_array(Key k) { return key(k).begin_array(); }
    JsonWriter&
    dbl(Key k, double v, const char* format = "%.17g")
    {
        return key(k).dbl(v, format);
    }
    /// @}

    JsonWriter& end_object() { return close('}'); }
    JsonWriter& end_array() { return close(']'); }

    /// The document so far, with every open container closed.
    std::string build() const;

  private:
    void separate();
    JsonWriter& key(Key k);
    void open(char bracket, char closer);
    JsonWriter& close(char closer);

    std::string out_;
    std::string closers_; ///< of the open containers, innermost last
    bool first_ = true;   ///< innermost container has no entries yet
    bool keyed_ = false;  ///< a member key awaits its value
};

/// A parsed JSON value (what load_journal and tests read documents back
/// with). Minimal by design: objects keep insertion order, integers that
/// fit uint64 are preserved exactly.
struct JsonValue {
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Kind kind = Kind::Null;
    bool b = false;
    double num = 0;
    bool is_int = false;   ///< no '.', 'e', or '-' mantissa loss
    uint64_t u64 = 0;      ///< exact value when is_int
    std::string str;
    std::vector<JsonValue> arr;
    std::vector<std::pair<std::string, JsonValue>> obj;

    /// Object member lookup (nullptr when absent or not an object).
    const JsonValue* find(const std::string& k) const;
    /// Convenience accessors with defaults for absent/mistyped members.
    uint64_t get_u64(const std::string& k, uint64_t dflt = 0) const;
    double get_num(const std::string& k, double dflt = 0) const;
    bool get_bool(const std::string& k, bool dflt = false) const;
    std::string get_str(const std::string& k,
                        const std::string& dflt = "") const;
};

/// Parses one JSON document. Returns false (with *err) on malformed input.
bool parse_json(std::string_view text, JsonValue* out,
                std::string* err = nullptr);

} // namespace cascade

#endif // CASCADE_COMMON_JSON_H
