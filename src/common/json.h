/// \file
/// JSON string escaping shared by every layer that writes JSON by hand
/// (telemetry exports, the journal, the structured logger). Lives in
/// common, at the bottom of the dependency graph, so the logger and the
/// telemetry writers use one escaper.

#ifndef CASCADE_COMMON_JSON_H
#define CASCADE_COMMON_JSON_H

#include <string>

namespace cascade {

/// Escapes a string for embedding in JSON (quotes not included).
std::string json_escape(const std::string& s);

} // namespace cascade

#endif // CASCADE_COMMON_JSON_H
