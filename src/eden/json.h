// Minimal JSON utilities for the observability surfaces.
//
// The kernel's export formats (metrics snapshots, Chrome trace events, bench
// result files) are all JSON; this is the one place that knows how to escape
// strings, render a Value as *strict* JSON (Value::ToString is only
// JSON-flavoured: nil, UIDs and bytes are not legal JSON there), and parse a
// document back, without a third-party JSON dependency. One recursive-descent
// parser serves both bench_compare's reads and the well-formedness checks
// with which tests assert "this output loads in Perfetto".
#ifndef SRC_EDEN_JSON_H_
#define SRC_EDEN_JSON_H_

#include <optional>
#include <string>
#include <string_view>

#include "src/eden/value.h"

namespace eden {

// Escapes `s` for inclusion inside a JSON string literal (no quotes added).
std::string JsonEscape(std::string_view s);

// Renders a Value as strict JSON: nil -> null, bytes -> base-less hex string,
// UID -> its "eden:..." string form, maps keep their (sorted) key order.
std::string ValueToJson(const Value& value);

// Validates that `text` is one well-formed JSON document (RFC 8259 syntax):
// whether JsonParse accepts it. On failure returns false and, if `error` is
// non-null, sets a short message with the byte offset of the problem.
bool JsonValidate(std::string_view text, std::string* error = nullptr);

// Parses one JSON document into a Value (the inverse of ValueToJson, modulo
// the lossy encodings: null -> nil, numbers without fraction/exponent ->
// Int, others -> Real; UIDs and bytes come back as strings). Exists so
// bench_compare can read BENCH_*.json files without a third-party JSON
// dependency. Returns nullopt on malformed input, with JsonValidate's
// diagnostics via `error`.
std::optional<Value> JsonParse(std::string_view text,
                               std::string* error = nullptr);

}  // namespace eden

#endif  // SRC_EDEN_JSON_H_
