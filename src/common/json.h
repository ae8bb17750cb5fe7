// Minimal JSON value, writer and recursive-descent parser. It is the line
// wire format of both daemons (the search daemon's SearchService and the
// prediction daemon's PredictService), the checkpoint payload
// (src/resume), the observability layer's JSONL traces and run summaries,
// and the bench binaries' machine-readable results (BENCH_*.json).
// Supports the subset those need: null, bool, finite numbers, strings,
// arrays, objects (insertion-ordered). Parsing throws std::runtime_error
// with an offset on malformed input, which is what --check relies on.
//
// Number contract (pinned by tests/test_json.cpp against the C library):
//   - Printing gives exactly the bytes of printf "%.17g" in the C locale,
//     so doubles round-trip and integral values below 1e15 print bare,
//     as "%.0f" would ("42", "-0").
//   - Parsing a token gives exactly the bits strtod gives for it, and
//     accepts exactly what strtod accepts of the token [-]{0-9 . e E + -}*
//     (a leading '+' included), except that non-finite results (1e400)
//     are rejected. Underflow gives zero or a subnormal, as strtod does.
#pragma once

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace flaml {

struct JsonValue {
  enum class Type { Null, Bool, Number, String, Array, Object };

  Type type = Type::Null;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  static JsonValue make_null() { return JsonValue{}; }
  static JsonValue make_bool(bool b);
  static JsonValue make_number(double x);
  static JsonValue make_string(std::string s);
  static JsonValue make_array();
  static JsonValue make_object();

  bool is_null() const { return type == Type::Null; }
  bool is_bool() const { return type == Type::Bool; }
  bool is_number() const { return type == Type::Number; }
  bool is_string() const { return type == Type::String; }
  bool is_array() const { return type == Type::Array; }
  bool is_object() const { return type == Type::Object; }

  // Object lookup; nullptr when absent or not an object.
  const JsonValue* find(const std::string& key) const;
  // Object lookup; throws std::runtime_error when absent or not an object.
  const JsonValue& at(const std::string& key) const;
  // Append/overwrite a key (object) — returns the stored value.
  JsonValue& set(const std::string& key, JsonValue value);
  // Append to an array — returns the stored value.
  JsonValue& push(JsonValue value);
};

// Serialize with 2-space indentation and a trailing '\n'; numbers print as
// "%.17g" (see the number contract above).
std::string dump_json(const JsonValue& value);

// Serialize on a single line with no whitespace (the JSONL form the trace
// sinks write: one event per line). No trailing newline.
std::string dump_json_compact(const JsonValue& value);

// Parse a complete JSON document (trailing whitespace allowed). Throws
// std::runtime_error on any syntax error.
JsonValue parse_json(const std::string& text);

}  // namespace flaml

namespace flaml::bench {
// The benches predate the promotion of this header from bench/ to
// src/common/; keep their flaml::bench::JsonValue spelling working.
using flaml::JsonValue;
using flaml::dump_json;
using flaml::dump_json_compact;
using flaml::parse_json;
}  // namespace flaml::bench
