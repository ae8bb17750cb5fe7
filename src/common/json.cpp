#include "common/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <system_error>

namespace flaml {

JsonValue JsonValue::make_bool(bool b) {
  JsonValue v;
  v.type = Type::Bool;
  v.boolean = b;
  return v;
}

JsonValue JsonValue::make_number(double x) {
  if (!std::isfinite(x)) throw std::runtime_error("JSON numbers must be finite");
  JsonValue v;
  v.type = Type::Number;
  v.number = x;
  return v;
}

JsonValue JsonValue::make_string(std::string s) {
  JsonValue v;
  v.type = Type::String;
  v.str = std::move(s);
  return v;
}

JsonValue JsonValue::make_array() {
  JsonValue v;
  v.type = Type::Array;
  return v;
}

JsonValue JsonValue::make_object() {
  JsonValue v;
  v.type = Type::Object;
  return v;
}

const JsonValue* JsonValue::find(const std::string& key) const {
  if (type != Type::Object) return nullptr;
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

const JsonValue& JsonValue::at(const std::string& key) const {
  const JsonValue* value = find(key);
  if (value == nullptr) {
    throw std::runtime_error("missing JSON object key '" + key + "'");
  }
  return *value;
}

JsonValue& JsonValue::set(const std::string& key, JsonValue value) {
  if (type != Type::Object) throw std::runtime_error("set() on non-object JSON value");
  for (auto& [k, v] : object) {
    if (k == key) {
      v = std::move(value);
      return v;
    }
  }
  object.emplace_back(key, std::move(value));
  return object.back().second;
}

JsonValue& JsonValue::push(JsonValue value) {
  if (type != Type::Array) throw std::runtime_error("push() on non-array JSON value");
  array.push_back(std::move(value));
  return array.back();
}

namespace {

void dump_string(const std::string& s, std::string& out) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void dump_number(double x, std::string& out) {
  // printf's %.17g in the C locale: enough digits to round-trip, and
  // integral values below 1e17 come out bare ("42", "-0"), as %.0f would
  // print them. std::to_chars with an explicit format and precision is
  // specified as exactly that printf conversion, without its format parsing
  // or locale lookup.
  char buf[32];
  const std::to_chars_result r =
      std::to_chars(buf, buf + sizeof(buf), x, std::chars_format::general, 17);
  out.append(buf, r.ptr);
}

void dump_value_compact(const JsonValue& v, std::string& out) {
  switch (v.type) {
    case JsonValue::Type::Null: out += "null"; break;
    case JsonValue::Type::Bool: out += v.boolean ? "true" : "false"; break;
    case JsonValue::Type::Number: dump_number(v.number, out); break;
    case JsonValue::Type::String: dump_string(v.str, out); break;
    case JsonValue::Type::Array: {
      out += '[';
      for (std::size_t i = 0; i < v.array.size(); ++i) {
        if (i > 0) out += ',';
        dump_value_compact(v.array[i], out);
      }
      out += ']';
      break;
    }
    case JsonValue::Type::Object: {
      out += '{';
      for (std::size_t i = 0; i < v.object.size(); ++i) {
        if (i > 0) out += ',';
        dump_string(v.object[i].first, out);
        out += ':';
        dump_value_compact(v.object[i].second, out);
      }
      out += '}';
      break;
    }
  }
}

void dump_value(const JsonValue& v, int depth, std::string& out) {
  const std::string pad(static_cast<std::size_t>(depth) * 2, ' ');
  const std::string pad_in(static_cast<std::size_t>(depth + 1) * 2, ' ');
  switch (v.type) {
    case JsonValue::Type::Null: out += "null"; break;
    case JsonValue::Type::Bool: out += v.boolean ? "true" : "false"; break;
    case JsonValue::Type::Number: dump_number(v.number, out); break;
    case JsonValue::Type::String: dump_string(v.str, out); break;
    case JsonValue::Type::Array: {
      if (v.array.empty()) {
        out += "[]";
        break;
      }
      out += "[\n";
      for (std::size_t i = 0; i < v.array.size(); ++i) {
        out += pad_in;
        dump_value(v.array[i], depth + 1, out);
        if (i + 1 < v.array.size()) out += ',';
        out += '\n';
      }
      out += pad + "]";
      break;
    }
    case JsonValue::Type::Object: {
      if (v.object.empty()) {
        out += "{}";
        break;
      }
      out += "{\n";
      for (std::size_t i = 0; i < v.object.size(); ++i) {
        out += pad_in;
        dump_string(v.object[i].first, out);
        out += ": ";
        dump_value(v.object[i].second, depth + 1, out);
        if (i + 1 < v.object.size()) out += ',';
        out += '\n';
      }
      out += pad + "}";
      break;
    }
  }
}

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after JSON document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("JSON parse error at offset " + std::to_string(pos_) +
                             ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    std::size_t len = 0;
    while (lit[len] != '\0') ++len;
    if (text_.compare(pos_, len, lit) != 0) return false;
    pos_ += len;
    return true;
  }

  JsonValue parse_value() {
    skip_ws();
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return JsonValue::make_string(parse_string());
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        return JsonValue::make_bool(true);
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        return JsonValue::make_bool(false);
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return JsonValue::make_null();
      default: return parse_number();
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) fail("unterminated escape");
        char e = text_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') code += static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code += static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code += static_cast<unsigned>(h - 'A' + 10);
              else fail("bad \\u escape digit");
            }
            // ASCII only (all the benches emit); others are replaced.
            out += code < 0x80 ? static_cast<char>(code) : '?';
            break;
          }
          default: fail("unknown escape");
        }
      } else {
        out += c;
      }
    }
  }

  // The token is [-]{digit . e E + -}*. std::from_chars converts it in
  // place; it rounds exactly like strtod, but rejects a leading '+' and
  // reports out-of-range values as errors. Any token it does not convert
  // completely therefore takes the strtod path, which keeps the accepted
  // set, the values and the error messages unchanged.
  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (!((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
            c == '+' || c == '-')) {
        break;
      }
      ++pos_;
    }
    if (pos_ == start) fail("expected a value");
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    double x = 0.0;
    const std::from_chars_result r = std::from_chars(first, last, x);
    if (r.ec == std::errc{} && r.ptr == last) return JsonValue::make_number(x);
    char* end = nullptr;
    const std::string token(first, last);
    x = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') fail("malformed number '" + token + "'");
    return JsonValue::make_number(x);
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue v = JsonValue::make_array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    // A first capacity of 8 skips the 1-2-4 growth steps, each of which
    // moves every element already parsed (a prediction row has ~14 cells).
    v.array.reserve(8);
    for (;;) {
      v.array.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue v = JsonValue::make_object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.object.emplace_back(std::move(key), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

std::string dump_json(const JsonValue& value) {
  std::string out;
  dump_value(value, 0, out);
  out += '\n';
  return out;
}

std::string dump_json_compact(const JsonValue& value) {
  std::string out;
  dump_value_compact(value, out);
  return out;
}

JsonValue parse_json(const std::string& text) {
  return Parser(text).parse_document();
}

}  // namespace flaml
