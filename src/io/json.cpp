#include "io/json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <utility>

namespace divpp::io {

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string json_quote(const std::string& value) {
  std::string out;
  out.reserve(value.size() + 2);
  out.push_back('"');
  for (const char c : value) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(c));
          out += buffer;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

namespace {

int hex_digit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

[[noreturn]] void record_error(std::string_view context,
                               const std::string& what) {
  throw std::invalid_argument(std::string(context) + ": " + what);
}

}  // namespace

std::string json_unquote(std::string_view quoted) {
  if (quoted.size() < 2 || quoted.front() != '"' || quoted.back() != '"')
    throw std::invalid_argument("json_unquote: not a quoted string");
  std::string out;
  out.reserve(quoted.size() - 2);
  std::size_t i = 1;
  const std::size_t end = quoted.size() - 1;
  while (i < end) {
    const char c = quoted[i];
    if (c != '\\') {
      if (c == '"')
        throw std::invalid_argument("json_unquote: unescaped quote");
      if (static_cast<unsigned char>(c) < 0x20)
        throw std::invalid_argument("json_unquote: raw control character");
      out.push_back(c);
      ++i;
      continue;
    }
    if (i + 1 >= end)
      throw std::invalid_argument("json_unquote: dangling escape");
    const char escape = quoted[i + 1];
    i += 2;
    switch (escape) {
      case '"': out.push_back('"'); break;
      case '\\': out.push_back('\\'); break;
      case '/': out.push_back('/'); break;
      case 'n': out.push_back('\n'); break;
      case 'r': out.push_back('\r'); break;
      case 't': out.push_back('\t'); break;
      case 'b': out.push_back('\b'); break;
      case 'f': out.push_back('\f'); break;
      case 'u': {
        if (i + 4 > end)
          throw std::invalid_argument("json_unquote: truncated \\u escape");
        unsigned code = 0;
        for (int d = 0; d < 4; ++d) {
          const int v = hex_digit(quoted[i + static_cast<std::size_t>(d)]);
          if (v < 0)
            throw std::invalid_argument("json_unquote: bad \\u hex digit");
          code = code * 16 + static_cast<unsigned>(v);
        }
        if (code > 0xFF)
          throw std::invalid_argument(
              "json_unquote: \\u escape above 0x00FF is unsupported (the "
              "writer round-trips bytes, not code points)");
        out.push_back(static_cast<char>(code));
        i += 4;
        break;
      }
      default:
        throw std::invalid_argument("json_unquote: unknown escape");
    }
  }
  return out;
}

std::string hex_double(double value) {
  char buffer[48];
  std::snprintf(buffer, sizeof buffer, "%a", value);
  return buffer;
}

double parse_hex_double(const std::string& token, std::string_view context) {
  char* end = nullptr;
  const double value = std::strtod(token.c_str(), &end);
  if (end == nullptr || end == token.c_str() || *end != '\0')
    record_error(context, "bad double '" + token + "'");
  return value;
}

void skip_spaces(std::string_view line, std::size_t& pos) {
  while (pos < line.size() && line[pos] == ' ') ++pos;
}

std::string scan_token(std::string_view line, std::size_t& pos,
                       std::string_view context) {
  skip_spaces(line, pos);
  const std::size_t begin = pos;
  while (pos < line.size() && line[pos] != ' ') ++pos;
  if (begin == pos) record_error(context, "truncated record");
  return std::string(line.substr(begin, pos - begin));
}

std::string scan_quoted(std::string_view line, std::size_t& pos,
                        std::string_view context) {
  skip_spaces(line, pos);
  if (pos >= line.size() || line[pos] != '"')
    record_error(context, "expected a quoted string");
  std::size_t end = pos + 1;
  while (end < line.size() && line[end] != '"') {
    if (line[end] == '\\') ++end;  // skip the escaped character
    ++end;
  }
  if (end >= line.size()) record_error(context, "unterminated quoted string");
  const std::string_view raw = line.substr(pos, end - pos + 1);
  pos = end + 1;
  return json_unquote(raw);
}

Json& Json::set_raw(const std::string& key, std::string rendered) {
  members_.emplace_back(key, std::move(rendered));
  return *this;
}

Json& Json::set(const std::string& key, double value) {
  return set_raw(key, json_number(value));
}

Json& Json::set(const std::string& key, std::int64_t value) {
  return set_raw(key, std::to_string(value));
}

Json& Json::set(const std::string& key, int value) {
  return set(key, static_cast<std::int64_t>(value));
}

Json& Json::set(const std::string& key, bool value) {
  return set_raw(key, value ? "true" : "false");
}

Json& Json::set(const std::string& key, const char* value) {
  return set_raw(key, json_quote(value));
}

Json& Json::set(const std::string& key, const std::string& value) {
  return set_raw(key, json_quote(value));
}

Json& Json::set(const std::string& key, const Json& child) {
  return set_raw(key, child.to_string());
}

Json& Json::set(const std::string& key, std::span<const double> values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out.push_back(',');
    out += json_number(values[i]);
  }
  out.push_back(']');
  return set_raw(key, std::move(out));
}

Json& Json::set(const std::string& key,
                std::span<const std::int64_t> values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out.push_back(',');
    out += std::to_string(values[i]);
  }
  out.push_back(']');
  return set_raw(key, std::move(out));
}

std::string Json::to_string() const {
  std::string out = "{";
  for (std::size_t i = 0; i < members_.size(); ++i) {
    if (i > 0) out.push_back(',');
    out += json_quote(members_[i].first);
    out.push_back(':');
    out += members_[i].second;
  }
  out.push_back('}');
  return out;
}

}  // namespace divpp::io
