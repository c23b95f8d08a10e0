#include "common/strings.h"

#include <algorithm>
#include <charconv>
#include <cstdarg>
#include <cstdio>

namespace aladdin {

std::string_view Trim(std::string_view s) {
  auto is_space = [](char c) {
    return c == ' ' || c == '\t' || c == '\r' || c == '\n' || c == '\f' ||
           c == '\v';
  };
  while (!s.empty() && is_space(s.front())) s.remove_prefix(1);
  while (!s.empty() && is_space(s.back())) s.remove_suffix(1);
  return s;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool ParseInt64(std::string_view s, std::int64_t& out) {
  s = Trim(s);
  if (s.empty()) return false;
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  return ec == std::errc{} && ptr == s.data() + s.size();
}

bool ParseDouble(std::string_view s, double& out) {
  s = Trim(s);
  if (s.empty()) return false;
  // std::from_chars<double> is available in GCC 11+; use it directly.
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  return ec == std::errc{} && ptr == s.data() + s.size();
}

std::string WithThousands(std::int64_t v) {
  const bool neg = v < 0;
  std::string digits = std::to_string(neg ? -v : v);
  std::string out;
  out.reserve(digits.size() + digits.size() / 3 + 1);
  const std::size_t n = digits.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (i != 0 && (n - i) % 3 == 0) out.push_back(',');
    out.push_back(digits[i]);
  }
  return neg ? "-" + out : out;
}

std::string FormatFixed(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
  return buf;
}

void AppendF(std::string& out, const char* format, ...) {
  char buf[320];
  va_list args;
  va_start(args, format);
  const int n = std::vsnprintf(buf, sizeof(buf), format, args);
  va_end(args);
  if (n > 0) {
    out.append(buf, std::min(static_cast<std::size_t>(n), sizeof(buf) - 1));
  }
}

void AppendJsonEscaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          AppendF(out, "\\u%04x", static_cast<unsigned>(c));
        } else {
          out += c;
        }
    }
  }
}

}  // namespace aladdin
