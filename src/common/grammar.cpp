#include "common/grammar.hpp"

#include <cstdio>
#include <cstdlib>

namespace ssm {

std::vector<std::string_view> split(std::string_view s, char sep) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    std::size_t at = s.find(sep, start);
    if (at == std::string_view::npos) at = s.size();
    if (at > start) out.push_back(s.substr(start, at - start));
    start = at + 1;
  }
  return out;
}

std::string_view trim(std::string_view s) noexcept {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t'))
    s.remove_prefix(1);
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t'))
    s.remove_suffix(1);
  return s;
}

std::optional<double> toDouble(std::string_view token) {
  const std::string s(token);
  char* end = nullptr;
  const double d = std::strtod(s.c_str(), &end);
  if (end == s.c_str() || *end != '\0') return std::nullopt;
  return d;
}

std::optional<std::int64_t> toInt64(std::string_view token) {
  const std::string s(token);
  char* end = nullptr;
  const std::int64_t i = std::strtoll(s.c_str(), &end, 10);
  if (end == s.c_str() || *end != '\0') return std::nullopt;
  return i;
}

std::string formatDouble(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace ssm
