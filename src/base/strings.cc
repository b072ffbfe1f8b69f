#include "src/base/strings.h"

#include <cstdarg>
#include <cstdio>

namespace xoar {

std::vector<std::string> SplitPath(std::string_view input, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= input.size()) {
    std::size_t end = input.find(sep, start);
    if (end == std::string_view::npos) {
      end = input.size();
    }
    if (end > start) {
      out.emplace_back(input.substr(start, end - start));
    }
    start = end + 1;
  }
  return out;
}

std::string JoinPath(const std::vector<std::string>& segments, char sep) {
  if (segments.empty()) {
    return std::string(1, sep);
  }
  std::string out;
  for (const auto& segment : segments) {
    out += sep;
    out += segment;
  }
  return out;
}

std::string NormalizePath(std::string_view path) {
  std::string out;
  out.reserve(path.size() + 1);
  for (std::string_view segment : PathSegments(path)) {
    out += '/';
    out += segment;
  }
  if (out.empty()) {
    out.push_back('/');
  }
  return out;
}

bool PathHasPrefix(std::string_view path, std::string_view prefix) {
  // Normalize away trailing separators on the prefix ("/a/" == "/a").
  while (!prefix.empty() && prefix.back() == '/') {
    prefix.remove_suffix(1);
  }
  if (prefix.empty()) {
    return true;
  }
  if (path.substr(0, prefix.size()) != prefix) {
    return false;
  }
  return path.size() == prefix.size() || path[prefix.size()] == '/';
}

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<std::size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

}  // namespace xoar
