// Small string utilities shared across modules (path handling for XenStore,
// printf-style formatting for reports).
#ifndef XOAR_SRC_BASE_STRINGS_H_
#define XOAR_SRC_BASE_STRINGS_H_

#include <algorithm>
#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace xoar {

// Splits `input` on `sep`, dropping empty segments ("/a//b" -> {"a","b"}).
std::vector<std::string> SplitPath(std::string_view input, char sep = '/');

// Joins segments with `sep`, prefixing with a leading separator.
std::string JoinPath(const std::vector<std::string>& segments, char sep = '/');

// The segments SplitPath(path) returns, as views into `path`, so a walk
// over them allocates nothing:
//   for (std::string_view segment : PathSegments(path)) { ... }
class PathSegments {
 public:
  class Iterator {
   public:
    Iterator(std::string_view path, std::size_t pos) : path_(path) {
      Seek(pos);
    }
    std::string_view operator*() const {
      return path_.substr(begin_, end_ - begin_);
    }
    Iterator& operator++() {
      Seek(end_);
      return *this;
    }
    bool operator!=(const Iterator& other) const {
      return begin_ != other.begin_;
    }

   private:
    // Skips separators from `pos` to the next segment and finds its end.
    void Seek(std::size_t pos) {
      begin_ = std::min(path_.find_first_not_of('/', pos), path_.size());
      end_ = std::min(path_.find('/', begin_), path_.size());
    }

    std::string_view path_;
    std::size_t begin_ = 0;
    std::size_t end_ = 0;
  };

  explicit PathSegments(std::string_view path) : path_(path) {}
  Iterator begin() const { return Iterator(path_, 0); }
  Iterator end() const { return Iterator(path_, path_.size()); }

 private:
  std::string_view path_;
};

// JoinPath(SplitPath(path)) in one pass: "//a//b/" -> "/a/b", "" -> "/".
std::string NormalizePath(std::string_view path);

// True if `path` equals `prefix` or is a descendant of it ("/a/b" has prefix
// "/a" but not "/ab").
bool PathHasPrefix(std::string_view path, std::string_view prefix);

// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace xoar

#endif  // XOAR_SRC_BASE_STRINGS_H_
