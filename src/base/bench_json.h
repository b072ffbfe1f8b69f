// The one writer for the BENCH_*.json report family: a top-level
// "context" object, a "benchmarks" array of named metrics, and optional
// extra top-level arrays (a lint report's "findings", a density sweep's
// "sweep"):
//
//   {
//     "context": {"executable": <name>, "sim_time_ns": N},
//     "benchmarks": [
//       {"name": <metric>, "run_type": "counter"|"gauge"|"histogram", ...},
//       ...
//     ],
//     "<array>": [{...}, ...]
//   }
//
// The metric registry export, the xoar_lint and xoar_flow reports and the
// density sweep all build their documents here, so every report shares one
// layout and one string escaper, and reaches disk through one call
// (BenchJson::WriteFile), which xoar_flow's nondeterminism-taint rule
// treats as a deterministic-output sink. Output is a pure function of the
// calls made: nothing host- or time-dependent is added.
#ifndef XOAR_SRC_BASE_BENCH_JSON_H_
#define XOAR_SRC_BASE_BENCH_JSON_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "src/base/status.h"

namespace xoar {

// Appends `s` to `out` as a quoted JSON string: quotes, backslashes and
// control characters are escaped; other bytes pass through unchanged.
void AppendJsonString(std::string* out, std::string_view s);

// `s` as a quoted JSON string (AppendJsonString into a fresh string).
std::string JsonQuote(std::string_view s);

class BenchJson {
 public:
  // Writes the "context" object and opens the "benchmarks" array.
  BenchJson(std::string_view executable, std::uint64_t sim_time_ns);

  // One "benchmarks" entry, {"name": <name>, "run_type": <run_type>,
  // <fields>}, where `fields` is the rest of the object's members as JSON
  // text. Call these before the first BeginArray.
  void AddMetricFields(std::string_view name, std::string_view run_type,
                       std::string_view fields);
  // The common case: {"name": ..., "run_type": ..., "value": <value>}.
  void AddMetric(std::string_view name, std::string_view run_type,
                 std::uint64_t value);

  // Closes the array being filled and opens the top-level array `key`.
  void BeginArray(std::string_view key);
  // Appends one JSON object, given as text, to the array opened last.
  void AddRow(std::string_view row);

  // Closes the document and returns it. The writer is spent afterwards.
  std::string Finish();

  // Writes a finished document to `path`, replacing any existing file.
  static Status WriteFile(const std::string& path, std::string_view json);

 private:
  void CloseArray();

  std::string out_;
  std::size_t rows_ = 0;  // entries in the array being filled
};

}  // namespace xoar

#endif  // XOAR_SRC_BASE_BENCH_JSON_H_
