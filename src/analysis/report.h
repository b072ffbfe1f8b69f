// Rendering for xoar_lint findings: human-readable text and the stable
// BENCH_*-style JSON report that tools/validate_obs --lint schema-checks.
//
// JSON shape (deliberately the same top level as every BENCH_*.json so the
// existing tooling can parse it):
//
//   {
//     "context": {"executable": "xoar_lint", "sim_time_ns": 0, ...},
//     "benchmarks": [
//       {"name": "lint.files_scanned", "run_type": "gauge", "value": N},
//       {"name": "lint.findings.<rule>", "run_type": "counter", ...},
//       {"name": "lint.findings.total", ...},
//       {"name": "lint.suppressed.total", ...}
//     ],
//     "findings": [
//       {"rule": ..., "file": ..., "line": ..., "message": ...,
//        "suppressed": bool, "justification": ...}, ...
//     ]
//   }
//
// Reports are byte-stable for a given tree: the findings arrive sorted and
// nothing time- or environment-dependent is written (the linter itself must
// pass its own determinism rule).
#ifndef XOAR_SRC_ANALYSIS_REPORT_H_
#define XOAR_SRC_ANALYSIS_REPORT_H_

#include <cstddef>
#include <string>
#include <vector>

#include "src/analysis/rules.h"
#include "src/base/bench_json.h"

namespace xoar {
namespace analysis {

struct LintSummary {
  std::size_t files_scanned = 0;
  std::size_t total = 0;        // every finding, suppressed or not
  std::size_t unsuppressed = 0;  // blocking: neither suppressed nor warning
  std::size_t suppressed = 0;
  std::size_t warnings = 0;      // reported but not build-failing
};

LintSummary Summarize(const std::vector<Finding>& findings,
                      std::size_t files_scanned);

// One line per finding plus a trailing summary line.
std::string FormatText(const std::vector<Finding>& findings,
                       const LintSummary& summary);

// The BENCH-style JSON document described above.
std::string FormatJson(const std::vector<Finding>& findings,
                       const LintSummary& summary);

// Appends the "findings" array (one object per finding, in order) to a
// report; shared with the flow report formatter.
void AddFindingsArray(const std::vector<Finding>& findings, BenchJson* json);

}  // namespace analysis
}  // namespace xoar

#endif  // XOAR_SRC_ANALYSIS_REPORT_H_
