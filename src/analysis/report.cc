#include "src/analysis/report.h"

#include <map>

#include "src/base/strings.h"

namespace xoar {
namespace analysis {

LintSummary Summarize(const std::vector<Finding>& findings,
                      std::size_t files_scanned) {
  LintSummary summary;
  summary.files_scanned = files_scanned;
  summary.total = findings.size();
  for (const Finding& finding : findings) {
    if (finding.suppressed) {
      ++summary.suppressed;
    } else if (finding.warning) {
      ++summary.warnings;
    } else {
      ++summary.unsuppressed;
    }
  }
  return summary;
}

std::string FormatText(const std::vector<Finding>& findings,
                       const LintSummary& summary) {
  std::string out;
  for (const Finding& finding : findings) {
    out += StrFormat("%s:%d: [%s%s] %s", finding.file.c_str(), finding.line,
                     finding.rule.c_str(),
                     finding.warning && !finding.suppressed ? " warning" : "",
                     finding.message.c_str());
    if (finding.suppressed) {
      out += StrFormat("  [suppressed: %s]",
                       finding.justification.c_str());
    }
    out += "\n";
  }
  out += StrFormat(
      "xoar_lint: %zu file(s) scanned, %zu finding(s) (%zu suppressed, "
      "%zu warning(s), %zu blocking)\n",
      summary.files_scanned, summary.total, summary.suppressed,
      summary.warnings, summary.unsuppressed);
  return out;
}

std::string FormatJson(const std::vector<Finding>& findings,
                       const LintSummary& summary) {
  // Per-rule counts cover every suppressible rule plus "suppression", even
  // when zero, so the schema checker can rely on their presence.
  std::map<std::string, std::size_t> per_rule;
  for (const std::string& rule : SuppressibleRules()) {
    per_rule[rule] = 0;
  }
  per_rule["suppression"] = 0;
  for (const Finding& finding : findings) {
    if (!finding.suppressed && !finding.warning) {
      ++per_rule[finding.rule];
    }
  }

  BenchJson json("xoar_lint", 0);
  json.AddMetric("lint.files_scanned", "gauge", summary.files_scanned);
  for (const auto& [rule, count] : per_rule) {
    json.AddMetric("lint.findings." + rule, "counter", count);
  }
  json.AddMetric("lint.findings.total", "counter", summary.unsuppressed);
  json.AddMetric("lint.suppressed.total", "counter", summary.suppressed);
  json.AddMetric("lint.warnings.total", "counter", summary.warnings);
  AddFindingsArray(findings, &json);
  return json.Finish();
}

void AddFindingsArray(const std::vector<Finding>& findings, BenchJson* json) {
  json->BeginArray("findings");
  for (const Finding& f : findings) {
    json->AddRow(StrFormat(
        "{\"rule\": %s, \"file\": %s, \"line\": %d, \"message\": %s, "
        "\"suppressed\": %s, \"warning\": %s, \"justification\": %s}",
        JsonQuote(f.rule).c_str(), JsonQuote(f.file).c_str(), f.line,
        JsonQuote(f.message).c_str(), f.suppressed ? "true" : "false",
        f.warning ? "true" : "false", JsonQuote(f.justification).c_str()));
  }
}

}  // namespace analysis
}  // namespace xoar
