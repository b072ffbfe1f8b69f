// xoar_lint — build-time enforcement of Xoar's architectural invariants
// (ANALYSIS.md, DESIGN.md §5e). Run by CTest on every tier-1 pass:
//
//   xoar_lint --root <repo> [--json <report.json>] [--quiet]
//             [--lenient-audit] [--strict]
//
// Scans src/, tools/, examples/ and bench/ under --root and enforces the
// four rule families (layering, privilege, determinism, audit) plus the
// suppression contract. Exit codes:
//
//   0  clean (suppressed findings only)
//   1  at least one unsuppressed finding
//   2  usage or I/O error
//
// --lenient-audit drops the "audited operation not found anywhere" check,
// for fixture trees that only contain a slice of the platform. --strict
// promotes warnings (stale suppression comments) to blocking findings.
#include <cstdio>
#include <cstring>
#include <string>

#include "src/analysis/report.h"
#include "src/analysis/rules.h"
#include "src/analysis/source_tree.h"

namespace xoar {
namespace analysis {
namespace {

int Run(const std::string& root, const std::string& json_path, bool quiet,
        bool lenient_audit, bool strict) {
  StatusOr<std::vector<SourceFile>> files = LoadTree(root, DefaultScanDirs());
  if (!files.ok()) {
    std::fprintf(stderr, "xoar_lint: %s\n",
                 files.status().ToString().c_str());
    return 2;
  }
  if (files->empty()) {
    std::fprintf(stderr, "xoar_lint: no sources found under %s\n",
                 root.c_str());
    return 2;
  }
  LintConfig config = DefaultConfig();
  if (lenient_audit) {
    config.require_audited_op_definitions = false;
  }
  config.strict = strict;
  const std::vector<Finding> findings = RunLint(*files, config);
  const LintSummary summary = Summarize(findings, files->size());

  if (!quiet || summary.unsuppressed > 0) {
    std::fputs(FormatText(findings, summary).c_str(),
               summary.unsuppressed > 0 ? stderr : stdout);
  }
  if (!json_path.empty()) {
    const Status status =
        BenchJson::WriteFile(json_path, FormatJson(findings, summary));
    if (!status.ok()) {
      std::fprintf(stderr, "xoar_lint: %s\n", status.ToString().c_str());
      return 2;
    }
  }
  return summary.unsuppressed > 0 ? 1 : 0;
}

}  // namespace
}  // namespace analysis
}  // namespace xoar

int main(int argc, char** argv) {
  std::string root = ".";
  std::string json_path;
  bool quiet = false;
  bool lenient_audit = false;
  bool strict = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--root" && i + 1 < argc) {
      root = argv[++i];
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--lenient-audit") {
      lenient_audit = true;
    } else if (arg == "--strict") {
      strict = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--root <dir>] [--json <report.json>] "
                   "[--quiet] [--lenient-audit] [--strict]\n",
                   argv[0]);
      return 2;
    }
  }
  return xoar::analysis::Run(root, json_path, quiet, lenient_audit, strict);
}
