// xoar_flow — whole-program call-graph analysis over the tree
// (ANALYSIS.md "Whole-program flow analysis", DESIGN.md §5j). Run by CTest
// on every tier-1 pass, next to the lexical xoar_lint:
//
//   xoar_flow --root <repo> [--json <report.json>] [--quiet] [--strict]
//
// Builds the symbol table + call graph, then runs the three
// interprocedural rules: per-shard hypercall-privilege reachability
// (privilege_flow), derived-vs-declared communication graph (comm_flow),
// and unordered-iteration-into-deterministic-output taint (nondet_flow).
// The JSON report additionally carries the containment metrics
// (src/security interface-graph analyzer) computed over BOTH the declared
// shard DAG and the code-derived communication graph, side by side, and
// is byte-stable for a given tree. Exit codes match xoar_lint:
//
//   0  clean (suppressed findings and warnings only)
//   1  at least one blocking finding
//   2  usage or I/O error
//
// --strict promotes warnings (declared-but-dead communication edges,
// stale xoar-flow suppressions) to blocking findings.
#include <cstdio>
#include <string>
#include <vector>

#include "src/analysis/flow/flow.h"
#include "src/analysis/report.h"
#include "src/analysis/source_tree.h"
#include "src/base/strings.h"
#include "src/security/interface_graph.h"

namespace xoar {
namespace analysis {
namespace {

// Containment recomputation for one edge list via the security module's
// graph analyzer. This tool links analysis AND security; the analysis
// library itself must not (it sits below security in the layering DAG).
flow::GraphStats Containment(const std::string& label,
                             const std::vector<security::InterfaceEdge>& edges) {
  const security::InterfaceGraphStats stats =
      security::AnalyzeInterfaceGraph(edges, "Guest");
  flow::GraphStats out;
  out.label = label;
  out.nodes = stats.nodes;
  out.edges = stats.edges;
  out.attack_surface = stats.attack_surface;
  out.max_reach = stats.max_reach;
  out.mean_reach_milli = stats.mean_reach_milli;
  return out;
}

std::vector<flow::GraphStats> ContainmentSideBySide(
    const flow::FlowConfig& config, const flow::FlowResult& result) {
  std::vector<security::InterfaceEdge> declared;
  for (const flow::DeclaredEdge& edge : config.declared_comm) {
    declared.push_back({edge.from, edge.to, edge.kind});
  }
  std::vector<security::InterfaceEdge> derived;
  for (const flow::CommEdge& edge : result.derived_comm) {
    derived.push_back({edge.from, edge.to, edge.kind});
  }
  return {Containment("declared", declared), Containment("derived", derived)};
}

std::string FormatFlowText(const std::vector<Finding>& findings,
                           const LintSummary& summary) {
  std::string out;
  for (const Finding& finding : findings) {
    out += StrFormat("%s:%d: [%s%s] %s", finding.file.c_str(), finding.line,
                     finding.rule.c_str(),
                     finding.warning && !finding.suppressed ? " warning" : "",
                     finding.message.c_str());
    if (finding.suppressed) {
      out += StrFormat("  [suppressed: %s]", finding.justification.c_str());
    }
    out += "\n";
  }
  out += StrFormat(
      "xoar_flow: %zu file(s) scanned, %zu finding(s) (%zu suppressed, "
      "%zu warning(s), %zu blocking)\n",
      summary.files_scanned, summary.total, summary.suppressed,
      summary.warnings, summary.unsuppressed);
  return out;
}

int Run(const std::string& root, const std::string& json_path, bool quiet,
        bool strict) {
  StatusOr<std::vector<SourceFile>> files = LoadTree(root, DefaultScanDirs());
  if (!files.ok()) {
    std::fprintf(stderr, "xoar_flow: %s\n",
                 files.status().ToString().c_str());
    return 2;
  }
  if (files->empty()) {
    std::fprintf(stderr, "xoar_flow: no sources found under %s\n",
                 root.c_str());
    return 2;
  }
  flow::FlowConfig config = flow::DefaultFlowConfig();
  config.strict = strict;
  const flow::FlowResult result = flow::RunFlow(*files, config);
  const LintSummary summary = Summarize(result.findings, files->size());

  if (!quiet || summary.unsuppressed > 0) {
    std::fputs(FormatFlowText(result.findings, summary).c_str(),
               summary.unsuppressed > 0 ? stderr : stdout);
  }
  if (!json_path.empty()) {
    const Status status = BenchJson::WriteFile(
        json_path, FormatFlowJson(result, summary,
                                  ContainmentSideBySide(config, result),
                                  /*extra_gauges=*/{}));
    if (!status.ok()) {
      std::fprintf(stderr, "xoar_flow: %s\n", status.ToString().c_str());
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
  bool strict = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--root" && i + 1 < argc) {
      root = argv[++i];
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--strict") {
      strict = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--root <dir>] [--json <report.json>] "
                   "[--quiet] [--strict]\n",
                   argv[0]);
      return 2;
    }
  }
  return xoar::analysis::Run(root, json_path, quiet, strict);
}
