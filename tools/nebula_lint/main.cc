// nebula_lint v3 driver — see lint.h for the pass catalog.
//
// Usage:
//   nebula_lint --root <repo> [--baseline <file>] [--update-baseline]
//               [--json <file>] [--timings]
//       All passes over src/, tools/, tests/. Findings whose baseline key
//       appears in the baseline file are suppressed — EXCEPT [layer-dag],
//       [include-cycle], the four concurrency rules
//       ([lock-rank-missing], [lock-rank-unknown], [lock-order],
//       [guarded-coverage]), and the three dataflow rules ([sql-taint],
//       [unordered-iteration], [unchecked-io]), which are never
//       baselinable: the layer DAG, the lock-rank DAG, and the SQL/IO
//       contracts hold everywhere, always. --update-baseline rewrites the
//       nebula_lint-owned entries of the baseline file in place (lines
//       owned by other tools, e.g. clang-tidy via run_lint.sh, are kept).
//       --timings prints per-pass wall-clock to stdout.
//   nebula_lint --src <dir> [--json <file>]
//       v1-compatible: textual pass only over one directory.
//   nebula_lint --self-test <fixtures-dir>
//       Runs every pass over the planted-violation fixtures and verifies
//       each plant is caught — and nothing else is.
//
// Exit codes: 0 clean, 1 findings, 2 usage/configuration error.

#include "lint.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>

namespace nebula_lint {
namespace {

const char* const kRules[] = {
    "naked-sync",        "fault-name",        "nondeterminism",
    "layer-dag",         "include-cycle",     "include-guard",
    "unused-include",    "missing-include",   "dropped-status",
    "lock-rank-missing", "lock-rank-unknown", "lock-order",
    "guarded-coverage",  "sql-taint",         "unordered-iteration",
    "unchecked-io",
};

/// Rules that can never be baselined: the layer DAG, the lock-rank DAG,
/// and the SQL-escaping / durable-IO contracts hold everywhere, always —
/// an entry in the baseline file for one of these is ignored.
bool IsLayerRule(const std::string& rule) {
  return rule == "layer-dag" || rule == "include-cycle" ||
         rule == "lock-rank-missing" || rule == "lock-rank-unknown" ||
         rule == "lock-order" || rule == "guarded-coverage" ||
         rule == "sql-taint" || rule == "unordered-iteration" ||
         rule == "unchecked-io";
}

/// Canonical fault-point names (kFault* identifiers) declared in
/// src/common/fault_points.h.
std::set<std::string> LoadFaultNames(const fs::path& header) {
  std::set<std::string> names;
  std::ifstream in(header);
  std::string line;
  while (std::getline(in, line)) {
    size_t pos = 0;
    while ((pos = line.find("kFault", pos)) != std::string::npos) {
      if (pos > 0 && IsIdentChar(line[pos - 1])) {
        ++pos;
        continue;
      }
      size_t end = pos;
      while (end < line.size() && IsIdentChar(line[end])) ++end;
      names.insert(line.substr(pos, end - pos));
      pos = end;
    }
  }
  return names;
}

std::set<std::string> LoadBaseline(const fs::path& file) {
  std::set<std::string> keys;
  std::ifstream in(file);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() || line[0] == '#') continue;
    keys.insert(line);
  }
  return keys;
}

/// True for baseline lines this tool owns: "<file>: [<rule>] <message>"
/// with one of our rule names. Everything else (clang-tidy lines from
/// run_lint.sh share the file) is preserved verbatim on --update-baseline.
bool IsOurBaselineLine(const std::string& line) {
  for (const char* rule : kRules) {
    if (line.find(std::string(": [") + rule + "] ") != std::string::npos) {
      return true;
    }
  }
  return false;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
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
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void WriteJson(const fs::path& out_path, const std::vector<Finding>& findings,
               const std::set<std::string>& suppressed_keys) {
  std::ofstream out(out_path);
  out << "{\n  \"findings\": [\n";
  for (size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    const bool suppressed = !IsLayerRule(f.rule) &&
                            suppressed_keys.count(f.BaselineKey()) != 0;
    out << "    {\"file\": \"" << JsonEscape(f.file) << "\", \"line\": "
        << f.line << ", \"rule\": \"" << JsonEscape(f.rule)
        << "\", \"message\": \"" << JsonEscape(f.message)
        << "\", \"suppressed\": " << (suppressed ? "true" : "false") << "}"
        << (i + 1 < findings.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"total\": " << findings.size() << "\n}\n";
}

void SortFindings(std::vector<Finding>* findings) {
  std::stable_sort(findings->begin(), findings->end(),
                   [](const Finding& a, const Finding& b) {
                     if (a.file != b.file) return a.file < b.file;
                     if (a.line != b.line) return a.line < b.line;
                     return a.rule < b.rule;
                   });
}

int RunFull(const fs::path& root, const fs::path& baseline_path,
            bool update_baseline, const fs::path& json_path, bool timings) {
  std::string error;
  const LayerManifest manifest =
      LayerManifest::Load(root / "tools" / "layers.txt", &error);
  if (!error.empty()) {
    std::cerr << "nebula_lint: " << error << "\n";
    return 2;
  }
  const LockRankRegistry registry =
      LockRankRegistry::Load(root / "tools" / "lock_ranks.txt", &error);
  if (!error.empty()) {
    std::cerr << "nebula_lint: " << error << "\n";
    return 2;
  }
  const SqlSinkRegistry sinks =
      SqlSinkRegistry::Load(root / "tools" / "sql_sinks.txt", &error);
  if (!error.empty()) {
    std::cerr << "nebula_lint: " << error << "\n";
    return 2;
  }
  const SourceTree tree =
      LoadTree(root, {"src", "tools", "tests"}, {"lint_fixtures", "build"});
  if (tree.files.empty()) {
    std::cerr << "nebula_lint: no sources under " << root << "\n";
    return 2;
  }
  Report report;
  // Wraps one pass, printing wall-clock when --timings is on (steady
  // clock: timing output, never part of any finding).
  const auto timed = [timings](const char* name, auto&& pass) {
    const auto t0 = std::chrono::steady_clock::now();
    pass();
    if (timings) {
      const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
      std::cout << "nebula_lint: pass " << name << " "
                << static_cast<double>(us) / 1000.0 << " ms\n";
    }
  };
  timed("textual", [&] {
    RunTextualPass(tree, LoadFaultNames(root / "src/common/fault_points.h"),
                   &report);
  });
  timed("layers", [&] { RunLayerPass(tree, manifest, &report); });
  timed("hygiene", [&] { RunHygienePass(tree, &report); });
  timed("discipline", [&] { RunDisciplinePass(tree, &report); });
  timed("concurrency", [&] { RunConcurrencyPass(tree, registry, &report); });
  timed("dataflow", [&] { RunDataflowPass(tree, sinks, &report); });

  std::vector<Finding> findings = report.findings();
  SortFindings(&findings);

  if (update_baseline) {
    if (baseline_path.empty()) {
      std::cerr << "nebula_lint: --update-baseline requires --baseline\n";
      return 2;
    }
    std::vector<std::string> kept;
    {
      std::ifstream in(baseline_path);
      std::string line;
      while (std::getline(in, line)) {
        if (!line.empty() && line.back() == '\r') line.pop_back();
        if (!IsOurBaselineLine(line)) kept.push_back(line);
      }
    }
    std::set<std::string> ours;
    for (const Finding& f : findings) {
      if (!IsLayerRule(f.rule)) ours.insert(f.BaselineKey());
    }
    std::ofstream out(baseline_path);
    for (const std::string& line : kept) out << line << "\n";
    for (const std::string& key : ours) out << key << "\n";
    std::cout << "nebula_lint: baseline updated (" << ours.size()
              << " nebula_lint entr" << (ours.size() == 1 ? "y" : "ies")
              << ", " << kept.size() << " foreign line(s) kept)\n";
    return 0;
  }

  std::set<std::string> baseline;
  if (!baseline_path.empty()) baseline = LoadBaseline(baseline_path);

  size_t suppressed = 0;
  size_t fresh = 0;
  for (const Finding& f : findings) {
    if (!IsLayerRule(f.rule) && baseline.count(f.BaselineKey()) != 0) {
      ++suppressed;
      continue;
    }
    ++fresh;
    std::cout << f.file << ":" << f.line << ": [" << f.rule << "] "
              << f.message << "\n";
  }
  if (!json_path.empty()) WriteJson(json_path, findings, baseline);
  std::cout << "nebula_lint: scanned " << tree.files.size() << " files, "
            << fresh << " finding(s)";
  if (suppressed != 0) std::cout << ", " << suppressed << " in baseline";
  std::cout << "\n";
  return fresh == 0 ? 0 : 1;
}

int RunSrcOnly(const fs::path& dir, const fs::path& json_path) {
  const SourceTree tree = LoadTree(dir, {"."}, {});
  if (tree.files.empty()) {
    std::cerr << "nebula_lint: no sources under " << dir << "\n";
    return 2;
  }
  Report report;
  RunTextualPass(tree, LoadFaultNames(dir / "common/fault_points.h"), &report);
  std::vector<Finding> findings = report.findings();
  SortFindings(&findings);
  for (const Finding& f : findings) {
    std::cout << f.file << ":" << f.line << ": [" << f.rule << "] "
              << f.message << "\n";
  }
  if (!json_path.empty()) WriteJson(json_path, findings, {});
  std::cout << "nebula_lint: scanned " << tree.files.size() << " files, "
            << findings.size() << " finding(s)\n";
  return findings.empty() ? 0 : 1;
}

int RunSelfTest(const fs::path& fixtures) {
  Report report;
  // Textual plants live in the fixture root (never compiled); the
  // structural plants live in a mini project tree with its own layer
  // manifest.
  const SourceTree textual_tree = LoadTree(fixtures, {"."}, {"project"});
  RunTextualPass(textual_tree, /*canonical_fault_names=*/{}, &report);

  const fs::path project = fixtures / "project";
  std::string error;
  const LayerManifest manifest =
      LayerManifest::Load(project / "tools" / "layers.txt", &error);
  if (!error.empty()) {
    std::cerr << "nebula_lint self-test: " << error << "\n";
    return 2;
  }
  const LockRankRegistry registry = LockRankRegistry::Load(
      project / "tools" / "lock_ranks.txt", &error);
  if (!error.empty()) {
    std::cerr << "nebula_lint self-test: " << error << "\n";
    return 2;
  }
  const SqlSinkRegistry sinks =
      SqlSinkRegistry::Load(project / "tools" / "sql_sinks.txt", &error);
  if (!error.empty()) {
    std::cerr << "nebula_lint self-test: " << error << "\n";
    return 2;
  }
  const SourceTree project_tree =
      LoadTree(project, {"src", "tools", "tests"}, {});
  RunTextualPass(project_tree, {}, &report);
  RunLayerPass(project_tree, manifest, &report);
  RunHygienePass(project_tree, &report);
  RunDisciplinePass(project_tree, &report);
  RunConcurrencyPass(project_tree, registry, &report);
  RunDataflowPass(project_tree, sinks, &report);

  // Every rule must catch exactly its plants, counted per planted FILE —
  // a rule may legitimately have plants in several files (layer-dag has
  // an adjacent-tier and a tier-skipping edge), and nothing else may
  // fire (an incidental finding means a heuristic regressed).
  struct Expectation {
    const char* rule;
    size_t count;
    const char* file_substring;
  };
  const Expectation kExpected[] = {
      {"naked-sync", 2, "planted_violations.cc"},
      {"fault-name", 2, "planted_violations.cc"},
      {"nondeterminism", 2, "planted_violations.cc"},
      {"layer-dag", 1, "bad_upward.h"},
      {"layer-dag", 1, "bad_gamma_upward.h"},
      {"include-cycle", 1, "cycle_a.h"},
      {"include-guard", 1, "bad_guard.h"},
      {"unused-include", 1, "unused_inc.cc"},
      {"missing-include", 1, "missing_inc.cc"},
      {"dropped-status", 1, "dropped.cc"},
      {"lock-rank-missing", 1, "rank_missing.h"},
      {"lock-rank-unknown", 2, "lock_rank.h"},
      {"lock-rank-unknown", 1, "rank_unknown.h"},
      {"lock-order", 1, "lock_order.cc"},
      {"lock-order", 1, "order_attr.h"},
      {"guarded-coverage", 1, "guarded.cc"},
      {"nondeterminism", 1, "scanner_stress.cc"},
      {"layer-dag", 1, "lowstub.h"},
      {"sql-taint", 2, "sql_taint.cc"},
      {"unordered-iteration", 2, "unordered_iter.cc"},
      {"unchecked-io", 2, "unchecked_io.cc"},
      {"unchecked-io", 1, "io_bad.cc"},
  };
  bool ok = true;
  size_t expected_total = 0;
  for (const Expectation& e : kExpected) {
    expected_total += e.count;
    size_t got = 0;
    for (const Finding& f : report.findings()) {
      if (f.rule == e.rule &&
          f.file.find(e.file_substring) != std::string::npos) {
        ++got;
      }
    }
    if (got != e.count) {
      std::cout << "self-test FAIL: [" << e.rule << "] expected " << e.count
                << " finding(s) in *" << e.file_substring << "*, got " << got
                << "\n";
      ok = false;
    } else {
      std::cout << "self-test ok:   [" << e.rule << "] in *"
                << e.file_substring << "*: " << got << " planted, " << got
                << " caught\n";
    }
  }
  if (report.findings().size() != expected_total) {
    std::cout << "self-test FAIL: " << report.findings().size()
              << " total findings, expected exactly " << expected_total
              << " — unexpected extras:\n";
    for (const Finding& f : report.findings()) {
      std::cout << "  " << f.file << ":" << f.line << ": [" << f.rule << "] "
                << f.message << "\n";
    }
    ok = false;
  }
  std::cout << (ok ? "self-test PASSED" : "self-test FAILED") << "\n";
  return ok ? 0 : 1;
}

int Usage() {
  std::cerr
      << "usage: nebula_lint --root <repo> [--baseline <file>]\n"
         "                   [--update-baseline] [--json <file>] "
         "[--timings]\n"
         "       nebula_lint --src <dir> [--json <file>]\n"
         "       nebula_lint --self-test <fixtures-dir>\n";
  return 2;
}

int Main(int argc, char** argv) {
  fs::path root, src, self_test, baseline, json;
  bool update_baseline = false;
  bool timings = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--root") {
      const char* v = next();
      if (v == nullptr) return Usage();
      root = v;
    } else if (arg == "--src") {
      const char* v = next();
      if (v == nullptr) return Usage();
      src = v;
    } else if (arg == "--self-test") {
      const char* v = next();
      if (v == nullptr) return Usage();
      self_test = v;
    } else if (arg == "--baseline") {
      const char* v = next();
      if (v == nullptr) return Usage();
      baseline = v;
    } else if (arg == "--json") {
      const char* v = next();
      if (v == nullptr) return Usage();
      json = v;
    } else if (arg == "--update-baseline") {
      update_baseline = true;
    } else if (arg == "--timings") {
      timings = true;
    } else {
      return Usage();
    }
  }
  const int modes = static_cast<int>(!root.empty()) +
                    static_cast<int>(!src.empty()) +
                    static_cast<int>(!self_test.empty());
  if (modes != 1) return Usage();
  if (!self_test.empty()) return RunSelfTest(self_test);
  if (!src.empty()) return RunSrcOnly(src, json);
  return RunFull(root, baseline, update_baseline, json, timings);
}

}  // namespace
}  // namespace nebula_lint

int main(int argc, char** argv) { return nebula_lint::Main(argc, argv); }
