#include "testing/shrink.h"

#include <cstdint>
#include <fstream>
#include <optional>
#include <sstream>

#include "common/status.h"
#include "common/string_util.h"
#include "storage/schema.h"
#include "testing/check_workload.h"
#include "testing/crash.h"
#include "testing/differential.h"

namespace nebula::check {

namespace {

/// Splits "1:5,0:3" (or "-") into TupleIds.
Result<std::vector<TupleId>> ParseFocal(const std::string& field) {
  std::vector<TupleId> focal;
  if (field == "-") return focal;
  for (const std::string& part : Split(field, ',')) {
    const std::vector<std::string> pieces = Split(part, ':');
    const std::optional<uint64_t> table =
        pieces.size() == 2 ? ParseUint64(pieces[0]) : std::nullopt;
    const std::optional<uint64_t> row =
        pieces.size() == 2 ? ParseUint64(pieces[1]) : std::nullopt;
    if (!table || *table > UINT32_MAX || !row) {
      return Status::InvalidArgument("bad focal field '" + field + "'");
    }
    focal.push_back({static_cast<uint32_t>(*table), *row});
  }
  return focal;
}

std::string FormatFocal(const std::vector<TupleId>& focal) {
  if (focal.empty()) return "-";
  std::vector<std::string> parts;
  parts.reserve(focal.size());
  for (const TupleId& t : focal) parts.push_back(t.ToString());
  return Join(parts, ",");
}

}  // namespace

std::vector<CheckAnnotation> ShrinkAnnotations(
    std::vector<CheckAnnotation> annotations,
    const FailurePredicate& still_fails, size_t max_evaluations,
    ShrinkStats* stats) {
  ShrinkStats local;
  ShrinkStats* s = stats != nullptr ? stats : &local;
  *s = ShrinkStats{};
  auto try_candidate = [&](const std::vector<CheckAnnotation>& candidate) {
    ++s->evaluations;
    return still_fails(candidate);
  };
  const auto budget_left = [&] { return s->evaluations < max_evaluations; };

  bool changed = true;
  while (changed && budget_left()) {
    changed = false;
    // Pass 1: whole-annotation removal, rescanning after each success so
    // removals compound (classic greedy ddmin at granularity 1 — streams
    // here are small enough that coarser chunking buys nothing).
    for (size_t i = 0; i < annotations.size() && annotations.size() > 1;) {
      if (!budget_left()) break;
      std::vector<CheckAnnotation> candidate = annotations;
      candidate.erase(candidate.begin() + static_cast<ptrdiff_t>(i));
      if (try_candidate(candidate)) {
        annotations = std::move(candidate);
        ++s->removed_annotations;
        changed = true;
      } else {
        ++i;
      }
    }
    // Pass 2: word removal inside each surviving annotation.
    for (size_t a = 0; a < annotations.size(); ++a) {
      std::vector<std::string> words = SplitWhitespace(annotations[a].text);
      for (size_t w = 0; w < words.size() && words.size() > 1;) {
        if (!budget_left()) break;
        std::vector<std::string> fewer = words;
        fewer.erase(fewer.begin() + static_cast<ptrdiff_t>(w));
        std::vector<CheckAnnotation> candidate = annotations;
        candidate[a].text = Join(fewer, " ");
        if (try_candidate(candidate)) {
          annotations = std::move(candidate);
          words = std::move(fewer);
          ++s->removed_words;
          changed = true;
        } else {
          ++w;
        }
      }
    }
    // Pass 3: focal truncation to the first tuple.
    for (size_t a = 0; a < annotations.size(); ++a) {
      if (annotations[a].focal.size() <= 1 || !budget_left()) continue;
      std::vector<CheckAnnotation> candidate = annotations;
      candidate[a].focal.resize(1);
      if (try_candidate(candidate)) {
        annotations = std::move(candidate);
        changed = true;
      }
    }
  }
  return annotations;
}

Status SaveRepro(const std::string& path, const ReproCase& repro) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return Status::Internal("cannot open repro file for writing: " + path);
  }
  out << "# nebula_check repro v1\n"
      << "# replay with: nebula_check --replay " << path << "\n"
      << "seed " << repro.seed << "\n"
      << "pair " << ConfigPairName(repro.pair) << "\n"
      << "threads " << repro.num_threads << "\n"
      << "inject_bug " << (repro.inject_bug ? 1 : 0) << "\n";
  if (repro.crash) {
    out << "crash " << CrashModeName(repro.crash_mode) << " "
        << repro.crash_skip << "\n"
        << "snapshot_every " << repro.snapshot_every << "\n"
        << "replay_bug " << (repro.replay_bug ? 1 : 0) << "\n";
  }
  for (const CheckAnnotation& a : repro.annotations) {
    out << "annotation " << a.author << "|" << FormatFocal(a.focal) << "|"
        << a.text << "\n";
  }
  out.flush();
  return out ? Status::OK()
             : Status::Internal("short write to repro file: " + path);
}

Result<ReproCase> LoadRepro(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("repro file: " + path);
  ReproCase repro;
  std::string line;
  size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    std::string_view trimmed = Trim(line);
    if (trimmed.empty() || trimmed[0] == '#') continue;
    const size_t space = trimmed.find(' ');
    const std::string key(trimmed.substr(0, space));
    const std::string value(
        space == std::string_view::npos
            ? std::string_view{}
            : Trim(trimmed.substr(space + 1)));
    auto bad = [&](const std::string& why) {
      return Status::InvalidArgument(
          StrFormat("%s:%zu: %s", path.c_str(), lineno, why.c_str()));
    };
    if (key == "seed") {
      const std::optional<uint64_t> seed = ParseUint64(value);
      if (!seed) return bad("seed must be an unsigned 64-bit integer");
      repro.seed = *seed;
    } else if (key == "pair") {
      NEBULA_ASSIGN_OR_RETURN(repro.pair, ParseConfigPair(value));
    } else if (key == "threads") {
      const std::optional<uint64_t> threads = ParseUint64(value);
      if (!threads || *threads > kMaxCheckThreads) {
        return bad(StrFormat("threads must be an integer in [0, %zu]",
                             kMaxCheckThreads));
      }
      repro.num_threads = static_cast<size_t>(*threads);
    } else if (key == "inject_bug") {
      repro.inject_bug = value == "1";
    } else if (key == "crash") {
      const std::vector<std::string> parts = SplitWhitespace(value);
      const std::optional<uint64_t> skip =
          parts.size() == 2 ? ParseUint64(parts[1]) : std::nullopt;
      if (!skip) return bad("crash must be '<mode> <skip>'");
      repro.crash = true;
      NEBULA_ASSIGN_OR_RETURN(repro.crash_mode, ParseCrashMode(parts[0]));
      repro.crash_skip = *skip;
    } else if (key == "snapshot_every") {
      const std::optional<uint64_t> every = ParseUint64(value);
      if (!every) return bad("snapshot_every must be an integer");
      repro.snapshot_every = *every;
    } else if (key == "replay_bug") {
      repro.replay_bug = value == "1";
    } else if (key == "annotation") {
      const size_t p1 = value.find('|');
      const size_t p2 =
          p1 == std::string::npos ? std::string::npos : value.find('|', p1 + 1);
      if (p2 == std::string::npos) {
        return bad("annotation must be author|focal|text");
      }
      CheckAnnotation a;
      a.author = value.substr(0, p1);
      NEBULA_ASSIGN_OR_RETURN(a.focal,
                              ParseFocal(value.substr(p1 + 1, p2 - p1 - 1)));
      a.text = value.substr(p2 + 1);
      repro.annotations.push_back(std::move(a));
    } else {
      return bad("unknown key '" + key + "'");
    }
  }
  return repro;
}

Result<Divergence> ReplayRepro(const ReproCase& repro,
                               const CheckWorkloadParams& params) {
  if (repro.crash) {
    CrashOptions options;
    options.snapshot_every = repro.snapshot_every;
    options.inject_replay_bug = repro.replay_bug;
    options.workload = params;
    CheckWorkload workload;
    workload.seed = repro.seed;
    workload.annotations = repro.annotations;
    CrashSpec spec;
    spec.mode = repro.crash_mode;
    spec.skip = repro.crash_skip;
    return RunCrashCase(workload, spec, options);
  }
  DiffOptions options;
  options.num_threads = repro.num_threads;
  options.inject_bug = repro.inject_bug;
  options.workload = params;
  DifferentialRunner runner(options);
  CheckWorkload workload;
  workload.seed = repro.seed;
  workload.annotations = repro.annotations;
  return runner.RunPair(repro.pair, workload);
}

}  // namespace nebula::check
