// nebula_check — the NebulaCheck differential test harness CLI.
//
// Sweeps seeds through the engine under paired configurations
// (sequential vs pooled, single vs batch ingest, observability quiet vs
// exercised, full search vs focal spreading, value index vs legacy
// scan) and fails loudly when two
// runs that must agree do not. Divergences are minimized into replayable
// repro files.
//
// --crash switches to the crash-recovery sweep: per seed, a durable
// engine is killed at a sampled durability fault point (or dropped
// without a final snapshot), reopened from disk, and the recovered state
// must match a durability-off replay of exactly the committed operation
// prefix.
//
//   nebula_check                         # default sweep, all pairs
//   nebula_check --seeds 200             # CI smoke sweep
//   nebula_check --seed 42 --pair batch  # one seed, one pair
//   nebula_check --digest --seeds 50     # print canonical digests
//   nebula_check --replay repro.txt      # re-run a saved repro
//   nebula_check --crash --seeds 25      # CI crash-recovery sweep
//   NEBULA_CHECK_SEED=42 nebula_check    # env override (single seed)
//
// Exit code 0 = clean; 1 = divergence or error; 2 = bad usage.

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <optional>
#include <string>

#include "common/string_util.h"
#include "testing/check_runner.h"
#include "testing/crash.h"
#include "testing/differential.h"

namespace {

void PrintUsage(std::ostream& out) {
  out << "usage: nebula_check [options]\n"
         "  --seed N        run exactly one seed (same as --start N "
         "--seeds 1)\n"
         "  --start N       first seed of the sweep (default 1)\n"
         "  --seeds N       number of seeds to sweep (default 20)\n"
         "  --pair P        one config pair below, or all (default all)\n"
         "  --threads N     batch Stage-1 pool size of the pooled sides "
         "(default 3, at most "
      << nebula::check::kMaxCheckThreads << ")\n"
         "  --no-shrink     report divergences without minimizing them\n"
         "  --hostile       seed-stable adversarial workload: a root-table "
         "row and one stream token per annotation carry SQL "
         "metacharacters (quote, ;--)\n"
         "  --repro-dir D   directory for repro files (default .)\n"
         "  --digest        print each seed's canonical outcome digest\n"
         "  --replay FILE   replay a saved repro file instead of sweeping\n"
         "  --crash         run the crash-recovery sweep instead of the "
         "differential pairs\n"
         "  --snapshot-every N  crash sweep: snapshot cadence in committed "
         "operations; 0 = WAL only (default 2)\n"
         "  --inject-bug    deliberately plant a bug (differential sweep: "
         "mis-configure one side, or a lockdep inversion on the lockdep "
         "pair; crash sweep: perturb WAL replay — pair with "
         "--snapshot-every 0)\n"
         "  --help          this text\n"
         "config pairs (--pair):\n";
  // Generated from kAllConfigPairs so this list can never drift from the
  // harness (the nebula_check_help_smoke ctest pins every name).
  for (const nebula::check::ConfigPair pair : nebula::check::kAllConfigPairs) {
    out << "  " << nebula::check::ConfigPairName(pair);
    for (size_t pad = std::strlen(nebula::check::ConfigPairName(pair));
         pad < 12; ++pad) {
      out << ' ';
    }
    out << nebula::check::ConfigPairDescription(pair) << "\n";
  }
  out << "crash modes (sampled per seed under --crash):\n";
  for (const nebula::check::CrashMode mode : nebula::check::kAllCrashModes) {
    out << "  " << nebula::check::CrashModeName(mode);
    for (size_t pad = std::strlen(nebula::check::CrashModeName(mode));
         pad < 15; ++pad) {
      out << ' ';
    }
    out << nebula::check::CrashModeDescription(mode) << "\n";
  }
  out << "environment:\n"
         "  NEBULA_CHECK_SEED  overrides the sweep with that single seed\n"
         "  NEBULA_LOCKDEP     1 arms the runtime lock-order witness "
         "(lockdep builds)\n";
}

bool ParseU64(const char* s, uint64_t* out) {
  const std::optional<uint64_t> v =
      s == nullptr ? std::nullopt : nebula::ParseUint64(s);
  if (!v) return false;
  *out = *v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  nebula::check::CheckOptions options;
  std::string replay_path;
  bool crash_sweep = false;
  uint64_t snapshot_every = 2;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    uint64_t value = 0;
    if (arg == "--help" || arg == "-h") {
      PrintUsage(std::cout);
      return 0;
    } else if (arg == "--seed") {
      if (!ParseU64(next(), &value)) {
        std::cerr << "--seed needs an integer\n";
        return 2;
      }
      options.start_seed = value;
      options.num_seeds = 1;
    } else if (arg == "--start") {
      if (!ParseU64(next(), &value)) {
        std::cerr << "--start needs an integer\n";
        return 2;
      }
      options.start_seed = value;
    } else if (arg == "--seeds") {
      if (!ParseU64(next(), &value)) {
        std::cerr << "--seeds needs an integer\n";
        return 2;
      }
      options.num_seeds = value;
    } else if (arg == "--pair") {
      const char* name = next();
      if (name == nullptr) {
        std::cerr << "--pair needs a name\n";
        return 2;
      }
      if (std::strcmp(name, "all") != 0) {
        auto pair = nebula::check::ParseConfigPair(name);
        if (!pair.ok()) {
          std::cerr << pair.status().ToString() << "\n";
          return 2;
        }
        options.pairs.push_back(pair.value());
      }
    } else if (arg == "--threads") {
      if (!ParseU64(next(), &value) ||
          value > nebula::check::kMaxCheckThreads) {
        std::cerr << "--threads needs an integer in [0, "
                  << nebula::check::kMaxCheckThreads << "]\n";
        return 2;
      }
      options.num_threads = value;
    } else if (arg == "--no-shrink") {
      options.shrink = false;
    } else if (arg == "--hostile") {
      options.workload.hostile_tokens = true;
    } else if (arg == "--repro-dir") {
      const char* dir = next();
      if (dir == nullptr) {
        std::cerr << "--repro-dir needs a path\n";
        return 2;
      }
      options.repro_dir = dir;
    } else if (arg == "--digest") {
      options.print_digests = true;
    } else if (arg == "--replay") {
      const char* path = next();
      if (path == nullptr) {
        std::cerr << "--replay needs a file\n";
        return 2;
      }
      replay_path = path;
    } else if (arg == "--crash") {
      crash_sweep = true;
    } else if (arg == "--snapshot-every") {
      if (!ParseU64(next(), &snapshot_every)) {
        std::cerr << "--snapshot-every needs an integer\n";
        return 2;
      }
    } else if (arg == "--inject-bug") {
      options.inject_bug = true;
    } else {
      std::cerr << "unknown option '" << arg << "'\n";
      PrintUsage(std::cerr);
      return 2;
    }
  }

  if (!replay_path.empty()) {
    auto verdict = nebula::check::ReplayReproFile(replay_path, std::cout);
    if (!verdict.ok()) {
      std::cerr << verdict.status().ToString() << "\n";
      return 1;
    }
    return verdict.value().diverged ? 1 : 0;
  }

  // CI hook: pin the whole sweep to one seed without editing the command
  // line (ctest runs the registered smoke invocation verbatim).
  if (const char* env = std::getenv("NEBULA_CHECK_SEED");
      env != nullptr && *env != '\0') {
    uint64_t value = 0;
    if (!ParseU64(env, &value)) {
      std::cerr << "NEBULA_CHECK_SEED must be an integer, got '" << env
                << "'\n";
      return 2;
    }
    options.start_seed = value;
    options.num_seeds = 1;
  }

  if (crash_sweep) {
    nebula::check::CrashOptions crash_options;
    crash_options.start_seed = options.start_seed;
    crash_options.num_seeds = options.num_seeds;
    crash_options.snapshot_every = snapshot_every;
    crash_options.inject_replay_bug = options.inject_bug;
    crash_options.shrink = options.shrink;
    crash_options.repro_dir = options.repro_dir;
    crash_options.workload = options.workload;
    auto summary = nebula::check::RunCrashSweep(crash_options);
    if (!summary.ok()) {
      std::cerr << summary.status().ToString() << "\n";
      return 1;
    }
    std::cout << "nebula_check --crash: " << summary->seeds_run
              << " seeds -> " << summary->cases_run << " cases, "
              << summary->divergences << " divergences\n";
    if (!summary->first_detail.empty()) {
      std::cout << "first divergence:\n  " << summary->first_detail << "\n";
    }
    for (const std::string& path : summary->repro_paths) {
      std::cout << "repro: " << path << "\n";
    }
    return summary->divergences == 0 ? 0 : 1;
  }

  auto summary = nebula::check::RunCheckSweep(options, std::cout);
  if (!summary.ok()) {
    std::cerr << summary.status().ToString() << "\n";
    return 1;
  }
  return summary.value().clean() ? 0 : 1;
}
