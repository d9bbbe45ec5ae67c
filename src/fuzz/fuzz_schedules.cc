// fuzz_schedules: deterministic fault-schedule fuzzer for the FUSE stack.
//
// Sweep mode (default): generate and run `--schedules` random fault programs
// starting at `--seed` (schedule i uses seed base+i), grade each against the
// invariant oracle, and on a violation greedily shrink the schedule and write
// a self-contained repro pair (<dir>/fuzz_repro_seed<S>.txt and .min.txt).
// Replay mode: `--replay <file>` re-runs a saved schedule byte-identically.
//
// Exit status: 0 = every schedule passed, 1 = at least one violation (or a
// usage/file error).
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "fuzz/fault_schedule.h"
#include "fuzz/fuzz_runner.h"
#include "fuzz/shrinker.h"

namespace {

void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--schedules N] [--seed S] [--repro-dir DIR] [--no-shrink] [--quiet]\n"
               "       %s --replay FILE [--shrink]\n",
               argv0, argv0);
}

bool WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::trunc);
  out << content;
  return static_cast<bool>(out);
}

}  // namespace

int main(int argc, char** argv) {
  int64_t schedules = 100;
  uint64_t base_seed = 1;
  std::string repro_dir = ".";
  std::string replay_file;
  bool shrink = true;
  bool quiet = false;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        Usage(argv[0]);
        std::exit(1);
      }
      return argv[++i];
    };
    if (std::strcmp(arg, "--schedules") == 0) {
      schedules = std::strtoll(next(), nullptr, 10);
    } else if (std::strcmp(arg, "--seed") == 0) {
      base_seed = std::strtoull(next(), nullptr, 10);
    } else if (std::strcmp(arg, "--repro-dir") == 0) {
      repro_dir = next();
    } else if (std::strcmp(arg, "--replay") == 0) {
      replay_file = next();
    } else if (std::strcmp(arg, "--no-shrink") == 0) {
      shrink = false;
    } else if (std::strcmp(arg, "--shrink") == 0) {
      shrink = true;
    } else if (std::strcmp(arg, "--quiet") == 0) {
      quiet = true;
    } else {
      Usage(argv[0]);
      return 1;
    }
  }

  const auto still_fails = [](const fuse::FaultSchedule& s) {
    return !fuse::RunSchedule(s).ok();
  };
  const auto report = [&](const fuse::FaultSchedule& s, const fuse::FuzzRunResult& r) {
    std::printf("%s\n", r.log_line.c_str());
    for (const std::string& v : r.violations) {
      std::printf("  violation: %s\n", v.c_str());
    }
    if (r.ok() || !shrink) {
      return;
    }
    const fuse::FaultSchedule min = fuse::ShrinkSchedule(s, still_fails);
    char name[160];
    std::snprintf(name, sizeof(name), "%s/fuzz_repro_seed%" PRIu64 ".txt", repro_dir.c_str(),
                  s.seed);
    WriteFile(name, s.ToText());
    std::printf("  repro: %s\n", name);
    std::snprintf(name, sizeof(name), "%s/fuzz_repro_seed%" PRIu64 ".min.txt", repro_dir.c_str(),
                  s.seed);
    WriteFile(name, min.ToText());
    std::printf("  minimized (%zu clauses, %d nodes): %s\n", min.clauses.size(), min.num_nodes,
                name);
  };

  if (!replay_file.empty()) {
    std::ifstream in(replay_file);
    if (!in) {
      std::fprintf(stderr, "cannot read %s\n", replay_file.c_str());
      return 1;
    }
    std::ostringstream text;
    text << in.rdbuf();
    fuse::FaultSchedule s;
    if (!fuse::FaultSchedule::FromText(text.str(), &s)) {
      std::fprintf(stderr, "%s: not a valid schedule file\n", replay_file.c_str());
      return 1;
    }
    const fuse::FuzzRunResult r = fuse::RunSchedule(s);
    report(s, r);
    return r.ok() ? 0 : 1;
  }

  int64_t failures = 0;
  for (int64_t i = 0; i < schedules; ++i) {
    const fuse::FaultSchedule s = fuse::GenerateSchedule(base_seed + static_cast<uint64_t>(i));
    const fuse::FuzzRunResult r = fuse::RunSchedule(s);
    if (!r.ok()) {
      ++failures;
      report(s, r);
    } else if (!quiet) {
      std::printf("%s\n", r.log_line.c_str());
    } else if ((i + 1) % 500 == 0) {
      std::printf("progress: %" PRId64 "/%" PRId64 " schedules, %" PRId64 " violations\n", i + 1,
                  schedules, failures);
      std::fflush(stdout);
    }
  }
  std::printf("swept %" PRId64 " schedules base_seed=%" PRIu64 " violations=%" PRId64 "\n",
              schedules, base_seed, failures);
  return failures == 0 ? 0 : 1;
}
