// Tier-1 coverage for the fault-schedule fuzzer: generator determinism, text
// round-trip, runner determinism, a small always-on schedule sweep, and the
// shrinker (a planted invariant violation must minimize deterministically).
#include <gtest/gtest.h>

#include <string>

#include "fuzz/fault_schedule.h"
#include "fuzz/fuzz_runner.h"
#include "fuzz/shrinker.h"

namespace fuse {
namespace {

TEST(FuzzScheduleTest, GeneratorIsDeterministic) {
  const FaultSchedule a = GenerateSchedule(42);
  const FaultSchedule b = GenerateSchedule(42);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.ToText(), b.ToText());

  bool any_different = false;
  for (uint64_t seed = 43; seed < 48; ++seed) {
    if (!(GenerateSchedule(seed) == a)) {
      any_different = true;
    }
  }
  EXPECT_TRUE(any_different);
}

TEST(FuzzScheduleTest, TextFormRoundTrips) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    const FaultSchedule s = GenerateSchedule(seed);
    FaultSchedule back;
    ASSERT_TRUE(FaultSchedule::FromText(s.ToText(), &back)) << "seed " << seed;
    EXPECT_EQ(s, back) << "seed " << seed;
    EXPECT_EQ(s.ToText(), back.ToText()) << "seed " << seed;
  }
}

TEST(FuzzScheduleTest, TextParserRejectsGarbage) {
  FaultSchedule out;
  EXPECT_FALSE(FaultSchedule::FromText("", &out));
  EXPECT_FALSE(FaultSchedule::FromText("not a schedule\n", &out));
  EXPECT_FALSE(FaultSchedule::FromText("fuse-fuzz-schedule v1\nseed x\n", &out));
  EXPECT_FALSE(FaultSchedule::FromText(
      "fuse-fuzz-schedule v1\nseed 1\nnodes 4\ngroups 1\n"
      "frobnicate at_us=0 a=0 b=0 dur_us=0 param=0 group=-\n",
      &out));
}

TEST(FuzzRunnerTest, RunIsDeterministic) {
  const FaultSchedule s = GenerateSchedule(7);
  const FuzzRunResult r1 = RunSchedule(s);
  const FuzzRunResult r2 = RunSchedule(s);
  EXPECT_EQ(r1.log_line, r2.log_line);
  EXPECT_EQ(r1.violations, r2.violations);
}

TEST(FuzzRunnerTest, EmptyScheduleIsQuiet) {
  FaultSchedule s;
  s.seed = 99;
  s.num_nodes = 6;
  s.num_groups = 2;
  const FuzzRunResult r = RunSchedule(s);
  EXPECT_TRUE(r.ok()) << r.log_line;
  EXPECT_EQ(r.groups_created, 2);
  // The must-not-fire half of the oracle: nothing went wrong, so nothing may
  // fire.
  EXPECT_EQ(r.groups_fired, 0);
}

TEST(FuzzRunnerTest, PlantedDuplicateWatchOnlyFiresWithANotification) {
  // The planted duplicate watch alone is harmless until a notification
  // actually arrives.
  FaultSchedule quiet;
  quiet.seed = 3;
  quiet.num_nodes = 6;
  quiet.num_groups = 1;
  FuzzRunOptions opts;
  opts.plant_duplicate_watch = true;
  EXPECT_TRUE(RunSchedule(quiet, opts).ok());

  // An explicit SignalFailure must reach every member — and hits the doubled
  // watch twice: a duplicate-delivery violation.
  FaultSchedule loud = quiet;
  FaultClause c;
  c.op = FaultOp::kSignalFailure;
  c.a = 0;
  loud.clauses.push_back(c);
  const FuzzRunResult r = RunSchedule(loud, opts);
  EXPECT_FALSE(r.ok());
}

TEST(FuzzSmokeTest, FiftyScheduleSweepHoldsTheInvariant) {
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    const FaultSchedule s = GenerateSchedule(seed);
    const FuzzRunResult r = RunSchedule(s);
    EXPECT_TRUE(r.ok()) << r.log_line << (r.violations.empty() ? "" : "\n  " + r.violations[0]);
  }
}

TEST(FuzzShrinkerTest, PlantedViolationShrinksToGolden) {
  FaultSchedule failing;
  failing.seed = 7;
  failing.num_nodes = 9;
  failing.num_groups = 3;
  FaultClause pad;  // removable noise the shrinker must strip
  pad.op = FaultOp::kSlowHost;
  pad.a = 4;
  pad.at_us = 30 * 1000 * 1000;
  pad.param = 500.0;
  failing.clauses.push_back(pad);
  FaultClause sig;
  sig.op = FaultOp::kSignalFailure;
  sig.a = 0;
  sig.at_us = 60 * 1000 * 1000;
  failing.clauses.push_back(sig);

  FuzzRunOptions opts;
  opts.plant_duplicate_watch = true;
  const auto still_fails = [&opts](const FaultSchedule& s) { return !RunSchedule(s, opts).ok(); };
  ASSERT_TRUE(still_fails(failing));

  const FaultSchedule min1 = ShrinkSchedule(failing, still_fails);
  const FaultSchedule min2 = ShrinkSchedule(failing, still_fails);
  EXPECT_EQ(min1.ToText(), min2.ToText());  // same input => byte-identical shrink

  EXPECT_EQ(min1.ToText(),
            "fuse-fuzz-schedule v1\n"
            "seed 7\n"
            "nodes 4\n"
            "groups 1\n"
            "signal at_us=0 a=0 b=0 dur_us=0 param=0 group=-\n");
  ASSERT_TRUE(still_fails(min1));  // the minimized repro still reproduces
}

}  // namespace
}  // namespace fuse
