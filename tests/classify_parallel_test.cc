#include "classify/parallel.h"

#include <string>

#include "data/benchmarks.h"
#include "gtest/gtest.h"

namespace fpdm::classify {
namespace {

Dataset SmallBenchmark(const char* name, int rows) {
  data::BenchmarkSpec spec = data::SpecByName(name);
  spec.rows = rows;
  return data::GenerateBenchmark(spec);
}

TEST(ParallelCvTest, MatchesSequentialTree) {
  Dataset data = SmallBenchmark("diabetes", 400);
  NyuMinerOptions options;
  options.cv_folds = 4;
  options.seed = 123;
  DecisionTree sequential =
      TrainNyuMinerCV(data, data.AllRows(), options, nullptr);
  ParallelExecOptions exec;
  exec.num_workers = 2;
  ParallelTreeResult parallel =
      ParallelNyuMinerCV(data, data.AllRows(), options, exec);
  ASSERT_TRUE(parallel.ok);
  EXPECT_EQ(parallel.tree.num_nodes(), sequential.num_nodes());
  for (int row = 0; row < data.num_rows(); ++row) {
    ASSERT_EQ(parallel.tree.Classify(data.Row(row)),
              sequential.Classify(data.Row(row)))
        << "row " << row;
  }
}

TEST(ParallelCvTest, MoreWorkersFinishSooner) {
  Dataset data = SmallBenchmark("diabetes", 400);
  NyuMinerOptions options;
  options.cv_folds = 8;
  auto run = [&](int workers) {
    ParallelExecOptions exec;
    exec.num_workers = workers;
    exec.seconds_per_work_unit = 1e-4;
    ParallelTreeResult r = ParallelNyuMinerCV(data, data.AllRows(), options, exec);
    EXPECT_TRUE(r.ok);
    return r.completion_time;
  };
  const double t1 = run(1);
  const double t4 = run(4);
  EXPECT_GT(t1 / t4, 1.8);
}

TEST(ParallelCvTest, SurvivesWorkerFailure) {
  Dataset data = SmallBenchmark("diabetes", 300);
  NyuMinerOptions options;
  options.cv_folds = 4;
  DecisionTree sequential =
      TrainNyuMinerCV(data, data.AllRows(), options, nullptr);
  ParallelExecOptions exec;
  exec.num_workers = 3;
  exec.seconds_per_work_unit = 1e-3;
  exec.failures = {{2, 5.0}};
  ParallelTreeResult parallel =
      ParallelNyuMinerCV(data, data.AllRows(), options, exec);
  ASSERT_TRUE(parallel.ok);
  EXPECT_GE(parallel.stats.processes_killed, 1u);
  EXPECT_EQ(parallel.tree.num_nodes(), sequential.num_nodes());
}

// Machine 2 dies at one of several points of the run. Each fold's work is
// recorded outside its task transaction, so a kill after the record and
// before the commit redoes the fold: total_work must still count it once,
// while RuntimeStats::total_work keeps the work the kill lost.
TEST(ParallelCvTest, WorkerKillCountsEachFoldOnce) {
  Dataset data = SmallBenchmark("diabetes", 300);
  NyuMinerOptions options;
  options.cv_folds = 6;
  ParallelExecOptions exec;
  exec.num_workers = 3;
  exec.seconds_per_work_unit = 1e-3;
  const ParallelTreeResult clean =
      ParallelNyuMinerCV(data, data.AllRows(), options, exec);
  ASSERT_TRUE(clean.ok);
  constexpr int kKillTimes = 8;
  for (int k = 0; k < kKillTimes; ++k) {
    const double when = clean.completion_time * (k + 0.5) / kKillTimes;
    SCOPED_TRACE("machine 2 killed at t=" + std::to_string(when));
    exec.failures = {{2, when}};
    const ParallelTreeResult parallel =
        ParallelNyuMinerCV(data, data.AllRows(), options, exec);
    ASSERT_TRUE(parallel.ok);
    EXPECT_EQ(parallel.tree.num_nodes(), clean.tree.num_nodes());
    EXPECT_EQ(parallel.total_work, clean.total_work);
    EXPECT_GE(parallel.stats.total_work, clean.stats.total_work);
  }
}

TEST(ParallelC45Test, MatchesSequentialWindowedTree) {
  Dataset data = SmallBenchmark("german", 400);
  C45Options options;
  options.window_trials = 4;
  options.seed = 7;
  DecisionTree sequential =
      TrainC45Windowed(data, data.AllRows(), options, nullptr);
  ParallelExecOptions exec;
  exec.num_workers = 2;
  ParallelTreeResult parallel = ParallelC45(data, data.AllRows(), options, exec);
  ASSERT_TRUE(parallel.ok);
  EXPECT_EQ(parallel.tree.num_nodes(), sequential.num_nodes());
  EXPECT_EQ(parallel.tree.Errors(data, data.AllRows()),
            sequential.Errors(data, data.AllRows()));
}

// The C4.5 counterpart: each window trial counts once in total_work, at
// every kill time.
TEST(ParallelC45Test, WorkerKillCountsEachTrialOnce) {
  Dataset data = SmallBenchmark("german", 200);
  C45Options options;
  options.window_trials = 6;
  ParallelExecOptions exec;
  exec.num_workers = 3;
  exec.seconds_per_work_unit = 1e-3;
  const ParallelTreeResult clean =
      ParallelC45(data, data.AllRows(), options, exec);
  ASSERT_TRUE(clean.ok);
  constexpr int kKillTimes = 8;
  for (int k = 0; k < kKillTimes; ++k) {
    const double when = clean.completion_time * (k + 0.5) / kKillTimes;
    SCOPED_TRACE("machine 2 killed at t=" + std::to_string(when));
    exec.failures = {{2, when}};
    const ParallelTreeResult parallel =
        ParallelC45(data, data.AllRows(), options, exec);
    ASSERT_TRUE(parallel.ok);
    EXPECT_EQ(parallel.tree.num_nodes(), clean.tree.num_nodes());
    EXPECT_EQ(parallel.total_work, clean.total_work);
    EXPECT_GE(parallel.stats.total_work, clean.stats.total_work);
  }
}

TEST(ParallelC45Test, SpeedupScalesWithTrials) {
  Dataset data = SmallBenchmark("german", 400);
  C45Options options;
  options.window_trials = 6;
  auto run = [&](int workers) {
    ParallelExecOptions exec;
    exec.num_workers = workers;
    exec.seconds_per_work_unit = 1e-4;
    ParallelTreeResult r = ParallelC45(data, data.AllRows(), options, exec);
    EXPECT_TRUE(r.ok);
    return r.completion_time;
  };
  const double t1 = run(1);
  const double t3 = run(3);
  EXPECT_GT(t1 / t3, 1.7);
}

TEST(ParallelRsTest, MatchesSequentialModel) {
  Dataset data = SmallBenchmark("diabetes", 300);
  NyuMinerOptions options;
  options.rs_trials = 4;
  options.seed = 55;
  RsModel sequential = TrainNyuMinerRS(data, data.AllRows(), options, nullptr);
  ParallelExecOptions exec;
  exec.num_workers = 2;
  ParallelRsResult parallel =
      ParallelNyuMinerRS(data, data.AllRows(), options, exec);
  ASSERT_TRUE(parallel.ok);
  ASSERT_EQ(parallel.model.trees.size(), sequential.trees.size());
  EXPECT_EQ(parallel.model.rules.size(), sequential.rules.size());
  for (int row = 0; row < data.num_rows(); ++row) {
    ASSERT_EQ(parallel.model.rules.Classify(data.Row(row)),
              sequential.rules.Classify(data.Row(row)));
  }
}

TEST(ParallelRsTest, DeterministicCompletionTime) {
  Dataset data = SmallBenchmark("diabetes", 300);
  NyuMinerOptions options;
  options.rs_trials = 4;
  ParallelExecOptions exec;
  exec.num_workers = 2;
  exec.seconds_per_work_unit = 1e-4;
  ParallelRsResult a = ParallelNyuMinerRS(data, data.AllRows(), options, exec);
  ParallelRsResult b = ParallelNyuMinerRS(data, data.AllRows(), options, exec);
  ASSERT_TRUE(a.ok);
  EXPECT_DOUBLE_EQ(a.completion_time, b.completion_time);
}

}  // namespace
}  // namespace fpdm::classify
