// The miners' masters run on machine 0, keep their state in locals and
// never XRecover, so a respawned master starts over and its run used to
// report a wrong result as ok. Until masters commit continuations, every
// driver refuses a fault schedule that fails machine 0: it returns
// ok = false without running. Each driver's machine 0 is killed at 8
// evenly spaced times of its failure-free run through `failures`, and
// retreats once through a fault plan.

#include <string>
#include <vector>

#include "arm/problem.h"
#include "classify/parallel.h"
#include "core/parallel.h"
#include "data/benchmarks.h"
#include "gtest/gtest.h"
#include "plinda/chaos.h"

namespace fpdm {
namespace {

std::vector<double> KillTimes(double completion_time) {
  constexpr int kKillTimes = 8;
  std::vector<double> times;
  for (int k = 0; k < kKillTimes; ++k) {
    times.push_back(completion_time * (k + 0.5) / kKillTimes);
  }
  return times;
}

plinda::FaultPlan RetreatOfMachineZero(double when) {
  plinda::FaultPlan plan;
  plan.events = {
      {plinda::FaultEvent::Kind::kMachineRetreat, when, /*machine=*/0},
      {plinda::FaultEvent::Kind::kMachineRecover, 2 * when, /*machine=*/0}};
  return plan;
}

// Runs `run` with machine 0 failed at every kill time of `clean_time`, then
// with the fault-plan retreat, and expects each run refused before any
// tuple op.
template <typename Options, typename Run>
void ExpectRefused(Options options, double clean_time, Run run) {
  for (const double when : KillTimes(clean_time)) {
    SCOPED_TRACE("machine 0 killed at t=" + std::to_string(when));
    options.failures = {{0, when}};
    const auto result = run(options);
    EXPECT_FALSE(result.ok);
    EXPECT_EQ(result.stats.tuple_ops, 0u);
  }
  SCOPED_TRACE("machine 0 retreats in the fault plan");
  options.failures.clear();
  options.fault_plan = RetreatOfMachineZero(clean_time / 2);
  const auto result = run(options);
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.stats.tuple_ops, 0u);
}

TEST(MasterFaultTest, AprioriStrategiesRefuseToLoseTheirMaster) {
  arm::BasketConfig config;
  config.num_items = 16;
  config.num_transactions = 200;
  config.avg_transaction_size = 6;
  const arm::ItemsetProblem problem(arm::GenerateBaskets(config),
                                    /*min_support=*/20);
  for (core::Strategy strategy :
       {core::Strategy::kPled, core::Strategy::kOptimistic,
        core::Strategy::kLoadBalanced, core::Strategy::kHybrid}) {
    SCOPED_TRACE(core::StrategyName(strategy));
    core::ParallelOptions options;
    options.strategy = strategy;
    options.num_workers = 4;
    const core::ParallelResult clean = core::MineParallel(problem, options);
    ASSERT_TRUE(clean.ok);
    ExpectRefused(options, clean.completion_time,
                  [&](const core::ParallelOptions& faulty) {
                    return core::MineParallel(problem, faulty);
                  });
  }
}

TEST(MasterFaultTest, ClassifyDriversRefuseToLoseTheirMaster) {
  data::BenchmarkSpec spec = data::SpecByName("diabetes");
  spec.rows = 300;
  const classify::Dataset data = data::GenerateBenchmark(spec);
  const std::vector<int> rows = data.AllRows();
  classify::ParallelExecOptions exec;
  exec.num_workers = 3;
  exec.seconds_per_work_unit = 1e-3;

  classify::NyuMinerOptions cv;
  cv.cv_folds = 6;
  {
    SCOPED_TRACE("ParallelNyuMinerCV");
    const classify::ParallelTreeResult clean =
        classify::ParallelNyuMinerCV(data, rows, cv, exec);
    ASSERT_TRUE(clean.ok);
    ExpectRefused(exec, clean.completion_time,
                  [&](const classify::ParallelExecOptions& faulty) {
                    return classify::ParallelNyuMinerCV(data, rows, cv, faulty);
                  });
  }
  classify::C45Options c45;
  c45.window_trials = 6;
  {
    SCOPED_TRACE("ParallelC45");
    const classify::ParallelTreeResult clean =
        classify::ParallelC45(data, rows, c45, exec);
    ASSERT_TRUE(clean.ok);
    ExpectRefused(exec, clean.completion_time,
                  [&](const classify::ParallelExecOptions& faulty) {
                    return classify::ParallelC45(data, rows, c45, faulty);
                  });
  }
  classify::NyuMinerOptions rs;
  rs.rs_trials = 6;
  {
    SCOPED_TRACE("ParallelNyuMinerRS");
    const classify::ParallelRsResult clean =
        classify::ParallelNyuMinerRS(data, rows, rs, exec);
    ASSERT_TRUE(clean.ok);
    ExpectRefused(exec, clean.completion_time,
                  [&](const classify::ParallelExecOptions& faulty) {
                    return classify::ParallelNyuMinerRS(data, rows, rs, faulty);
                  });
  }
}

}  // namespace
}  // namespace fpdm
