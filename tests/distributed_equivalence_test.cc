// Bit-identical equivalence of ExecutionMode::kDistributed against the
// deterministic simulator (which parallel_equivalence_test.cc has already
// pinned to kRealParallel). The distributed backend forks one OS process
// per PLinda process and a tuple-space server process, so nothing here may
// rely on shared memory — every result must travel through the wire
// protocol and still come back byte-for-byte identical.

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "arm/problem.h"
#include "classify/parallel.h"
#include "core/parallel.h"
#include "data/benchmarks.h"
#include "gtest/gtest.h"
#include "plinda/runtime.h"
#include "plinda/tuple.h"
#include "seqmine/generator.h"
#include "seqmine/problem.h"

namespace fpdm {
namespace {

void ExpectSameMining(const core::ParallelResult& sim,
                      const core::ParallelResult& dist,
                      const std::string& label) {
  SCOPED_TRACE(label);
  ASSERT_TRUE(sim.ok);
  ASSERT_TRUE(dist.ok);
  EXPECT_EQ(sim.mining.patterns_tested, dist.mining.patterns_tested);
  EXPECT_EQ(sim.mining.total_task_cost, dist.mining.total_task_cost);
  ASSERT_EQ(sim.mining.good_patterns.size(), dist.mining.good_patterns.size());
  for (size_t i = 0; i < sim.mining.good_patterns.size(); ++i) {
    const core::GoodPattern& a = sim.mining.good_patterns[i];
    const core::GoodPattern& b = dist.mining.good_patterns[i];
    EXPECT_EQ(a.pattern.key, b.pattern.key) << "index " << i;
    EXPECT_EQ(a.pattern.length, b.pattern.length) << "index " << i;
    EXPECT_EQ(a.goodness, b.goodness) << "index " << i;
  }
}

core::ParallelResult RunMode(const core::MiningProblem& problem,
                             core::Strategy strategy,
                             plinda::ExecutionMode mode) {
  core::ParallelOptions options;
  options.strategy = strategy;
  options.execution_mode = mode;
  options.num_workers = 4;
  return core::MineParallel(problem, options);
}

TEST(DistributedEquivalenceTest, ItemsetsAllStrategies) {
  arm::BasketConfig config;
  config.num_transactions = 150;
  config.num_items = 20;
  config.avg_transaction_size = 6;
  config.patterns = {{{1, 4, 7}, 0.3}, {{2, 5}, 0.4}};
  const arm::ItemsetProblem problem(arm::GenerateBaskets(config),
                                    /*min_support=*/15);
  for (core::Strategy strategy :
       {core::Strategy::kPled, core::Strategy::kOptimistic,
        core::Strategy::kLoadBalanced, core::Strategy::kHybrid}) {
    const core::ParallelResult sim =
        RunMode(problem, strategy, plinda::ExecutionMode::kSimulated);
    const core::ParallelResult dist =
        RunMode(problem, strategy, plinda::ExecutionMode::kDistributed);
    ExpectSameMining(sim, dist, core::StrategyName(strategy));
    EXPECT_GE(dist.wall_time, 0.0);
    EXPECT_EQ(dist.completion_time, dist.wall_time);
    EXPECT_GT(dist.stats.tuple_ops, 0u);
  }
}

TEST(DistributedEquivalenceTest, DeferredProtocolCostsOneRoundTripPerCommit) {
  // The wire protocol (write coalescing + deferred transaction frames) must
  // be a pure transport optimization: same mining results as the simulator,
  // bit for bit. It must also keep its round-trip budget: a worker's
  // steady-state task loop [xcommit, xstart, blocking in] is one flush, so
  // the run costs about one round trip per committed transaction. One round
  // trip per tuple op reads about three per commit here and fails the bound.
  arm::BasketConfig config;
  config.num_transactions = 150;
  config.num_items = 20;
  config.avg_transaction_size = 6;
  config.patterns = {{{1, 4, 7}, 0.3}, {{2, 5}, 0.4}};
  const arm::ItemsetProblem problem(arm::GenerateBaskets(config),
                                    /*min_support=*/15);
  const core::ParallelResult sim =
      RunMode(problem, core::Strategy::kHybrid,
              plinda::ExecutionMode::kSimulated);
  const core::ParallelResult dist =
      RunMode(problem, core::Strategy::kHybrid,
              plinda::ExecutionMode::kDistributed);
  ExpectSameMining(sim, dist, "sim vs dist");
  ASSERT_GT(dist.stats.rpc_calls, 0u);  // the wire is metered
  ASSERT_GT(dist.stats.transactions_committed, 0u);
  EXPECT_LT(dist.stats.rpc_calls, 2 * dist.stats.transactions_committed)
      << dist.stats.transactions_committed << " commits";
  // The server reported the payload it moved: the transport counters must
  // be live, not zero-stubbed.
  EXPECT_GT(dist.stats.transport_bytes, 0u);
}

TEST(DistributedEquivalenceTest, TwoBucketTransactionsBitIdentical) {
  // A transaction whose destructive ins hit two different buckets must
  // leave the same effects behind in the simulator and on the server. Each
  // task claims ("t<i>", i) and ("u<i>", 10i) — twenty distinct bucket
  // keys — and retires ("res", i, 11i) in the same transaction.
  static constexpr int64_t kTasks = 10;
  auto run = [&](plinda::ExecutionMode mode) {
    plinda::RuntimeOptions options;
    options.mode = mode;
    plinda::Runtime runtime(1, options);
    for (int64_t i = 0; i < kTasks; ++i) {
      runtime.space().Out(plinda::MakeTuple("t" + std::to_string(i), i));
      runtime.space().Out(plinda::MakeTuple("u" + std::to_string(i), 10 * i));
    }
    runtime.SpawnOn("worker", 0, [](plinda::ProcessContext& ctx) {
      int64_t done = 0;
      plinda::Tuple cont;
      if (ctx.XRecover(&cont)) done = plinda::GetInt(cont, 1);
      while (done < kTasks) {
        ctx.XStart();
        plinda::Tuple a;
        ctx.In(plinda::MakeTemplate(plinda::A("t" + std::to_string(done)),
                                    plinda::F(plinda::ValueType::kInt)),
               &a);
        plinda::Tuple b;
        ctx.In(plinda::MakeTemplate(plinda::A("u" + std::to_string(done)),
                                    plinda::F(plinda::ValueType::kInt)),
               &b);
        ctx.Out(plinda::MakeTuple("res", done,
                                  plinda::GetInt(a, 1) + plinda::GetInt(b, 1)));
        ++done;
        ctx.XCommit(plinda::MakeTuple("progress", done));
      }
    });
    EXPECT_TRUE(runtime.Run()) << runtime.diagnostic();
    std::vector<std::pair<int64_t, int64_t>> results;
    plinda::Tuple t;
    while (runtime.space().TryIn(
        plinda::MakeTemplate(plinda::A("res"),
                             plinda::F(plinda::ValueType::kInt),
                             plinda::F(plinda::ValueType::kInt)),
        &t)) {
      results.emplace_back(plinda::GetInt(t, 1), plinda::GetInt(t, 2));
    }
    std::sort(results.begin(), results.end());
    return results;
  };
  const auto sim = run(plinda::ExecutionMode::kSimulated);
  const auto dist = run(plinda::ExecutionMode::kDistributed);
  ASSERT_EQ(sim.size(), static_cast<size_t>(kTasks));
  for (int64_t i = 0; i < kTasks; ++i) {
    EXPECT_EQ(sim[static_cast<size_t>(i)], std::make_pair(i, 11 * i)) << i;
  }
  EXPECT_EQ(sim, dist);
}

TEST(DistributedEquivalenceTest, SequenceMotifs) {
  seqmine::ProteinSetConfig config;
  config.num_sequences = 8;
  config.min_length = 30;
  config.max_length = 40;
  config.seed = 321;
  config.planted = {{"MKWVTF", 5, 0.0}};
  const seqmine::SequenceMiningProblem problem(
      seqmine::GenerateProteinSet(config),
      seqmine::SequenceMiningConfig{/*min_length=*/4, /*min_occurrence=*/5,
                                    /*max_mutations=*/0});
  for (core::Strategy strategy :
       {core::Strategy::kLoadBalanced, core::Strategy::kHybrid}) {
    const core::ParallelResult sim =
        RunMode(problem, strategy, plinda::ExecutionMode::kSimulated);
    const core::ParallelResult dist =
        RunMode(problem, strategy, plinda::ExecutionMode::kDistributed);
    ExpectSameMining(sim, dist, core::StrategyName(strategy));
  }
}

TEST(DistributedEquivalenceTest, NyuMinerCvTree) {
  data::BenchmarkSpec spec = data::SpecByName("diabetes");
  spec.rows = 300;
  const classify::Dataset data = data::GenerateBenchmark(spec);
  classify::NyuMinerOptions options;
  options.cv_folds = 4;
  options.seed = 123;
  const classify::DecisionTree sequential =
      classify::TrainNyuMinerCV(data, data.AllRows(), options, nullptr);

  auto run = [&](plinda::ExecutionMode mode) {
    classify::ParallelExecOptions exec;
    exec.num_workers = 4;
    exec.execution_mode = mode;
    return classify::ParallelNyuMinerCV(data, data.AllRows(), options, exec);
  };
  const classify::ParallelTreeResult sim =
      run(plinda::ExecutionMode::kSimulated);
  const classify::ParallelTreeResult dist =
      run(plinda::ExecutionMode::kDistributed);
  ASSERT_TRUE(sim.ok);
  ASSERT_TRUE(dist.ok) << "distributed run failed";
  // The tree crossed the process boundary serialized and must come back
  // byte-identical to the simulator's and the sequential trainer's.
  EXPECT_EQ(dist.tree.Serialize(), sim.tree.Serialize());
  EXPECT_EQ(dist.tree.Serialize(), sequential.Serialize());
  EXPECT_EQ(dist.total_work, sim.total_work);
  EXPECT_GE(dist.wall_time, 0.0);
}

TEST(DistributedEquivalenceTest, C45WindowedTree) {
  data::BenchmarkSpec spec = data::SpecByName("german");
  spec.rows = 300;
  const classify::Dataset data = data::GenerateBenchmark(spec);
  classify::C45Options options;
  options.window_trials = 4;
  options.seed = 7;

  auto run = [&](plinda::ExecutionMode mode) {
    classify::ParallelExecOptions exec;
    exec.num_workers = 3;
    exec.execution_mode = mode;
    return classify::ParallelC45(data, data.AllRows(), options, exec);
  };
  const classify::ParallelTreeResult sim =
      run(plinda::ExecutionMode::kSimulated);
  const classify::ParallelTreeResult dist =
      run(plinda::ExecutionMode::kDistributed);
  ASSERT_TRUE(sim.ok);
  ASSERT_TRUE(dist.ok) << "distributed run failed";
  EXPECT_EQ(dist.tree.Serialize(), sim.tree.Serialize());
  EXPECT_EQ(dist.total_work, sim.total_work);
}

}  // namespace
}  // namespace fpdm
