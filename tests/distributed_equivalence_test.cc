// Bit-identical equivalence of ExecutionMode::kDistributed against the
// deterministic simulator (which parallel_equivalence_test.cc has already
// pinned to kRealParallel). The distributed backend forks one OS process
// per PLinda process and a tuple-space server process, so nothing here may
// rely on shared memory — every result must travel through the wire
// protocol and still come back byte-for-byte identical.

#include <algorithm>
#include <cstdlib>
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

/// Shard-server count for the distributed runs: FPDM_TEST_SERVERS in the
/// environment (CI runs the whole suite at 3), default 1. The explicit
/// multi-server test below pins both counts regardless.
int TestServers() {
  const char* env = std::getenv("FPDM_TEST_SERVERS");
  if (env == nullptr || *env == '\0') return 1;
  const int n = std::atoi(env);
  return n > 0 ? n : 1;
}

/// Wire transport for the distributed runs: FPDM_TEST_TRANSPORT in the
/// environment ("unix" or "tcp"; CI re-runs the whole suite at tcp),
/// default unix. The explicit transport tests below pin theirs regardless.
std::string TestTransport() {
  const char* env = std::getenv("FPDM_TEST_TRANSPORT");
  if (env == nullptr || *env == '\0') return "unix";
  return env;
}

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
  options.runtime.distributed_servers = TestServers();
  options.runtime.distributed_transport = TestTransport();
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
}

TEST(DistributedEquivalenceTest, MultiServerPlacementBitIdentical) {
  // The tentpole of the sharded tuple space: splitting the buckets across
  // three SpaceServer processes is a pure placement decision. Mining
  // results must come back bit-identical to the simulator and to the
  // single-server runtime, and the scatter slow path must stay pipelined
  // (gather rounds do not scale with N).
  arm::BasketConfig config;
  config.num_transactions = 150;
  config.num_items = 20;
  config.avg_transaction_size = 6;
  config.patterns = {{{1, 4, 7}, 0.3}, {{2, 5}, 0.4}};
  const arm::ItemsetProblem problem(arm::GenerateBaskets(config),
                                    /*min_support=*/15);
  auto run = [&](int servers) {
    core::ParallelOptions options;
    options.strategy = core::Strategy::kHybrid;
    options.execution_mode = plinda::ExecutionMode::kDistributed;
    options.num_workers = 4;
    options.runtime.distributed_servers = servers;
    options.runtime.distributed_transport = TestTransport();
    return core::MineParallel(problem, options);
  };
  const core::ParallelResult sim =
      RunMode(problem, core::Strategy::kHybrid,
              plinda::ExecutionMode::kSimulated);
  const core::ParallelResult one = run(1);
  const core::ParallelResult three = run(3);
  ExpectSameMining(sim, one, "sim vs 1 server");
  ExpectSameMining(sim, three, "sim vs 3 servers");
  ExpectSameMining(one, three, "1 server vs 3 servers");

  // The workers publish their status per leg and the supervisor folds it
  // into the runtime stats. The miner's templates all lead with an actual
  // key, so every op is single-bucket-routed: with only a handful of
  // distinct (arity, key) buckets in play not every server is guaranteed
  // traffic, but the load must actually spread beyond one.
  ASSERT_EQ(three.stats.per_server_rpc_calls.size(), 3u);
  uint64_t legs_with_traffic = 0;
  uint64_t per_server_sum = 0;
  for (size_t k = 0; k < 3; ++k) {
    if (three.stats.per_server_rpc_calls[k] > 0) ++legs_with_traffic;
    per_server_sum += three.stats.per_server_rpc_calls[k];
  }
  EXPECT_GE(legs_with_traffic, 2u);
  EXPECT_GT(per_server_sum, 0u);
  ASSERT_EQ(one.stats.per_server_rpc_calls.size(), 1u);
  EXPECT_GT(one.stats.per_server_rpc_calls[0], 0u);
  // rpc_calls additionally meters the supervisor's control connections, so
  // the per-server worker totals can only account for part of it.
  EXPECT_LE(one.stats.per_server_rpc_calls[0], one.stats.rpc_calls);
  // Single-bucket workloads never hit the all-shard slow path; the
  // scatter/gather counters are exercised by the formal-first tests in
  // distributed_chaos_test.cc.
  EXPECT_EQ(one.stats.dist_scatter_ops, 0u);
}

TEST(DistributedEquivalenceTest, CrossServerTransactionsBitIdentical) {
  // With the single-server transaction affinity gone, a transaction whose
  // destructive ins hit buckets owned by two different servers must leave
  // the same effects behind in every mode: the simulator, one shard server
  // (every commit takes the coordinator-only fast path), and three shard
  // servers (the commits that span owners take the 2PC slow path). Each
  // task claims ("t<i>", i) and ("u<i>", 10i) — twenty distinct bucket
  // keys, so at three servers the pair frequently straddles two owners —
  // and retires ("res", i, 11i) in the same transaction.
  static constexpr int64_t kTasks = 10;
  auto run = [&](plinda::ExecutionMode mode, int servers) {
    plinda::RuntimeOptions options;
    options.mode = mode;
    options.distributed_servers = servers;
    options.distributed_transport = TestTransport();
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
  const auto sim = run(plinda::ExecutionMode::kSimulated, 1);
  const auto one = run(plinda::ExecutionMode::kDistributed, 1);
  const auto three = run(plinda::ExecutionMode::kDistributed, 3);
  ASSERT_EQ(sim.size(), static_cast<size_t>(kTasks));
  for (int64_t i = 0; i < kTasks; ++i) {
    EXPECT_EQ(sim[static_cast<size_t>(i)], std::make_pair(i, 11 * i)) << i;
  }
  EXPECT_EQ(sim, one);
  EXPECT_EQ(one, three);
}

TEST(DistributedEquivalenceTest, TransportTcpBitIdentical) {
  // The TCP transport is a pure wire substitution: the same mining run over
  // loopback TCP sockets (port-0 listeners pre-bound by the supervisor)
  // must come back bit-identical to the simulator and to the Unix-domain
  // runs, at one shard server and at three (peer forwarding and 2PC legs
  // then also ride TCP). Transports are pinned here regardless of
  // FPDM_TEST_TRANSPORT so the test is meaningful on every CI leg.
  arm::BasketConfig config;
  config.num_transactions = 150;
  config.num_items = 20;
  config.avg_transaction_size = 6;
  config.patterns = {{{1, 4, 7}, 0.3}, {{2, 5}, 0.4}};
  const arm::ItemsetProblem problem(arm::GenerateBaskets(config),
                                    /*min_support=*/15);
  auto run = [&](const std::string& transport, int servers) {
    core::ParallelOptions options;
    options.strategy = core::Strategy::kHybrid;
    options.execution_mode = plinda::ExecutionMode::kDistributed;
    options.num_workers = 4;
    options.runtime.distributed_servers = servers;
    options.runtime.distributed_transport = transport;
    return core::MineParallel(problem, options);
  };
  const core::ParallelResult sim =
      RunMode(problem, core::Strategy::kHybrid,
              plinda::ExecutionMode::kSimulated);
  const core::ParallelResult unix_one = run("unix", 1);
  const core::ParallelResult tcp_one = run("tcp", 1);
  const core::ParallelResult tcp_three = run("tcp", 3);
  ExpectSameMining(sim, tcp_one, "sim vs tcp 1 server");
  ExpectSameMining(unix_one, tcp_one, "unix vs tcp 1 server");
  ExpectSameMining(tcp_one, tcp_three, "tcp 1 server vs tcp 3 servers");
  // The servers reported the payload they moved: the transport counters
  // must be live, not zero-stubbed.
  EXPECT_GT(tcp_one.stats.transport_bytes, 0u);
  ASSERT_EQ(tcp_three.stats.per_server_rpc_calls.size(), 3u);
  uint64_t legs_with_traffic = 0;
  for (size_t k = 0; k < 3; ++k) {
    if (tcp_three.stats.per_server_rpc_calls[k] > 0) ++legs_with_traffic;
  }
  EXPECT_GE(legs_with_traffic, 2u);
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
    exec.runtime.distributed_transport = TestTransport();
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
    exec.runtime.distributed_transport = TestTransport();
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
