#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/mining_problem.h"
#include "core/parallel.h"
#include "core/traversal.h"
#include "gtest/gtest.h"

namespace fpdm::core {
namespace {

// A small frequent-itemset problem used to exercise the frameworks: the
// pattern lattice is the subset lattice over `num_items` items, goodness is
// support over a fixed transaction list, good means support >= min_support.
// This satisfies all the structural contracts of MiningProblem (unique
// parent: extend with a strictly larger item; immediate subpatterns: all
// (k-1)-subsets; anti-monotone goodness).
class ToyItemsetProblem : public MiningProblem {
 public:
  ToyItemsetProblem(int num_items, std::vector<std::vector<int>> transactions,
                    int min_support)
      : num_items_(num_items),
        transactions_(std::move(transactions)),
        min_support_(min_support) {}

  static std::string Encode(const std::vector<int>& items) {
    std::string key;
    for (size_t i = 0; i < items.size(); ++i) {
      if (i > 0) key += ',';
      key += std::to_string(items[i]);
    }
    return key;
  }

  static std::vector<int> Decode(const std::string& key) {
    std::vector<int> items;
    std::stringstream ss(key);
    std::string token;
    while (std::getline(ss, token, ',')) items.push_back(std::stoi(token));
    return items;
  }

  std::vector<Pattern> RootPatterns() const override {
    std::vector<Pattern> roots;
    for (int i = 0; i < num_items_; ++i) {
      roots.push_back(Pattern{std::to_string(i), 1});
    }
    return roots;
  }

  std::vector<Pattern> ChildPatterns(const Pattern& pattern) const override {
    std::vector<int> items = Decode(pattern.key);
    std::vector<Pattern> children;
    for (int i = items.back() + 1; i < num_items_; ++i) {
      std::vector<int> child = items;
      child.push_back(i);
      children.push_back(Pattern{Encode(child), pattern.length + 1});
    }
    return children;
  }

  std::vector<Pattern> ImmediateSubpatterns(const Pattern& pattern) const override {
    std::vector<int> items = Decode(pattern.key);
    std::vector<Pattern> subs;
    if (items.size() <= 1) return subs;
    for (size_t skip = 0; skip < items.size(); ++skip) {
      std::vector<int> sub;
      for (size_t i = 0; i < items.size(); ++i) {
        if (i != skip) sub.push_back(items[i]);
      }
      subs.push_back(Pattern{Encode(sub), pattern.length - 1});
    }
    return subs;
  }

  double Goodness(const Pattern& pattern) const override {
    std::vector<int> items = Decode(pattern.key);
    int support = 0;
    for (const auto& txn : transactions_) {
      bool all = true;
      for (int item : items) {
        bool found = false;
        for (int t : txn) found |= (t == item);
        if (!found) {
          all = false;
          break;
        }
      }
      support += all;
    }
    return support;
  }

  bool IsGood(const Pattern&, double goodness) const override {
    return goodness >= min_support_;
  }

  double TaskCost(const Pattern& pattern) const override {
    return 10.0 + 5.0 * pattern.length;
  }

 private:
  int num_items_;
  std::vector<std::vector<int>> transactions_;
  int min_support_;
};

ToyItemsetProblem MakeToyProblem() {
  // 6 items, 12 transactions, min support 4: gives a 3-level lattice with
  // real pruning.
  std::vector<std::vector<int>> txns = {
      {0, 1, 2}, {0, 1, 3}, {0, 1, 2, 3}, {1, 2, 4}, {0, 2, 3}, {0, 1},
      {2, 3, 4}, {0, 1, 2}, {1, 3, 5},    {0, 2},    {1, 2, 3}, {0, 1, 4},
  };
  return ToyItemsetProblem(6, txns, 4);
}

std::set<std::string> Keys(const MiningResult& result) {
  std::set<std::string> keys;
  for (const auto& gp : result.good_patterns) keys.insert(gp.pattern.key);
  return keys;
}

// Brute force over all itemsets, the ground truth.
std::set<std::string> BruteForce(const ToyItemsetProblem& problem, int n) {
  std::set<std::string> good;
  for (int mask = 1; mask < (1 << n); ++mask) {
    std::vector<int> items;
    for (int i = 0; i < n; ++i) {
      if (mask & (1 << i)) items.push_back(i);
    }
    Pattern p{ToyItemsetProblem::Encode(items), static_cast<int>(items.size())};
    if (problem.IsGood(p, problem.Goodness(p))) good.insert(p.key);
  }
  return good;
}

TEST(EdagTraversalTest, FindsAllGoodPatterns) {
  ToyItemsetProblem problem = MakeToyProblem();
  MiningResult result = EdagTraversal(problem);
  EXPECT_EQ(Keys(result), BruteForce(problem, 6));
  EXPECT_FALSE(result.good_patterns.empty());
}

TEST(EdagTraversalTest, GoodnessValuesAreRecorded) {
  ToyItemsetProblem problem = MakeToyProblem();
  MiningResult result = EdagTraversal(problem);
  for (const auto& gp : result.good_patterns) {
    EXPECT_DOUBLE_EQ(gp.goodness, problem.Goodness(gp.pattern));
    EXPECT_GE(gp.goodness, 4.0);
  }
}

TEST(EdagTraversalTest, ResultsSortedByLengthThenKey) {
  ToyItemsetProblem problem = MakeToyProblem();
  MiningResult result = EdagTraversal(problem);
  for (size_t i = 1; i < result.good_patterns.size(); ++i) {
    const auto& a = result.good_patterns[i - 1].pattern;
    const auto& b = result.good_patterns[i].pattern;
    EXPECT_TRUE(a.length < b.length || (a.length == b.length && a.key < b.key));
  }
}

// Lemma 2: an E-tree traversal finds exactly the same good patterns.
TEST(EtreeTraversalTest, SameResultAsEdag) {
  ToyItemsetProblem problem = MakeToyProblem();
  EXPECT_EQ(Keys(EtreeTraversal(problem)), Keys(EdagTraversal(problem)));
}

// The E-dag prunes at least as much as the E-tree (it checks every
// immediate subpattern, not just the parent).
TEST(EtreeTraversalTest, EdagTestsNoMorePatternsThanEtree) {
  ToyItemsetProblem problem = MakeToyProblem();
  MiningResult edag = EdagTraversal(problem);
  MiningResult etree = EtreeTraversal(problem);
  EXPECT_LE(edag.patterns_tested, etree.patterns_tested);
  EXPECT_LT(edag.patterns_tested, 64u);  // far fewer than the full lattice
}

TEST(EtreeTraversalTest, SubtreeTraversalCoversOnlySubtree) {
  ToyItemsetProblem problem = MakeToyProblem();
  Pattern root{"0", 1};
  MiningResult sub = EtreeTraversalFrom(problem, root);
  for (const auto& gp : sub.good_patterns) {
    // Every pattern in the subtree of "0" starts with item 0.
    EXPECT_EQ(gp.pattern.key.rfind("0", 0), 0u);
  }
}

class ParallelStrategyTest : public ::testing::TestWithParam<Strategy> {};

// Theorems 2-4: every parallel strategy produces the same good patterns as
// the optimal sequential program.
TEST_P(ParallelStrategyTest, MatchesSequentialResult) {
  ToyItemsetProblem problem = MakeToyProblem();
  MiningResult sequential = EdagTraversal(problem);
  ParallelOptions options;
  options.strategy = GetParam();
  options.num_workers = 4;
  ParallelResult parallel = MineParallel(problem, options);
  ASSERT_TRUE(parallel.ok);
  EXPECT_EQ(Keys(parallel.mining), Keys(sequential));
}

TEST_P(ParallelStrategyTest, SingleWorkerAlsoCorrect) {
  ToyItemsetProblem problem = MakeToyProblem();
  ParallelOptions options;
  options.strategy = GetParam();
  options.num_workers = 1;
  ParallelResult parallel = MineParallel(problem, options);
  ASSERT_TRUE(parallel.ok);
  EXPECT_EQ(Keys(parallel.mining), Keys(EdagTraversal(problem)));
}

TEST_P(ParallelStrategyTest, DeterministicAcrossRuns) {
  ToyItemsetProblem problem = MakeToyProblem();
  ParallelOptions options;
  options.strategy = GetParam();
  options.num_workers = 3;
  ParallelResult a = MineParallel(problem, options);
  ParallelResult b = MineParallel(problem, options);
  ASSERT_TRUE(a.ok);
  EXPECT_DOUBLE_EQ(a.completion_time, b.completion_time);
  EXPECT_EQ(a.mining.patterns_tested, b.mining.patterns_tested);
}

TEST_P(ParallelStrategyTest, SurvivesWorkerMachineFailure) {
  ToyItemsetProblem problem = MakeToyProblem();
  ParallelOptions options;
  options.strategy = GetParam();
  options.num_workers = 4;
  const ParallelResult clean = MineParallel(problem, options);
  ASSERT_TRUE(clean.ok);
  // Machine 3 dies at one of several points of the run; its worker respawns
  // elsewhere and the aborted task's tuple is restored, so the result must
  // be unchanged. That includes the totals: a kill that lands after an
  // evaluation was recorded must not count the redone pattern twice.
  constexpr int kKillTimes = 8;
  for (int k = 0; k < kKillTimes; ++k) {
    const double when = clean.completion_time * (k + 0.5) / kKillTimes;
    SCOPED_TRACE("machine 3 killed at t=" + std::to_string(when));
    options.failures = {{3, when}};
    const ParallelResult parallel = MineParallel(problem, options);
    ASSERT_TRUE(parallel.ok);
    EXPECT_EQ(Keys(parallel.mining), Keys(EdagTraversal(problem)));
    EXPECT_EQ(parallel.mining.patterns_tested, clean.mining.patterns_tested);
    EXPECT_EQ(parallel.mining.total_task_cost, clean.mining.total_task_cost);
    EXPECT_GE(parallel.stats.processes_killed, 1u);
    EXPECT_GE(parallel.stats.processes_respawned, 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, ParallelStrategyTest,
                         ::testing::Values(Strategy::kPled,
                                           Strategy::kOptimistic,
                                           Strategy::kLoadBalanced,
                                           Strategy::kHybrid),
                         [](const ::testing::TestParamInfo<Strategy>& info) {
                           return std::string(StrategyName(info.param)) ==
                                          "load-balanced"
                                      ? "LoadBalanced"
                                      : StrategyName(info.param);
                         });

// Theorem 2: PLED tests exactly the patterns the sequential E-dag tests.
TEST(ParallelTest, PledIsEdagEquivalent) {
  ToyItemsetProblem problem = MakeToyProblem();
  MiningResult edag = EdagTraversal(problem);
  ParallelOptions options;
  options.strategy = Strategy::kPled;
  options.num_workers = 4;
  ParallelResult parallel = MineParallel(problem, options);
  ASSERT_TRUE(parallel.ok);
  EXPECT_EQ(parallel.mining.patterns_tested, edag.patterns_tested);
}

// E-tree strategies test exactly the E-tree set.
TEST(ParallelTest, EtreeStrategiesMatchEtreeTestedCount) {
  ToyItemsetProblem problem = MakeToyProblem();
  MiningResult etree = EtreeTraversal(problem);
  for (Strategy s : {Strategy::kOptimistic, Strategy::kLoadBalanced}) {
    ParallelOptions options;
    options.strategy = s;
    options.num_workers = 3;
    ParallelResult parallel = MineParallel(problem, options);
    ASSERT_TRUE(parallel.ok);
    EXPECT_EQ(parallel.mining.patterns_tested, etree.patterns_tested)
        << StrategyName(s);
  }
}

// The hybrid tests at most the E-tree set and at least the E-dag set.
TEST(ParallelTest, HybridTestedCountBetweenEdagAndEtree) {
  ToyItemsetProblem problem = MakeToyProblem();
  ParallelOptions options;
  options.strategy = Strategy::kHybrid;
  options.num_workers = 3;
  ParallelResult parallel = MineParallel(problem, options);
  ASSERT_TRUE(parallel.ok);
  EXPECT_GE(parallel.mining.patterns_tested,
            EdagTraversal(problem).patterns_tested);
  EXPECT_LE(parallel.mining.patterns_tested,
            EtreeTraversal(problem).patterns_tested);
}

TEST(ParallelTest, MoreWorkersFinishSooner) {
  ToyItemsetProblem problem = MakeToyProblem();
  auto run = [&](int workers) {
    ParallelOptions options;
    options.strategy = Strategy::kLoadBalanced;
    options.num_workers = workers;
    ParallelResult r = MineParallel(problem, options);
    EXPECT_TRUE(r.ok);
    return r.completion_time;
  };
  double t1 = run(1);
  double t4 = run(4);
  EXPECT_LT(t4, t1);
  EXPECT_GT(t1 / t4, 1.5);  // real speedup, not noise
}

TEST(ParallelTest, AdaptiveMasterPicksDeeperLevelForManyWorkers) {
  ToyItemsetProblem problem = MakeToyProblem();
  ParallelOptions options;
  options.strategy = Strategy::kOptimistic;
  options.adaptive_master = true;
  options.adaptive_threshold = 3;
  options.num_workers = 4;  // >= threshold: master expands level 1 itself
  ParallelResult parallel = MineParallel(problem, options);
  ASSERT_TRUE(parallel.ok);
  EXPECT_EQ(Keys(parallel.mining), Keys(EdagTraversal(problem)));
}

TEST(ParallelTest, InitialLevelTwoStillCorrect) {
  ToyItemsetProblem problem = MakeToyProblem();
  for (Strategy s : {Strategy::kOptimistic, Strategy::kLoadBalanced}) {
    ParallelOptions options;
    options.strategy = s;
    options.num_workers = 4;
    options.initial_level = 2;
    ParallelResult parallel = MineParallel(problem, options);
    ASSERT_TRUE(parallel.ok);
    EXPECT_EQ(Keys(parallel.mining), Keys(EdagTraversal(problem)))
        << StrategyName(s);
  }
}

// The load-balanced master drains every waiting report in one transaction,
// and the simulator bills each drained report what one transaction per
// report cost, so virtual time and tuple ops stay those of the one-report
// master. Twelve-millisecond tasks on 8 workers pile the reports up.
TEST(ParallelTest, DrainingMasterKeepsTheOneReportMastersVirtualTime) {
  ToyItemsetProblem problem = MakeToyProblem();
  ParallelOptions options;
  options.strategy = Strategy::kLoadBalanced;
  options.num_workers = 8;
  options.seconds_per_work_unit = 0.001;
  const ParallelResult parallel = MineParallel(problem, options);
  ASSERT_TRUE(parallel.ok);
  const MiningResult etree = EtreeTraversal(problem);
  EXPECT_EQ(Keys(parallel.mining), Keys(etree));
  EXPECT_EQ(parallel.mining.patterns_tested, etree.patterns_tested);
  // Pinned from the one-report-per-transaction master.
  EXPECT_EQ(parallel.completion_time, 3.7049999999999854);
  EXPECT_EQ(parallel.stats.tuple_ops, 161u);
  // Each task is one worker commit and one report; each worker commits its
  // poison; the master commits its first tasks, its drains and the poison.
  const uint64_t reports = parallel.mining.patterns_tested;
  const uint64_t master_commits = parallel.stats.transactions_committed -
                                  reports - options.num_workers;
  EXPECT_LT(master_commits - 2, reports);
}

TEST(ParallelTest, WorkUnitsMatchSequentialCostWithoutFailures) {
  ToyItemsetProblem problem = MakeToyProblem();
  MiningResult etree = EtreeTraversal(problem);
  ParallelOptions options;
  options.strategy = Strategy::kLoadBalanced;
  options.num_workers = 2;
  ParallelResult parallel = MineParallel(problem, options);
  ASSERT_TRUE(parallel.ok);
  EXPECT_DOUBLE_EQ(parallel.mining.total_task_cost, etree.total_task_cost);
  EXPECT_DOUBLE_EQ(parallel.stats.total_work, etree.total_task_cost);
}

}  // namespace
}  // namespace fpdm::core
