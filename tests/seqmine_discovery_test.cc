#include <set>
#include <string>
#include <vector>

#include "core/parallel.h"
#include "core/traversal.h"
#include "gtest/gtest.h"
#include "seqmine/generator.h"
#include "seqmine/problem.h"
#include "seqmine/wang.h"

namespace fpdm::seqmine {
namespace {

std::set<std::string> MotifKeys(const std::vector<core::GoodPattern>& gps) {
  std::set<std::string> keys;
  for (const auto& gp : gps) keys.insert(gp.pattern.key);
  return keys;
}

TEST(GeneratorTest, ShapeMatchesConfig) {
  ProteinSetConfig config;
  config.num_sequences = 10;
  config.min_length = 50;
  config.max_length = 70;
  std::vector<std::string> seqs = GenerateProteinSet(config);
  ASSERT_EQ(seqs.size(), 10u);
  for (const auto& s : seqs) {
    EXPECT_GE(s.size(), 50u);
    EXPECT_LE(s.size(), 70u);
    for (char c : s) {
      EXPECT_NE(std::string(kAminoAcids).find(c), std::string::npos);
    }
  }
}

TEST(GeneratorTest, Deterministic) {
  ProteinSetConfig config = CyclinsLikeConfig();
  EXPECT_EQ(GenerateProteinSet(config), GenerateProteinSet(config));
}

TEST(GeneratorTest, PlantedMotifOccursExactly) {
  ProteinSetConfig config;
  config.num_sequences = 12;
  config.min_length = 60;
  config.max_length = 80;
  config.planted = {{"WWWWHHHHKKKK", 7, 0.0}};
  std::vector<std::string> seqs = GenerateProteinSet(config);
  int count = 0;
  for (const auto& s : seqs) {
    count += s.find("WWWWHHHHKKKK") != std::string::npos ? 1 : 0;
  }
  EXPECT_GE(count, 7);  // >= because random content could add occurrences
}

// A small sequence set with one planted motif of length 6 shared by 5 of 8
// sequences: the E-dag must find the motif and all its active subsegments.
class SeqProblemTest : public ::testing::Test {
 protected:
  SeqProblemTest() {
    ProteinSetConfig config;
    config.num_sequences = 8;
    config.min_length = 30;
    config.max_length = 40;
    config.seed = 321;
    config.planted = {{"MKWVTF", 5, 0.0}};
    sequences_ = GenerateProteinSet(config);
  }
  std::vector<std::string> sequences_;
};

TEST_F(SeqProblemTest, EdagFindsPlantedMotif) {
  SequenceMiningConfig config{/*min_length=*/4, /*min_occurrence=*/5,
                              /*max_mutations=*/0};
  SequenceMiningProblem problem(sequences_, config);
  core::MiningResult result = core::EdagTraversal(problem);
  auto motifs = SequenceMiningProblem::ReportableMotifs(result, 4);
  EXPECT_TRUE(MotifKeys(motifs).count("MKWVTF"))
      << "planted motif not discovered";
  // Every reported motif really is active.
  for (const auto& gp : motifs) {
    Motif m{{gp.pattern.key}};
    EXPECT_GE(OccurrenceNumber(m, sequences_, 0, nullptr), 5);
    EXPECT_GE(gp.pattern.length, 4);
  }
}

TEST_F(SeqProblemTest, RootPatternsAreObservedLetters) {
  SequenceMiningConfig config{4, 5, 0};
  SequenceMiningProblem problem(sequences_, config);
  auto roots = problem.RootPatterns();
  EXPECT_GT(roots.size(), 10u);   // most amino acids appear
  EXPECT_LE(roots.size(), 20u);   // never more than the alphabet
  for (const auto& r : roots) EXPECT_EQ(r.length, 1);
}

TEST_F(SeqProblemTest, ChildrenAreExactSubstrings) {
  SequenceMiningConfig config{4, 5, 0};
  SequenceMiningProblem problem(sequences_, config);
  core::Pattern p{"MKW", 3};
  for (const auto& child : problem.ChildPatterns(p)) {
    bool found = false;
    for (const auto& s : sequences_) {
      found |= s.find(child.key) != std::string::npos;
    }
    EXPECT_TRUE(found) << child.key << " generated but does not occur";
  }
}

TEST_F(SeqProblemTest, SubpatternsArePrefixAndSuffix) {
  SequenceMiningConfig config{4, 5, 0};
  SequenceMiningProblem problem(sequences_, config);
  auto subs = problem.ImmediateSubpatterns(core::Pattern{"ABC", 3});
  ASSERT_EQ(subs.size(), 2u);
  EXPECT_EQ(subs[0].key, "AB");
  EXPECT_EQ(subs[1].key, "BC");
  // Degenerate case: prefix == suffix.
  EXPECT_EQ(problem.ImmediateSubpatterns(core::Pattern{"AA", 2}).size(), 1u);
  EXPECT_TRUE(problem.ImmediateSubpatterns(core::Pattern{"A", 1}).empty());
}

TEST_F(SeqProblemTest, EtreeEqualsEdagResult) {
  SequenceMiningConfig config{4, 5, 0};
  SequenceMiningProblem problem(sequences_, config);
  EXPECT_EQ(MotifKeys(core::EdagTraversal(problem).good_patterns),
            MotifKeys(core::EtreeTraversal(problem).good_patterns));
}

TEST_F(SeqProblemTest, ParallelDiscoveryMatchesSequential) {
  SequenceMiningConfig config{4, 5, 0};
  SequenceMiningProblem problem(sequences_, config);
  core::MiningResult sequential = core::EdagTraversal(problem);
  for (core::Strategy s :
       {core::Strategy::kOptimistic, core::Strategy::kLoadBalanced}) {
    core::ParallelOptions options;
    options.strategy = s;
    options.num_workers = 4;
    core::ParallelResult parallel = core::MineParallel(problem, options);
    ASSERT_TRUE(parallel.ok);
    EXPECT_EQ(MotifKeys(parallel.mining.good_patterns),
              MotifKeys(sequential.good_patterns))
        << core::StrategyName(s);
  }
}

TEST_F(SeqProblemTest, MutationsWidenTheResult) {
  SequenceMiningConfig exact{4, 5, 0};
  SequenceMiningConfig fuzzy{4, 5, 1};
  SequenceMiningProblem exact_problem(sequences_, exact);
  SequenceMiningProblem fuzzy_problem(sequences_, fuzzy);
  auto exact_keys = MotifKeys(core::EdagTraversal(exact_problem).good_patterns);
  auto fuzzy_keys = MotifKeys(core::EdagTraversal(fuzzy_problem).good_patterns);
  // Every exactly-active motif is active within one mutation too.
  for (const auto& k : exact_keys) EXPECT_TRUE(fuzzy_keys.count(k)) << k;
  EXPECT_GE(fuzzy_keys.size(), exact_keys.size());
}

TEST_F(SeqProblemTest, TaskCostIsPositiveAndCached) {
  SequenceMiningConfig config{4, 5, 1};
  SequenceMiningProblem problem(sequences_, config);
  core::Pattern p{"MKWV", 4};
  double c1 = problem.TaskCost(p);
  EXPECT_GT(c1, 0);
  EXPECT_DOUBLE_EQ(problem.TaskCost(p), c1);
  EXPECT_DOUBLE_EQ(problem.Goodness(p),
                   OccurrenceNumber(Motif{{"MKWV"}}, sequences_, 1, nullptr));
}

TEST_F(SeqProblemTest, WangDiscoveryFindsPlantedMotif) {
  SequenceMiningConfig config{6, 5, 0};
  // Full set as sample: phase 1 candidates are complete for exact matching.
  WangResult wang = WangDiscovery(sequences_, config,
                                  static_cast<int>(sequences_.size()), 5);
  EXPECT_TRUE(MotifKeys(wang.motifs).count("MKWVTF"));
  EXPECT_GT(wang.candidates_evaluated + wang.candidates_skipped, 0u);
}

TEST_F(SeqProblemTest, WangAgreesWithEdagOnExactFullSample) {
  // With sample = full set, min occurrence as the sample threshold and no
  // mutations, Wang's candidate set covers every active motif, so the two
  // algorithms must report identical motif sets (>= min_length).
  SequenceMiningConfig config{5, 5, 0};
  SequenceMiningProblem problem(sequences_, config);
  auto edag_motifs = SequenceMiningProblem::ReportableMotifs(
      core::EdagTraversal(problem), config.min_length);
  WangResult wang = WangDiscovery(sequences_, config,
                                  static_cast<int>(sequences_.size()), 5);
  EXPECT_EQ(MotifKeys(wang.motifs), MotifKeys(edag_motifs));
}

TEST_F(SeqProblemTest, WangSubpatternOptimizationSkipsWork) {
  SequenceMiningConfig config{4, 5, 0};
  WangResult wang = WangDiscovery(sequences_, config,
                                  static_cast<int>(sequences_.size()), 5);
  // The planted length-6 motif guarantees skippable subsegments.
  EXPECT_GT(wang.candidates_skipped, 0u);
}

TEST(CyclinsLikeTest, SettingOneProfileResemblesPaper) {
  // The cyclins.pirx substitute must reproduce the structural profile the
  // paper reports (§4.3): ~20 top-level patterns and a few hundred
  // second-level patterns, with discoverable motifs.
  std::vector<std::string> seqs = GenerateProteinSet(CyclinsLikeConfig());
  ASSERT_EQ(seqs.size(), 47u);
  SequenceMiningConfig config{8, 9, 0};
  SequenceMiningProblem problem(seqs, config);
  auto roots = problem.RootPatterns();
  EXPECT_EQ(roots.size(), 20u);
  size_t second_level = 0;
  for (const auto& r : roots) second_level += problem.ChildPatterns(r).size();
  EXPECT_GT(second_level, 300u);
  EXPECT_LE(second_level, 400u);
  core::MiningResult result = core::EdagTraversal(problem);
  auto motifs = SequenceMiningProblem::ReportableMotifs(result, 8);
  EXPECT_GT(motifs.size(), 0u);
}

TEST(CostModelTest, SequentialTraversalCostsArePinned) {
  // TaskCost is the matcher's `cells`, the simulator's clock: a drift moves
  // Figs 4.8-4.14 and Table 4.2. These are bench_scaling's
  // BM_ScalingSeqmine inputs (min length 4, min occurrence 6) and the
  // values the row DP gives.
  ProteinSetConfig config;
  config.num_sequences = 16;
  config.min_length = 50;
  config.max_length = 70;
  config.seed = 321;
  config.planted = {{"MKWVTFISLLFL", 9, 0.0}, {"HKSEVAHRFK", 7, 0.0}};
  const std::vector<std::string> sequences = GenerateProteinSet(config);
  struct Pin {
    int max_mutations;
    size_t patterns_tested;
    size_t good_patterns;
    double total_task_cost;
  };
  const Pin pins[] = {{1, 2119, 1247, 7200705}, {2, 3306, 2454, 13701452}};
  for (const Pin& pin : pins) {
    const SequenceMiningProblem problem(sequences, {4, 6, pin.max_mutations});
    const core::MiningResult result = core::EtreeTraversal(problem);
    EXPECT_EQ(result.patterns_tested, pin.patterns_tested)
        << "k=" << pin.max_mutations;
    EXPECT_EQ(result.good_patterns.size(), pin.good_patterns)
        << "k=" << pin.max_mutations;
    EXPECT_EQ(result.total_task_cost, pin.total_task_cost)
        << "k=" << pin.max_mutations;
  }
}

}  // namespace
}  // namespace fpdm::seqmine
