#include "seqmine/motif.h"

#include <algorithm>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "seqmine/generator.h"
#include "util/random.h"

namespace fpdm::seqmine {
namespace {

Motif M(std::initializer_list<std::string> segments) {
  Motif m;
  for (const auto& s : segments) m.segments.push_back(s);
  return m;
}

TEST(MotifTest, EncodeDecodeRoundTrip) {
  Motif m = M({"AB", "CDE"});
  EXPECT_EQ(m.Encode(), "AB*CDE");
  EXPECT_EQ(Motif::Decode("AB*CDE"), m);
  EXPECT_EQ(Motif::Decode("ABC"), M({"ABC"}));
  EXPECT_EQ(m.NumLetters(), 5);
  EXPECT_EQ(m.ToString(), "*AB*CDE*");
}

TEST(MotifMatchTest, ExactSingleSegment) {
  EXPECT_TRUE(MatchesWithin(M({"RR"}), "FFRR", 0, nullptr));
  EXPECT_TRUE(MatchesWithin(M({"RR"}), "MRRM", 0, nullptr));
  EXPECT_FALSE(MatchesWithin(M({"RR"}), "MTRM", 0, nullptr));
  EXPECT_TRUE(MatchesWithin(M({"RM"}), "MTRM", 0, nullptr));
}

TEST(MotifMatchTest, PaperToyExample) {
  // §2.3.1: D={FFRR, MRRM, MTRM, DPKY, AVLG}; good patterns of length >= 2
  // occurring in >= 2 sequences are *RR* and *RM*.
  std::vector<std::string> d = {"FFRR", "MRRM", "MTRM", "DPKY", "AVLG"};
  EXPECT_EQ(OccurrenceNumber(M({"RR"}), d, 0, nullptr), 2);
  EXPECT_EQ(OccurrenceNumber(M({"RM"}), d, 0, nullptr), 2);
  EXPECT_EQ(OccurrenceNumber(M({"FF"}), d, 0, nullptr), 1);
}

TEST(MotifMatchTest, ExactMultiSegmentOrdering) {
  // Segments must appear in order on disjoint stretches.
  EXPECT_TRUE(MatchesWithin(M({"AB", "CD"}), "xxABxxCDxx", 0, nullptr));
  EXPECT_FALSE(MatchesWithin(M({"CD", "AB"}), "xxABxxCDxx", 0, nullptr));
  // Overlap is not allowed: ABC then CD needs two C's.
  EXPECT_FALSE(MatchesWithin(M({"ABC", "CD"}), "xxABCDxx", 0, nullptr));
  EXPECT_TRUE(MatchesWithin(M({"ABC", "CD"}), "ABCxCD", 0, nullptr));
}

TEST(MotifMatchTest, AdjacentSegmentsZeroLengthVldc) {
  // A VLDC may substitute for zero letters.
  EXPECT_TRUE(MatchesWithin(M({"AB", "CD"}), "ABCD", 0, nullptr));
}

TEST(MotifMatchTest, MismatchMutation) {
  EXPECT_FALSE(MatchesWithin(M({"ABCD"}), "xxABXDxx", 0, nullptr));
  EXPECT_TRUE(MatchesWithin(M({"ABCD"}), "xxABXDxx", 1, nullptr));
  EXPECT_EQ(MatchDistance(M({"ABCD"}), "xxABXDxx", 3, nullptr), 1);
}

TEST(MotifMatchTest, DeletionMutation) {
  // Sequence lacks one motif letter.
  EXPECT_EQ(MatchDistance(M({"ABCD"}), "xxABDxx", 3, nullptr), 1);
}

TEST(MotifMatchTest, InsertionMutation) {
  // Sequence has an extra letter inside the motif occurrence.
  EXPECT_EQ(MatchDistance(M({"ABCD"}), "xxABzCDxx", 3, nullptr), 1);
}

TEST(MotifMatchTest, DistanceCapsAtBudgetPlusOne) {
  EXPECT_EQ(MatchDistance(M({"AAAA"}), "zzzz", 2, nullptr), 3);
}

TEST(MotifMatchTest, MutationsSharedAcrossSegments) {
  // One mutation in each segment: needs a budget of 2.
  Motif m = M({"ABC", "DEF"});
  const std::string seq = "xAXCyyDXFz";
  EXPECT_FALSE(MatchesWithin(m, seq, 1, nullptr));
  EXPECT_TRUE(MatchesWithin(m, seq, 2, nullptr));
}

TEST(MotifMatchTest, EmptyMotifMatchesEverything) {
  EXPECT_EQ(MatchDistance(Motif{}, "anything", 0, nullptr), 0);
}

TEST(MotifMatchTest, MatchAgainstEmptySequence) {
  EXPECT_FALSE(MatchesWithin(M({"AB"}), "", 1, nullptr));
  EXPECT_TRUE(MatchesWithin(M({"AB"}), "", 2, nullptr));  // delete both
}

TEST(MotifMatchTest, StatsCountWork) {
  MatchStats exact_stats;
  MatchesWithin(M({"AB"}), "xxxxABxxxx", 0, &exact_stats);
  EXPECT_GT(exact_stats.cells, 0u);
  MatchStats dp_stats;
  MatchesWithin(M({"AB"}), "xxxxABxxxx", 1, &dp_stats);
  EXPECT_GT(dp_stats.cells, exact_stats.cells);  // DP touches more cells
}

TEST(MotifMatchTest, CutoffKeepsCostLow) {
  // A hopeless long motif should abort after ~budget rows, not |motif| rows.
  std::string motif_str(50, 'A');
  std::string seq(200, 'z');
  MatchStats stats;
  MatchesWithin(M({motif_str}), seq, 2, &stats);
  EXPECT_LT(stats.cells, 5u * 201u);  // ~budget+2 rows of 201 cells
}

TEST(MotifMatchTest, ExactnessOfDpAgainstBruteForce) {
  // Cross-check the chained DP against exhaustive alignment on tiny inputs.
  // Brute force: try every split of the sequence into (gap, s1, gap, s2,
  // gap) and take the best edit-distance sum.
  auto edit_distance = [](const std::string& a, const std::string& b) {
    std::vector<std::vector<int>> d(a.size() + 1,
                                    std::vector<int>(b.size() + 1, 0));
    for (size_t i = 0; i <= a.size(); ++i) d[i][0] = static_cast<int>(i);
    for (size_t j = 0; j <= b.size(); ++j) d[0][j] = static_cast<int>(j);
    for (size_t i = 1; i <= a.size(); ++i) {
      for (size_t j = 1; j <= b.size(); ++j) {
        d[i][j] = std::min({d[i - 1][j] + 1, d[i][j - 1] + 1,
                            d[i - 1][j - 1] + (a[i - 1] != b[j - 1])});
      }
    }
    return d[a.size()][b.size()];
  };
  const std::string seq = "ABXCDYAB";
  const Motif m = M({"ABC", "AB"});
  int best = 100;
  for (size_t s1 = 0; s1 <= seq.size(); ++s1) {
    for (size_t e1 = s1; e1 <= seq.size(); ++e1) {
      for (size_t s2 = e1; s2 <= seq.size(); ++s2) {
        for (size_t e2 = s2; e2 <= seq.size(); ++e2) {
          best = std::min(best,
                          edit_distance(m.segments[0], seq.substr(s1, e1 - s1)) +
                              edit_distance(m.segments[1], seq.substr(s2, e2 - s2)));
        }
      }
    }
  }
  EXPECT_EQ(MatchDistance(m, seq, 10, nullptr), best);
}

std::string RandomLetters(util::Rng& rng, const std::string& alphabet,
                          int length) {
  std::string letters;
  for (int i = 0; i < length; ++i) {
    letters += alphabet[rng.NextBounded(alphabet.size())];
  }
  return letters;
}

// `text` after `edits` random substitutions, insertions and deletions.
std::string Mutate(util::Rng& rng, const std::string& alphabet,
                   std::string text, int edits) {
  for (int e = 0; e < edits; ++e) {
    const size_t at = rng.NextBounded(text.size() + 1);
    const char letter = alphabet[rng.NextBounded(alphabet.size())];
    switch (rng.NextBounded(3)) {
      case 0:
        if (at < text.size()) text[at] = letter;
        break;
      case 1:
        text.insert(at, 1, letter);
        break;
      default:
        if (at < text.size()) text.erase(at, 1);
        break;
    }
  }
  return text;
}

TEST(MotifMatchTest, BitParallelMatchesTheRowDp) {
  // The row DP defines both the distance and `cells`; the bit-parallel
  // matcher must reproduce both, through every entry point. A 63-letter
  // segment fills a word, 64 and 80 letters take the DP. Sequences carry
  // mutated copies of the segments, so matches within budget are common.
  const std::vector<int> lengths = {0, 1, 2, 3, 4, 5, 6, 7, 8, 63, 64, 80};
  const std::vector<int> budgets = {-1, 0, 1, 2, 3, 5, 64};
  util::Rng rng(24);
  int chained_matches = 0;  // within a positive budget, 2+ segments
  for (int trial = 0; trial < 600; ++trial) {
    // 2 to 6 letters, or the 20 amino acids.
    const size_t size = rng.NextBounded(6);
    const std::string alphabet(kAminoAcids, size < 5 ? size + 2 : 20);
    Motif motif;
    const int num_segments = static_cast<int>(rng.NextInt(1, 3));
    for (int s = 0; s < num_segments; ++s) {
      const int length = lengths[rng.NextBounded(lengths.size())];
      motif.segments.push_back(RandomLetters(rng, alphabet, length));
    }
    std::vector<std::string> sequences;
    for (int i = 0; i < 4; ++i) {
      const size_t target = rng.NextBounded(151);
      std::string sequence;
      while (sequence.size() < target) {
        if (rng.NextBool(0.3)) {
          const std::string& segment =
              motif.segments[rng.NextBounded(motif.segments.size())];
          sequence += Mutate(rng, alphabet, segment,
                             static_cast<int>(rng.NextInt(0, 3)));
        } else {
          sequence += RandomLetters(rng, alphabet,
                                    static_cast<int>(rng.NextInt(1, 10)));
        }
      }
      sequence.resize(target);
      sequences.push_back(sequence);
    }
    for (const int k : budgets) {
      int matches = 0;
      uint64_t cells = 0;
      for (const std::string& sequence : sequences) {
        const std::string what =
            motif.ToString() + " in " + sequence + ", k=" + std::to_string(k);
        MatchStats want, got, within;
        const int distance = RowDpMatchDistance(motif, sequence, k, &want);
        ASSERT_EQ(MatchDistance(motif, sequence, k, &got), distance) << what;
        ASSERT_EQ(got.cells, want.cells) << what;
        ASSERT_EQ(MatchesWithin(motif, sequence, k, &within), distance <= k)
            << what;
        ASSERT_EQ(within.cells, want.cells) << what;
        matches += distance <= k ? 1 : 0;
        cells += want.cells;
        if (k > 0 && distance <= k && num_segments > 1) ++chained_matches;
      }
      MatchStats occurrence;
      ASSERT_EQ(OccurrenceNumber(motif, sequences, k, &occurrence), matches)
          << motif.ToString() << ", k=" << k;
      ASSERT_EQ(occurrence.cells, cells) << motif.ToString() << ", k=" << k;
    }
  }
  EXPECT_GT(chained_matches, 1000);
}

TEST(MotifSubpatternTest, SingleSegment) {
  EXPECT_TRUE(IsSubpattern(M({"BC"}), M({"ABCD"})));
  EXPECT_TRUE(IsSubpattern(M({"BC"}), M({"XX", "ABCD"})));
  EXPECT_FALSE(IsSubpattern(M({"BD"}), M({"ABCD"})));
}

TEST(MotifSubpatternTest, MultiSegmentRequiresAlignedSegments) {
  EXPECT_TRUE(IsSubpattern(M({"AB", "EF"}), M({"XABY", "ZEFW"})));
  EXPECT_FALSE(IsSubpattern(M({"AB", "EF"}), M({"ZEFW", "XABY"})));
  EXPECT_FALSE(IsSubpattern(M({"AB", "EF"}), M({"XABYZEFW"})));
}

}  // namespace
}  // namespace fpdm::seqmine
