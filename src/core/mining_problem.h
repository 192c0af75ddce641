#ifndef FPDM_CORE_MINING_PROBLEM_H_
#define FPDM_CORE_MINING_PROBLEM_H_

#include <string>
#include <vector>

namespace fpdm::core {

/// A node of the exploration dag: one candidate pattern.
///
/// The frameworks are generic, so a pattern is an opaque, problem-specific
/// string encoding plus its length (the paper's len(p)). The encoding must
/// be unique per pattern — it doubles as the identity used for E-dag
/// bookkeeping and as the payload shipped through PLinda tuples.
struct Pattern {
  std::string key;
  int length = 0;

  bool operator==(const Pattern& other) const = default;
};

/// The four elements that define a pattern-lattice data mining application
/// (paper §3.1.2): a database, patterns with a length function, a goodness
/// measure, and a good() predicate — plus the structural hooks the E-dag
/// needs (unique child generation and immediate subpatterns).
///
/// Implementations must satisfy the paper's structural contract:
///  * every pattern has exactly one parent (ChildPatterns partitions each
///    level), so no task is generated twice;
///  * ImmediateSubpatterns(p) returns every length-(|p|-1) subpattern of p
///    (the incident E-dag edges); length-1 patterns return an empty list
///    because their only subpattern is the always-good zero-length pattern;
///  * anti-monotonicity: if any immediate subpattern of p is not good, p is
///    not good either (this is what makes E-dag pruning sound).
class MiningProblem {
 public:
  virtual ~MiningProblem() = default;

  /// The children of the zero-length pattern (all length-1 patterns).
  virtual std::vector<Pattern> RootPatterns() const = 0;

  /// The child patterns of `pattern` under the unique-parent relation.
  virtual std::vector<Pattern> ChildPatterns(const Pattern& pattern) const = 0;

  /// Every immediate subpattern of `pattern` (length |p|-1), including those
  /// that are not its parent.
  virtual std::vector<Pattern> ImmediateSubpatterns(
      const Pattern& pattern) const = 0;

  /// The expensive task: evaluates the pattern against the database (count
  /// occurrences, support, histogram score, ...).
  virtual double Goodness(const Pattern& pattern) const = 0;

  /// The good() predicate of the paper, applied to a computed goodness.
  virtual bool IsGood(const Pattern& pattern, double goodness) const = 0;

  /// Deterministic cost of Goodness(pattern) in simulator work units (the
  /// dominant operation count, e.g. DP cells touched). Drives the virtual
  /// clock of the NOW runtime.
  virtual double TaskCost(const Pattern& pattern) const = 0;
};

/// One discovered pattern with its measured goodness.
struct GoodPattern {
  Pattern pattern;
  double goodness = 0;

  bool operator==(const GoodPattern& other) const = default;
};

/// Output of any traversal (sequential or parallel).
struct MiningResult {
  /// All good patterns, sorted by (length, key) for stable comparison.
  std::vector<GoodPattern> good_patterns;
  /// Number of Goodness() evaluations performed. A parallel run counts
  /// each pattern once, even when a fault aborted its task and a worker
  /// redid it; the work lost to faults shows in RuntimeStats::total_work.
  size_t patterns_tested = 0;
  /// Sum of TaskCost over all tested patterns, each counted once: the
  /// sequential running time in virtual work units (before any fixed
  /// program overheads).
  double total_task_cost = 0;
};

/// Canonical ordering used by every traversal before returning results.
void SortGoodPatterns(std::vector<GoodPattern>* patterns);

}  // namespace fpdm::core

#endif  // FPDM_CORE_MINING_PROBLEM_H_
