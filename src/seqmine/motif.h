#ifndef FPDM_SEQMINE_MOTIF_H_
#define FPDM_SEQMINE_MOTIF_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace fpdm::seqmine {

/// A motif of the form *S1*S2*...*Sk* (paper §2.3.3/§4.1.1): non-empty
/// segments separated by variable-length don't cares. The VLDCs may
/// substitute for zero or more letters, so matching means finding the
/// segments in order, on disjoint stretches of the sequence, within a total
/// mutation budget (a mutation is an insertion, deletion, or mismatch).
struct Motif {
  std::vector<std::string> segments;

  /// Number of non-VLDC letters (the |P| of the paper).
  int NumLetters() const;

  /// Key form used in Pattern encodings: segments joined by '*'.
  std::string Encode() const;
  static Motif Decode(std::string_view key);

  /// Human-readable form with explicit leading/trailing stars: "*AB*C*".
  std::string ToString() const;

  bool operator==(const Motif& other) const = default;
};

/// Statistics a matching call accumulates — the deterministic cost model
/// for the NOW simulator. `cells` is the row DP's count (RowDpMatchDistance):
/// |S|+1 cells per row, up to and including the first row whose minimum
/// exceeds the budget, and at a zero budget the letters the exact scan
/// reads. The bit-parallel matcher reports that count without doing that
/// work.
struct MatchStats {
  uint64_t cells = 0;
};

/// Minimum total mutations needed to match `motif` against `sequence`, or
/// `max_mutations + 1` if no matching exists within the budget. A motif
/// without letters matches with 0 mutations at any budget; no other motif
/// matches a negative budget.
int MatchDistance(const Motif& motif, std::string_view sequence,
                  int max_mutations, MatchStats* stats);

/// The reference for MatchDistance and the definition of `cells`: the
/// chained row DP, one row of |S|+1 cells per motif letter, which stops
/// after the first row whose minimum exceeds the budget (at a zero budget,
/// exact matching). MatchDistance runs it only for a segment longer than 63
/// letters, which does not fit one 64-bit word.
int RowDpMatchDistance(const Motif& motif, std::string_view sequence,
                       int max_mutations, MatchStats* stats);

/// True if `motif` occurs in `sequence` within `max_mutations` mutations.
bool MatchesWithin(const Motif& motif, std::string_view sequence,
                   int max_mutations, MatchStats* stats);

/// The occurrence number occurrence_no^i_S(P): how many of `sequences`
/// contain `motif` within `max_mutations` mutations.
int OccurrenceNumber(const Motif& motif,
                     const std::vector<std::string>& sequences,
                     int max_mutations, MatchStats* stats);

/// True if `inner` is a subpattern of `outer`: same number of segments and
/// each inner segment is a contiguous subsegment of the corresponding outer
/// segment (paper §2.3.4). Also true when `inner` has a single segment that
/// is a substring of any `outer` segment (the *X* special case).
bool IsSubpattern(const Motif& inner, const Motif& outer);

}  // namespace fpdm::seqmine

#endif  // FPDM_SEQMINE_MOTIF_H_
