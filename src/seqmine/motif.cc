#include "seqmine/motif.h"

#include <algorithm>
#include <array>
#include <bit>

namespace fpdm::seqmine {

int Motif::NumLetters() const {
  int total = 0;
  for (const std::string& s : segments) total += static_cast<int>(s.size());
  return total;
}

std::string Motif::Encode() const {
  std::string key;
  for (size_t i = 0; i < segments.size(); ++i) {
    if (i > 0) key += '*';
    key += segments[i];
  }
  return key;
}

Motif Motif::Decode(std::string_view key) {
  Motif motif;
  std::string current;
  for (char c : key) {
    if (c == '*') {
      if (!current.empty()) motif.segments.push_back(std::move(current));
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  if (!current.empty()) motif.segments.push_back(std::move(current));
  return motif;
}

std::string Motif::ToString() const {
  std::string out = "*";
  for (const std::string& s : segments) {
    out += s;
    out += '*';
  }
  return out;
}

namespace {

// Exact matching (0 mutations): greedy leftmost placement of the segments
// in order is optimal for VLDC patterns.
bool ExactMatch(const Motif& motif, std::string_view sequence,
                MatchStats* stats) {
  size_t offset = 0;
  for (const std::string& segment : motif.segments) {
    const size_t pos = sequence.find(segment, offset);
    if (stats != nullptr) {
      const size_t scanned =
          (pos == std::string_view::npos ? sequence.size() : pos + segment.size()) -
          offset;
      stats->cells += scanned;
    }
    if (pos == std::string_view::npos) return false;
    offset = pos + segment.size();
  }
  return true;
}

// The longest segment one 64-bit word holds: bit i stands for the
// segment's i-letter prefix, i = 0..63.
constexpr size_t kMaxWordSegment = 63;

// Matches one motif at one budget against any number of sequences. At a
// positive budget it runs Shift-And matching with k errors (Wu & Manber,
// CACM 1992), chained over the segments the way the row DP chains them.
// Level d = 0..k keeps one word: bit i is set when the segment's i-letter
// prefix ends at the current letter within d edits, and bit 0 is set from
// the first column where the segments before ended within d edits. A
// segment costs O(|S|·(k+1)) word operations instead of O(|S|·|segment|)
// cells. `cells` still reports the row DP's count: DP row i has a cell
// within the budget exactly when bit i is set in some column of level k.
// A segment longer than a word goes to the row DP.
//
// The masks and level words belong to the matcher, which each call builds
// on its own stack, so concurrent callers share nothing.
class Matcher {
 public:
  Matcher(const Motif& motif, int max_mutations);

  // MatchDistance's result. With `exact` false, a match within the budget
  // may report any distance up to the budget: the scan of a sequence stops
  // at the first column where the whole motif ends within the budget.
  int Distance(std::string_view sequence, bool exact, MatchStats* stats);

 private:
  struct Scan {
    int best;        // the lowest level that ended the segment, or levels_
    uint64_t reach;  // OR of the top level's words over the columns scanned
  };

  // Scans `sequence` for segment `s`, starting each level at its column in
  // start_, and records in end_ the first column where each level ends the
  // segment. Levels nest, so it stops once level `stop` has ended it.
  // kLevels > 0 fixes levels_ at compile time, which keeps the level words
  // in registers; 0 keeps them in words_ and open_.
  template <int kLevels>
  Scan ScanSegment(std::string_view sequence, size_t s, int stop);

  const Motif& motif_;
  const int max_mutations_;
  const int letters_;
  bool fits_words_ = true;
  int levels_ = 0;
  size_t last_segment_ = 0;  // the last non-empty segment
  // masks_[s][c]: bit i set when letter i (1-based) of segment s is c.
  std::vector<std::array<uint64_t, 256>> masks_;
  std::vector<uint64_t> words_;  // level d's word at the current column
  std::vector<uint64_t> open_;   // level d's bit 0 at the current column
  // First column where the segments before the current one end within d
  // edits (start_), and where the current one does (end_); |S|+1 = never.
  std::vector<int> start_;
  std::vector<int> end_;
};

Matcher::Matcher(const Motif& motif, int max_mutations)
    : motif_(motif),
      max_mutations_(max_mutations),
      letters_(motif.NumLetters()) {
  for (const std::string& segment : motif.segments) {
    if (segment.size() > kMaxWordSegment) fits_words_ = false;
  }
  if (letters_ == 0 || max_mutations <= 0 || !fits_words_) return;
  // With |P| edits every prefix fits in every column, so the levels above
  // |P| would repeat level |P|.
  levels_ = std::min(max_mutations, letters_) + 1;
  masks_.resize(motif.segments.size());
  for (size_t s = 0; s < motif.segments.size(); ++s) {
    const std::string& segment = motif.segments[s];
    for (size_t i = 0; i < segment.size(); ++i) {
      const auto letter = static_cast<unsigned char>(segment[i]);
      masks_[s][letter] |= uint64_t{1} << (i + 1);
    }
    if (!segment.empty()) last_segment_ = s;
  }
  words_.resize(static_cast<size_t>(levels_));
  open_.resize(static_cast<size_t>(levels_));
  start_.resize(static_cast<size_t>(levels_));
  end_.resize(static_cast<size_t>(levels_));
}

template <int kLevels>
Matcher::Scan Matcher::ScanSegment(std::string_view sequence, size_t s,
                                   int stop) {
  const int m = static_cast<int>(sequence.size());
  const int levels = kLevels > 0 ? kLevels : levels_;
  std::array<uint64_t, kLevels> fixed_words{};
  std::array<uint64_t, kLevels> fixed_open{};
  uint64_t* const words = kLevels > 0 ? fixed_words.data() : words_.data();
  uint64_t* const open = kLevels > 0 ? fixed_open.data() : open_.data();
  if (kLevels == 0) {
    std::fill(words, words + levels, 0);
    std::fill(open, open + levels, 0);
  }
  const uint64_t* const mask = masks_[s].data();
  const uint64_t done = uint64_t{1} << motif_.segments[s].size();
  const int* const start = start_.data();
  int* const end = end_.data();
  std::fill(end, end + levels, m + 1);
  int closed = levels;  // the levels below it have no bit 0 yet
  Scan scan{levels, 0};
  for (int j = 0; j <= m; ++j) {
    while (closed > 0 && start[closed - 1] <= j) open[--closed] = 1;
    const uint64_t letter =
        j == 0 ? 0 : mask[static_cast<unsigned char>(sequence[j - 1])];
    uint64_t diag = 0;   // level d-1 at column j-1
    uint64_t below = 0;  // level d-1 at column j
    for (int d = 0; d < levels; ++d) {
      const uint64_t left = words[d];   // level d at column j-1
      below = ((left << 1) & letter) |  // match
              ((diag | below) << 1) |   // mismatch, or drop a letter
              diag |                    // skip a sequence letter
              open[d];                  // the segments before end here
      diag = left;
      words[d] = below;
    }
    scan.reach |= below;
    if ((below & done) == 0) continue;  // no level ends the segment here
    // Over every level rather than down from `best`, so that a fixed level
    // count unrolls it.
    for (int d = levels - 1; d >= 0; --d) {
      if (d < scan.best && (words[d] & done) != 0) {
        end[d] = j;
        scan.best = d;
      }
    }
    if (scan.best <= stop) break;
  }
  return scan;
}

int Matcher::Distance(std::string_view sequence, bool exact,
                      MatchStats* stats) {
  if (letters_ == 0) return 0;
  const uint64_t columns = sequence.size() + 1;
  if (max_mutations_ < 0) {  // the DP's first row already exceeds it
    if (stats != nullptr) stats->cells += columns;
    return max_mutations_ + 1;
  }
  if (max_mutations_ == 0) return ExactMatch(motif_, sequence, stats) ? 0 : 1;
  if (!fits_words_) {
    return RowDpMatchDistance(motif_, sequence, max_mutations_, stats);
  }

  std::fill(start_.begin(), start_.end(), 0);  // the leading VLDC is free
  uint64_t rows = 0;  // the DP rows of the segments passed so far
  Scan scan{0, 0};
  for (size_t s = 0; s <= last_segment_; ++s) {
    const size_t length = motif_.segments[s].size();
    if (length == 0) continue;  // no rows, as in the DP
    // Once level 0 ends a segment every level has, and the next segment's
    // start columns are known. An inexact scan of the last segment needs
    // only the top level.
    const int stop = s == last_segment_ && !exact ? levels_ - 1 : 0;
    switch (levels_) {  // budgets 1 and 2, the ones the workloads use
      case 2:
        scan = ScanSegment<2>(sequence, s, stop);
        break;
      case 3:
        scan = ScanSegment<3>(sequence, s, stop);
        break;
      default:
        scan = ScanSegment<0>(sequence, s, stop);
    }
    if (scan.best == levels_) {
      // No level ends the segment, so bit `length` of `reach` is clear and
      // its lowest clear bit is the row where the DP cuts off.
      const uint64_t cutoff_row = std::countr_one(scan.reach);
      if (stats != nullptr) stats->cells += columns * (rows + cutoff_row);
      return max_mutations_ + 1;
    }
    // The top level ended the segment, so every row of it has a cell
    // within the budget, including the rows an early stop did not see.
    rows += length;
    std::swap(start_, end_);
  }
  if (stats != nullptr) stats->cells += columns * rows;
  return scan.best;
}

}  // namespace

int RowDpMatchDistance(const Motif& motif, std::string_view sequence,
                       int max_mutations, MatchStats* stats) {
  if (motif.segments.empty()) return 0;
  if (max_mutations == 0) {
    return ExactMatch(motif, sequence, stats) ? 0 : 1;
  }

  const int m = static_cast<int>(sequence.size());
  const int infinity = max_mutations + 1;

  // chain[j]: minimal mutations to match the segments processed so far with
  // the last match ending at or before position j. The VLDC after the last
  // match makes it non-increasing in j. Starts at 0 everywhere: the leading
  // VLDC is free.
  std::vector<int> chain(static_cast<size_t>(m) + 1, 0);
  std::vector<int> prev_row(static_cast<size_t>(m) + 1);
  std::vector<int> row(static_cast<size_t>(m) + 1);

  for (const std::string& segment : motif.segments) {
    const int len = static_cast<int>(segment.size());
    // Row 0: the segment may start after any prefix, at the cost of the
    // chain so far (the inter-segment VLDC absorbs characters for free).
    for (int j = 0; j <= m; ++j) prev_row[static_cast<size_t>(j)] = chain[static_cast<size_t>(j)];
    for (int i = 1; i <= len; ++i) {
      int row_min = infinity;
      row[0] = std::min(prev_row[0] + 1, infinity);
      row_min = row[0];
      const char pc = segment[static_cast<size_t>(i - 1)];
      for (int j = 1; j <= m; ++j) {
        const int subst =
            prev_row[static_cast<size_t>(j - 1)] + (pc != sequence[static_cast<size_t>(j - 1)] ? 1 : 0);
        const int del = prev_row[static_cast<size_t>(j)] + 1;   // drop pattern char
        const int ins = row[static_cast<size_t>(j - 1)] + 1;    // skip sequence char
        int best = subst < del ? subst : del;
        if (ins < best) best = ins;
        if (best > infinity) best = infinity;
        row[static_cast<size_t>(j)] = best;
        if (best < row_min) row_min = best;
      }
      if (stats != nullptr) stats->cells += static_cast<uint64_t>(m) + 1;
      if (row_min > max_mutations) return infinity;  // Ukkonen-style cutoff
      std::swap(prev_row, row);
    }
    // Fold the finished segment into the chain with a trailing prefix-min:
    // the next VLDC may skip any number of characters for free.
    chain[0] = prev_row[0];
    for (int j = 1; j <= m; ++j) {
      chain[static_cast<size_t>(j)] =
          std::min(chain[static_cast<size_t>(j - 1)], prev_row[static_cast<size_t>(j)]);
    }
  }
  return chain[static_cast<size_t>(m)];
}

int MatchDistance(const Motif& motif, std::string_view sequence,
                  int max_mutations, MatchStats* stats) {
  return Matcher(motif, max_mutations)
      .Distance(sequence, /*exact=*/true, stats);
}

bool MatchesWithin(const Motif& motif, std::string_view sequence,
                   int max_mutations, MatchStats* stats) {
  return Matcher(motif, max_mutations)
             .Distance(sequence, /*exact=*/false, stats) <= max_mutations;
}

int OccurrenceNumber(const Motif& motif,
                     const std::vector<std::string>& sequences,
                     int max_mutations, MatchStats* stats) {
  Matcher matcher(motif, max_mutations);
  int count = 0;
  for (const std::string& sequence : sequences) {
    if (matcher.Distance(sequence, /*exact=*/false, stats) <= max_mutations) {
      ++count;
    }
  }
  return count;
}

bool IsSubpattern(const Motif& inner, const Motif& outer) {
  if (inner.segments.empty()) return true;
  if (inner.segments.size() == 1) {
    for (const std::string& seg : outer.segments) {
      if (seg.find(inner.segments[0]) != std::string::npos) return true;
    }
    return false;
  }
  if (inner.segments.size() != outer.segments.size()) return false;
  for (size_t i = 0; i < inner.segments.size(); ++i) {
    if (outer.segments[i].find(inner.segments[i]) == std::string::npos) {
      return false;
    }
  }
  return true;
}

}  // namespace fpdm::seqmine
