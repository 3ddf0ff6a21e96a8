#ifndef FARVIEW_REGEX_REGEX_H_
#define FARVIEW_REGEX_REGEX_H_

#include <bitset>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace farview {

/// A compiled regular expression: parser → Thompson NFA → DFA (subset
/// construction).
///
/// This models the FPGA regular-expression engines Farview integrates
/// (Section 5.3, based on [42]): once compiled to a DFA the matcher consumes
/// exactly one byte per step regardless of pattern complexity — the property
/// behind "performance ... does not depend on the complexity of the regular
/// expression". Each DFA is one flat transition table, so a step is one
/// load. The search DFA's accepting states are absorbing (every byte leads
/// back to the same state), so a search that has matched stays matched:
/// `SearchLanes` runs several fields through the table at once and tests
/// acceptance only after the last byte, the way the hardware engines run
/// parallel matchers side by side. The CPU baselines use the same engine
/// functionally but are charged per-byte software costs by the cost model.
///
/// Supported syntax: literals, '.', character classes `[a-z]` / `[^...]`,
/// escapes (`\d \w \s \D \W \S` and escaped metacharacters), grouping
/// `(...)`, alternation `|`, and the quantifiers `* + ?`.
class Regex {
 public:
  /// Compiles `pattern`; fails on syntax errors or if the DFA would exceed
  /// the state budget (mirroring the fixed BRAM budget of the hardware
  /// engines).
  static Result<Regex> Compile(const std::string& pattern);

  Regex(Regex&&) = default;
  Regex& operator=(Regex&&) = default;
  Regex(const Regex&) = default;
  Regex& operator=(const Regex&) = default;

  /// Unanchored search: true when any substring of `text` matches. This is
  /// the semantics of the Farview regex *selection* operator (emit the tuple
  /// when the string field matches). Scans at most one DFA step per byte and
  /// exits early on the first hit.
  bool Search(std::string_view text) const;

  /// Fields `SearchLanes` matches at once.
  static constexpr int kLanes = 8;

  /// Lockstep search over `n` (0 to kLanes) fields of `len` bytes each,
  /// field i at `first + i * stride`: every byte step advances all of them
  /// through the search DFA, so their load chains overlap, and none tests
  /// acceptance before the end. Bit i of the result is
  /// `Search(field i)`; `Search` stays the single-text reference.
  uint32_t SearchLanes(const uint8_t* first, size_t stride, size_t len,
                       int n) const;

  /// Anchored match: true when the entire `text` matches.
  bool FullMatch(std::string_view text) const;

  const std::string& pattern() const { return pattern_; }

  /// Number of DFA states of the search automaton (compile-time metric; the
  /// resource model uses it to size the operator).
  int search_dfa_states() const { return search_dfa_.num_states(); }
  int full_dfa_states() const { return full_dfa_.num_states(); }

 private:
  Regex() = default;

  /// A DFA as one flat transition table. A state is named by its
  /// premultiplied offset `id * kAlphabet`, so one step is the single load
  /// `next[state + byte]`; kDead marks a missing transition (reject). State
  /// 0 is the start state. The search DFA has no kDead entry (every byte
  /// may start a new match attempt) and its accepting rows point back at
  /// themselves.
  struct Dfa {
    static constexpr int32_t kAlphabet = 256;
    std::vector<int32_t> next;    ///< num_states() × kAlphabet targets
    std::vector<uint8_t> accept;  ///< per state id
    int num_states() const { return static_cast<int>(accept.size()); }
  };
  static constexpr int32_t kDead = -1;

  static bool Run(const Dfa& dfa, std::string_view text, bool early_accept);

  std::string pattern_;
  Dfa search_dfa_;  ///< with implicit ".*" prefix
  Dfa full_dfa_;    ///< anchored both ends
};

}  // namespace farview

#endif  // FARVIEW_REGEX_REGEX_H_
