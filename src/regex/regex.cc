#include "regex/regex.h"

#include <algorithm>
#include <map>
#include <set>

#include "common/logging.h"

namespace farview {
namespace {

using CharSet = std::bitset<256>;

// ---------------------------------------------------------------------------
// Thompson NFA. States carry at most one character-class transition plus up
// to two epsilon transitions — the classic fragment construction.
// ---------------------------------------------------------------------------

struct NfaState {
  /// Character transition (valid when has_char is true).
  bool has_char = false;
  CharSet chars;
  int char_next = -1;
  /// Epsilon transitions.
  int eps[2] = {-1, -1};
};

struct Nfa {
  std::vector<NfaState> states;
  int start = -1;
  int accept = -1;

  int AddState() {
    states.push_back(NfaState{});
    return static_cast<int>(states.size()) - 1;
  }
};

/// A partially built automaton piece: entry state plus the dangling state
/// whose epsilon slot 0 will be patched to the next piece.
struct Fragment {
  int start;
  int out;  // state whose eps[0] is the dangling edge
};

// ---------------------------------------------------------------------------
// Recursive-descent parser building NFA fragments directly.
// Grammar:
//   alt    = concat ('|' concat)*
//   concat = repeat*
//   repeat = atom ('*' | '+' | '?')*
//   atom   = literal | '.' | class | '(' alt ')'
// ---------------------------------------------------------------------------

class Parser {
 public:
  Parser(const std::string& pattern, Nfa* nfa)
      : pattern_(pattern), nfa_(nfa) {}

  Status Parse() {
    Result<Fragment> frag = ParseAlt();
    FV_RETURN_IF_ERROR(frag.status());
    if (pos_ != pattern_.size()) {
      return Status::InvalidArgument("unexpected ')' at position " +
                                     std::to_string(pos_));
    }
    const int accept = nfa_->AddState();
    nfa_->states[frag.value().out].eps[0] = accept;
    nfa_->start = frag.value().start;
    nfa_->accept = accept;
    return Status::OK();
  }

 private:
  bool AtEnd() const { return pos_ >= pattern_.size(); }
  char Peek() const { return pattern_[pos_]; }

  /// Builds a fragment matching a single character class.
  Fragment MakeCharFragment(const CharSet& chars) {
    const int s = nfa_->AddState();
    const int out = nfa_->AddState();
    nfa_->states[s].has_char = true;
    nfa_->states[s].chars = chars;
    nfa_->states[s].char_next = out;
    return Fragment{s, out};
  }

  /// Builds an epsilon-only fragment (matches the empty string).
  Fragment MakeEpsilonFragment() {
    const int s = nfa_->AddState();
    return Fragment{s, s};
  }

  Result<Fragment> ParseAlt() {
    Result<Fragment> left = ParseConcat();
    FV_RETURN_IF_ERROR(left.status());
    Fragment frag = left.value();
    while (!AtEnd() && Peek() == '|') {
      ++pos_;
      Result<Fragment> right = ParseConcat();
      FV_RETURN_IF_ERROR(right.status());
      const int fork = nfa_->AddState();
      const int join = nfa_->AddState();
      nfa_->states[fork].eps[0] = frag.start;
      nfa_->states[fork].eps[1] = right.value().start;
      nfa_->states[frag.out].eps[0] = join;
      nfa_->states[right.value().out].eps[0] = join;
      frag = Fragment{fork, join};
    }
    return frag;
  }

  Result<Fragment> ParseConcat() {
    Fragment frag = MakeEpsilonFragment();
    while (!AtEnd() && Peek() != '|' && Peek() != ')') {
      Result<Fragment> next = ParseRepeat();
      FV_RETURN_IF_ERROR(next.status());
      nfa_->states[frag.out].eps[0] = next.value().start;
      frag = Fragment{frag.start, next.value().out};
    }
    return frag;
  }

  Result<Fragment> ParseRepeat() {
    Result<Fragment> atom = ParseAtom();
    FV_RETURN_IF_ERROR(atom.status());
    Fragment frag = atom.value();
    while (!AtEnd() && (Peek() == '*' || Peek() == '+' || Peek() == '?')) {
      const char op = Peek();
      ++pos_;
      if (op == '*') {
        const int loop = nfa_->AddState();
        const int exit = nfa_->AddState();
        nfa_->states[loop].eps[0] = frag.start;
        nfa_->states[loop].eps[1] = exit;
        nfa_->states[frag.out].eps[0] = loop;
        frag = Fragment{loop, exit};
      } else if (op == '+') {
        const int loop = nfa_->AddState();
        const int exit = nfa_->AddState();
        nfa_->states[frag.out].eps[0] = loop;
        nfa_->states[loop].eps[0] = frag.start;
        nfa_->states[loop].eps[1] = exit;
        frag = Fragment{frag.start, exit};
      } else {  // '?'
        const int fork = nfa_->AddState();
        const int join = nfa_->AddState();
        nfa_->states[fork].eps[0] = frag.start;
        nfa_->states[fork].eps[1] = join;
        nfa_->states[frag.out].eps[0] = join;
        frag = Fragment{fork, join};
      }
    }
    return frag;
  }

  Result<Fragment> ParseAtom() {
    if (AtEnd()) {
      return Status::InvalidArgument("pattern ends where an atom is expected");
    }
    const char c = Peek();
    if (c == '(') {
      ++pos_;
      Result<Fragment> inner = ParseAlt();
      FV_RETURN_IF_ERROR(inner.status());
      if (AtEnd() || Peek() != ')') {
        return Status::InvalidArgument("missing ')'");
      }
      ++pos_;
      return inner;
    }
    if (c == '[') {
      Result<CharSet> cls = ParseClass();
      FV_RETURN_IF_ERROR(cls.status());
      return MakeCharFragment(cls.value());
    }
    if (c == '.') {
      ++pos_;
      CharSet all;
      all.set();
      return MakeCharFragment(all);
    }
    if (c == '\\') {
      Result<CharSet> esc = ParseEscape();
      FV_RETURN_IF_ERROR(esc.status());
      return MakeCharFragment(esc.value());
    }
    if (c == '*' || c == '+' || c == '?') {
      return Status::InvalidArgument(
          std::string("quantifier '") + c + "' with nothing to repeat");
    }
    if (c == ')') {
      return Status::InvalidArgument("unmatched ')'");
    }
    ++pos_;
    CharSet one;
    one.set(static_cast<unsigned char>(c));
    return MakeCharFragment(one);
  }

  /// Parses an escape sequence starting at '\\'.
  Result<CharSet> ParseEscape() {
    ++pos_;  // consume backslash
    if (AtEnd()) {
      return Status::InvalidArgument("dangling backslash");
    }
    const char c = Peek();
    ++pos_;
    CharSet set;
    auto add_range = [&set](char lo, char hi) {
      for (int ch = lo; ch <= hi; ++ch) set.set(static_cast<unsigned>(ch));
    };
    switch (c) {
      case 'd':
        add_range('0', '9');
        return set;
      case 'D':
        add_range('0', '9');
        return ~set;
      case 'w':
        add_range('a', 'z');
        add_range('A', 'Z');
        add_range('0', '9');
        set.set('_');
        return set;
      case 'W':
        add_range('a', 'z');
        add_range('A', 'Z');
        add_range('0', '9');
        set.set('_');
        return ~set;
      case 's':
        for (char ws : {' ', '\t', '\n', '\r', '\f', '\v'}) {
          set.set(static_cast<unsigned char>(ws));
        }
        return set;
      case 'S':
        for (char ws : {' ', '\t', '\n', '\r', '\f', '\v'}) {
          set.set(static_cast<unsigned char>(ws));
        }
        return ~set;
      case 'n':
        set.set('\n');
        return set;
      case 't':
        set.set('\t');
        return set;
      case 'r':
        set.set('\r');
        return set;
      default:
        // Escaped literal (metacharacters, backslash, etc.).
        set.set(static_cast<unsigned char>(c));
        return set;
    }
  }

  /// Parses a character class starting at '['.
  Result<CharSet> ParseClass() {
    ++pos_;  // consume '['
    bool negate = false;
    if (!AtEnd() && Peek() == '^') {
      negate = true;
      ++pos_;
    }
    CharSet set;
    bool first = true;
    while (!AtEnd() && (Peek() != ']' || first)) {
      first = false;
      CharSet piece;
      if (Peek() == '\\') {
        Result<CharSet> esc = ParseEscape();
        FV_RETURN_IF_ERROR(esc.status());
        // Ranges starting from a class escape (e.g. [\d-x]) are literal '-'.
        set |= esc.value();
        continue;
      }
      const char lo = Peek();
      ++pos_;
      if (!AtEnd() && Peek() == '-' && pos_ + 1 < pattern_.size() &&
          pattern_[pos_ + 1] != ']') {
        ++pos_;  // consume '-'
        const char hi = Peek();
        ++pos_;
        if (static_cast<unsigned char>(lo) > static_cast<unsigned char>(hi)) {
          return Status::InvalidArgument("inverted range in character class");
        }
        for (int ch = static_cast<unsigned char>(lo);
             ch <= static_cast<unsigned char>(hi); ++ch) {
          piece.set(static_cast<unsigned>(ch));
        }
      } else {
        piece.set(static_cast<unsigned char>(lo));
      }
      set |= piece;
    }
    if (AtEnd()) {
      return Status::InvalidArgument("missing ']'");
    }
    ++pos_;  // consume ']'
    return negate ? ~set : set;
  }

  const std::string& pattern_;
  Nfa* nfa_;
  size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Subset construction.
// ---------------------------------------------------------------------------

/// Epsilon closure of a state set (sorted vector used as the canonical key).
std::vector<int> EpsilonClosure(const Nfa& nfa, std::vector<int> states) {
  std::set<int> closure(states.begin(), states.end());
  std::vector<int> work = std::move(states);
  while (!work.empty()) {
    const int s = work.back();
    work.pop_back();
    for (int e : nfa.states[static_cast<size_t>(s)].eps) {
      if (e >= 0 && closure.insert(e).second) work.push_back(e);
    }
  }
  return std::vector<int>(closure.begin(), closure.end());
}

}  // namespace

bool Regex::Run(const Dfa& dfa, std::string_view text, bool early_accept) {
  const int32_t* next = dfa.next.data();
  auto accepts = [&dfa](int32_t state) {
    return dfa.accept[static_cast<uint32_t>(state) / Dfa::kAlphabet] != 0;
  };
  int32_t state = 0;
  if (early_accept && accepts(state)) return true;
  for (const char ch : text) {
    state = next[state + static_cast<unsigned char>(ch)];
    if (state == kDead) return false;
    if (early_accept && accepts(state)) return true;
  }
  return accepts(state);
}

Result<Regex> Regex::Compile(const std::string& pattern) {
  Nfa nfa;
  Parser parser(pattern, &nfa);
  FV_RETURN_IF_ERROR(parser.Parse());

  // Budget mirrors the bounded hardware engine: a runaway subset
  // construction is a compile error, not an OOM.
  constexpr size_t kMaxDfaStates = 4096;

  // Builds a DFA. When `search` is true the NFA start set permanently
  // includes the start state (the implicit ".*" prefix): every byte may
  // begin a new match attempt.
  auto build = [&nfa](bool search) -> Result<Dfa> {
    Dfa dfa;
    std::map<std::vector<int>, int32_t> index;
    std::vector<std::vector<int>> sets;

    // Returns the premultiplied offset of the state for `closure`, adding
    // a row of dead transitions for a new one.
    auto intern = [&](std::vector<int> closure) -> int32_t {
      auto it = index.find(closure);
      if (it != index.end()) return it->second;
      const int32_t offset = static_cast<int32_t>(dfa.next.size());
      dfa.next.resize(dfa.next.size() + Dfa::kAlphabet, kDead);
      dfa.accept.push_back(0);
      for (int s : closure) {
        if (s == nfa.accept) dfa.accept.back() = 1;
      }
      index.emplace(closure, offset);
      sets.push_back(std::move(closure));
      return offset;
    };

    intern(EpsilonClosure(nfa, {nfa.start}));

    for (size_t cur = 0; cur < sets.size(); ++cur) {
      if (sets.size() > kMaxDfaStates) {
        return Status::OutOfRange("DFA exceeds state budget");
      }
      // Group target NFA states per input byte.
      const std::vector<int> set = sets[cur];
      for (int byte = 0; byte < Dfa::kAlphabet; ++byte) {
        std::vector<int> next;
        for (int s : set) {
          const NfaState& st = nfa.states[static_cast<size_t>(s)];
          if (st.has_char && st.chars.test(static_cast<size_t>(byte))) {
            next.push_back(st.char_next);
          }
        }
        if (search) next.push_back(nfa.start);
        if (next.empty()) continue;
        const int32_t target = intern(EpsilonClosure(nfa, std::move(next)));
        dfa.next[cur * Dfa::kAlphabet + static_cast<size_t>(byte)] = target;
      }
    }
    return dfa;
  };

  Regex re;
  re.pattern_ = pattern;
  FV_ASSIGN_OR_RETURN(re.search_dfa_, build(/*search=*/true));
  // A search that has matched stays matched: make every accepting row
  // absorbing. Search exits at the first accepting state anyway, so this
  // changes no result and no state count; it lets SearchLanes skip the
  // per-byte accept test.
  Dfa& sd = re.search_dfa_;
  for (int id = 0; id < sd.num_states(); ++id) {
    if (sd.accept[static_cast<size_t>(id)] == 0) continue;
    const int32_t self = id * Dfa::kAlphabet;
    std::fill_n(sd.next.begin() + self, Dfa::kAlphabet, self);
  }
  FV_ASSIGN_OR_RETURN(re.full_dfa_, build(/*search=*/false));
  return re;
}

bool Regex::Search(std::string_view text) const {
  return Run(search_dfa_, text, /*early_accept=*/true);
}

uint32_t Regex::SearchLanes(const uint8_t* first, size_t stride, size_t len,
                            int n) const {
  FV_CHECK(n >= 0 && n <= kLanes);
  if (n == 0) return 0;
  // Lanes past `n` re-read field 0; their results are masked off below.
  const uint8_t* field[kLanes];
  for (int i = 0; i < kLanes; ++i) {
    field[i] = first + (i < n ? static_cast<size_t>(i) * stride : 0);
  }
  const int32_t* next = search_dfa_.next.data();
  int32_t state[kLanes] = {};
  for (size_t b = 0; b < len; ++b) {
    for (int i = 0; i < kLanes; ++i) state[i] = next[state[i] + field[i][b]];
  }
  uint32_t hits = 0;
  for (int i = 0; i < n; ++i) {
    const uint32_t id = static_cast<uint32_t>(state[i]) / Dfa::kAlphabet;
    hits |= static_cast<uint32_t>(search_dfa_.accept[id]) << i;
  }
  return hits;
}

bool Regex::FullMatch(std::string_view text) const {
  return Run(full_dfa_, text, /*early_accept=*/false);
}

}  // namespace farview
