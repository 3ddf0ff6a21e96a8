// Differential property tests: the from-scratch DFA engine must agree with
// the C library's POSIX extended regular expressions (`regcomp`, whose ERE
// grammar covers our subset) on randomly generated patterns and inputs.

#include <gtest/gtest.h>
#include <regex.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "regex/regex.h"

namespace farview {
namespace {

/// Generates a random pattern from the supported subset. Depth-bounded so
/// patterns stay small.
std::string RandomPattern(Rng* rng, int depth) {
  const char* kAtoms = "abcxyz";
  auto atom = [&]() -> std::string {
    switch (rng->NextBelow(4)) {
      case 0:
        return std::string(1, kAtoms[rng->NextBelow(6)]);
      case 1:
        return ".";
      case 2: {
        // small class
        std::string cls = "[";
        const uint64_t n = 1 + rng->NextBelow(3);
        for (uint64_t i = 0; i < n; ++i) cls += kAtoms[rng->NextBelow(6)];
        cls += "]";
        return cls;
      }
      default:
        return std::string(1, kAtoms[rng->NextBelow(6)]);
    }
  };
  std::string out;
  const uint64_t parts = 1 + rng->NextBelow(4);
  for (uint64_t i = 0; i < parts; ++i) {
    std::string piece;
    bool quantifiable = true;
    if (depth > 0 && rng->NextBernoulli(0.3)) {
      piece = std::string("(")
                  .append(RandomPattern(rng, depth - 1))
                  .append(")");
      // Never quantify a group: nested quantifiers like (a*)* make
      // backtracking engines take exponential time — our DFA handles them
      // fine, but an oracle that backtracks would hang.
      quantifiable = false;
    } else {
      piece = atom();
    }
    if (quantifiable) {
      switch (rng->NextBelow(5)) {
        case 0:
          piece += "*";
          break;
        case 1:
          piece += "+";
          break;
        case 2:
          piece += "?";
          break;
        default:
          break;
      }
    }
    out += piece;
    if (depth > 0 && i + 1 < parts && rng->NextBernoulli(0.2)) {
      out += "|";
    }
  }
  if (!out.empty() && (out.back() == '|')) out.pop_back();
  return out.empty() ? "a" : out;
}

std::string RandomText(Rng* rng, uint64_t max_len) {
  const char* kChars = "abcxyz";
  std::string s;
  const uint64_t len = rng->NextBelow(max_len + 1);
  for (uint64_t i = 0; i < len; ++i) s += kChars[rng->NextBelow(6)];
  return s;
}

/// The oracle: one POSIX extended regex, an engine independent of ours.
/// (libstdc++ 12's std::regex compiler trips GCC's -Wmaybe-uninitialized in
/// the sanitizer build, so the oracle is the C library's.)
class PosixRegex {
 public:
  /// `anchored` wraps the pattern in ^( )$, so `Matches` is a full match.
  PosixRegex(const std::string& pattern, bool anchored) {
    const std::string p =
        anchored ? std::string("^(").append(pattern).append(")$") : pattern;
    compiled_ = regcomp(&re_, p.c_str(), REG_EXTENDED | REG_NOSUB) == 0;
  }
  ~PosixRegex() {
    if (compiled_) regfree(&re_);
  }
  PosixRegex(const PosixRegex&) = delete;
  PosixRegex& operator=(const PosixRegex&) = delete;

  bool compiled() const { return compiled_; }
  bool Matches(const std::string& text) const {
    return regexec(&re_, text.c_str(), 0, nullptr, 0) == 0;
  }

 private:
  regex_t re_;
  bool compiled_ = false;
};

class RegexDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RegexDifferentialTest, AgreesWithStdRegex) {
  Rng rng(GetParam());
  int compared = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const std::string pattern = RandomPattern(&rng, 2);
    Result<Regex> ours = Regex::Compile(pattern);
    ASSERT_TRUE(ours.ok()) << pattern << ": " << ours.status().ToString();
    const PosixRegex search(pattern, /*anchored=*/false);
    const PosixRegex full(pattern, /*anchored=*/true);
    ASSERT_TRUE(search.compiled() && full.compiled()) << pattern;
    for (int t = 0; t < 25; ++t) {
      const std::string text = RandomText(&rng, 12);
      const bool ours_search = ours.value().Search(text);
      const bool theirs_search = search.Matches(text);
      EXPECT_EQ(ours_search, theirs_search)
          << "Search mismatch: pattern='" << pattern << "' text='" << text
          << "'";
      const bool ours_full = ours.value().FullMatch(text);
      const bool theirs_full = full.Matches(text);
      EXPECT_EQ(ours_full, theirs_full)
          << "FullMatch mismatch: pattern='" << pattern << "' text='"
          << text << "'";
      ++compared;
    }
  }
  EXPECT_GT(compared, 1000);
}

/// Random field bytes: mostly the patterns' alphabet, so fields match,
/// with any byte (NUL padding included) now and then.
void FillField(Rng* rng, uint8_t* at, size_t len) {
  const char* kChars = "abcxyz";
  for (size_t i = 0; i < len; ++i) {
    at[i] = rng->NextBernoulli(0.1)
                ? static_cast<uint8_t>(rng->NextBelow(256))
                : static_cast<uint8_t>(kChars[rng->NextBelow(6)]);
  }
}

// The lockstep matcher (`SearchLanes`, Regex::kLanes fields per byte step,
// no per-byte accept test) must agree field by field with single-stream
// `Search`: random supported patterns plus fixed ones whose start state
// accepts, field widths 0-130, 0-40 rows taken kLanes at a time, row
// strides from the field width up and fields at non-zero offsets.
TEST_P(RegexDifferentialTest, LockstepLanesAgreeWithSearch) {
  Rng rng(GetParam() + 1000);
  const std::vector<std::string> fixed = {"a*", "", "(x|)", "y?z*",
                                          "xq", "a(b|c)*a"};
  uint64_t matched = 0;
  uint64_t unmatched = 0;
  for (size_t trial = 0; trial < 40; ++trial) {
    const std::string pattern =
        trial < fixed.size() ? fixed[trial] : RandomPattern(&rng, 2);
    Result<Regex> re = Regex::Compile(pattern);
    ASSERT_TRUE(re.ok()) << pattern << ": " << re.status().ToString();
    const size_t width = rng.NextBelow(131);
    const size_t offset = rng.NextBelow(17);
    const size_t stride = offset + width + rng.NextBelow(17);
    const uint64_t rows = rng.NextBelow(41);
    std::vector<uint8_t> buf(rows * stride + 1);
    FillField(&rng, buf.data(), buf.size());
    for (uint64_t r = 0; r < rows; r += Regex::kLanes) {
      const int n =
          static_cast<int>(std::min<uint64_t>(Regex::kLanes, rows - r));
      const uint8_t* first = buf.data() + r * stride + offset;
      const uint32_t hits = re.value().SearchLanes(first, stride, width, n);
      EXPECT_EQ(hits >> n, 0u) << pattern;
      for (int i = 0; i < n; ++i) {
        const std::string_view field(
            reinterpret_cast<const char*>(first + i * stride), width);
        const bool want = re.value().Search(field);
        EXPECT_EQ(((hits >> i) & 1) != 0, want)
            << "pattern='" << pattern << "' width=" << width
            << " stride=" << stride << " offset=" << offset
            << " row=" << r + static_cast<uint64_t>(i);
        ++(want ? matched : unmatched);
      }
    }
  }
  EXPECT_GT(matched, 50u);
  EXPECT_GT(unmatched, 50u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RegexDifferentialTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace farview
