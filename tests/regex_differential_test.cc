// Differential property tests: the from-scratch DFA engine must agree with
// std::regex (ECMAScript grammar, which is a superset of our subset) on
// randomly generated patterns and inputs.

#include <gtest/gtest.h>

#include <regex>
#include <string>

#include "common/rng.h"
#include "regex/regex.h"

namespace farview {
namespace {

/// Generates a random pattern from the supported subset. Depth-bounded so
/// patterns stay small and std::regex-compatible.
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
      // backtracking engines (std::regex) take exponential time — our DFA
      // handles them fine, but the oracle would hang.
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

class RegexDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RegexDifferentialTest, AgreesWithStdRegex) {
  Rng rng(GetParam());
  int compared = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const std::string pattern = RandomPattern(&rng, 2);
    Result<Regex> ours = Regex::Compile(pattern);
    ASSERT_TRUE(ours.ok()) << pattern << ": " << ours.status().ToString();
    std::regex theirs;
    try {
      theirs = std::regex(pattern, std::regex::ECMAScript);
    } catch (const std::regex_error&) {
      continue;  // std::regex rejects (shouldn't happen for this subset)
    }
    for (int t = 0; t < 25; ++t) {
      const std::string text = RandomText(&rng, 12);
      const bool ours_search = ours.value().Search(text);
      const bool theirs_search = std::regex_search(text, theirs);
      EXPECT_EQ(ours_search, theirs_search)
          << "Search mismatch: pattern='" << pattern << "' text='" << text
          << "'";
      const bool ours_full = ours.value().FullMatch(text);
      const bool theirs_full = std::regex_match(text, theirs);
      EXPECT_EQ(ours_full, theirs_full)
          << "FullMatch mismatch: pattern='" << pattern << "' text='"
          << text << "'";
      ++compared;
    }
  }
  EXPECT_GT(compared, 1000);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RegexDifferentialTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace farview
