#ifndef FARVIEW_OPERATORS_REGEX_SELECT_H_
#define FARVIEW_OPERATORS_REGEX_SELECT_H_

#include <string>

#include "operators/operator.h"
#include "regex/regex.h"

namespace farview {

/// Regular-expression selection operator (Section 5.3): "data is retrieved
/// from the remote node only when it matches the given regular expression."
/// Matching uses the DFA engine — one step per input byte regardless of
/// pattern complexity, like the parallel hardware engines of [42]. Search
/// mode runs a batch's fields through the search DFA `Regex::kLanes` rows
/// at a time (`Regex::SearchLanes`), as several engines side by side
/// would, and stores the survivors through `Operator::SizeOutput`.
class RegexSelectOp : public Operator {
 public:
  /// Selects rows whose CHAR column `col` contains a match of `pattern`
  /// (unanchored search), or — with `full_match` — whose whole field
  /// matches (used for SQL LIKE, which is anchored at both ends). Fails on
  /// bad column or pattern.
  static Result<OperatorPtr> Create(const Schema& input, int col,
                                    const std::string& pattern,
                                    bool full_match = false);

  Result<Batch> Process(Batch in) override;
  Result<Batch> Flush() override { return Batch::Empty(&schema_); }
  const Schema& output_schema() const override { return schema_; }
  std::string name() const override { return "regex"; }
  void Reset() override { stats_.Clear(); }

  const Regex& regex() const { return regex_; }

 private:
  RegexSelectOp(const Schema& input, int col, Regex regex, bool full_match)
      : schema_(input),
        col_(col),
        regex_(std::move(regex)),
        full_match_(full_match) {}

  /// Search mode: the rows of `in` whose whole fixed-width field contains
  /// a match.
  Batch SearchRows(const Batch& in) const;

  Schema schema_;
  int col_;
  Regex regex_;
  bool full_match_;
};

}  // namespace farview

#endif  // FARVIEW_OPERATORS_REGEX_SELECT_H_
