#ifndef FARVIEW_OPERATORS_SELECTION_H_
#define FARVIEW_OPERATORS_SELECTION_H_

#include "operators/operator.h"
#include "operators/predicate.h"

namespace farview {

/// Predicate selection operator (Section 5.3): passes tuples satisfying a
/// conjunction of column-vs-constant comparisons, dropping the rest. The
/// hardware hardwires the predicate as a matching circuit; here the
/// predicate list is fixed at construction accordingly, and compiled then
/// into fixed-offset terms (`CompiledPredicate`).
class SelectionOp : public Operator {
 public:
  /// Fails when a predicate references a missing or mistyped column.
  static Result<OperatorPtr> Create(const Schema& input,
                                    PredicateList predicates);

  Result<Batch> Process(Batch in) override;
  Result<Batch> Flush() override { return Batch::Empty(&schema_); }
  const Schema& output_schema() const override { return schema_; }
  std::string name() const override { return "selection"; }
  void Reset() override { stats_.Clear(); }

  const PredicateList& predicates() const { return predicates_; }

 private:
  SelectionOp(const Schema& input, PredicateList predicates,
              CompiledPredicate compiled)
      : schema_(input),
        predicates_(std::move(predicates)),
        compiled_(std::move(compiled)) {}

  Schema schema_;
  PredicateList predicates_;
  CompiledPredicate compiled_;
};

}  // namespace farview

#endif  // FARVIEW_OPERATORS_SELECTION_H_
