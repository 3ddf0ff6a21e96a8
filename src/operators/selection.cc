#include "operators/selection.h"

namespace farview {

Result<OperatorPtr> SelectionOp::Create(const Schema& input,
                                        PredicateList predicates) {
  FV_ASSIGN_OR_RETURN(CompiledPredicate compiled,
                      CompiledPredicate::Compile(predicates, input));
  return OperatorPtr(
      new SelectionOp(input, std::move(predicates), std::move(compiled)));
}

Result<Batch> SelectionOp::Process(Batch in) {
  Batch out = KeepRows(in, &schema_, [this](const uint8_t* row) {
    return compiled_.Eval(row);
  });
  Account(in, out);
  return out;
}

}  // namespace farview
