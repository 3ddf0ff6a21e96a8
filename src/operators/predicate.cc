#include "operators/predicate.h"

#include <sstream>

namespace farview {

const char* CompareOpToString(CompareOp op) {
  switch (op) {
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "!=";
  }
  return "?";
}

Predicate Predicate::Int(int col, CompareOp op, int64_t value) {
  Predicate p;
  p.col_ = col;
  p.op_ = op;
  p.is_real_ = false;
  p.int_value_ = value;
  return p;
}

Predicate Predicate::Real(int col, CompareOp op, double value) {
  Predicate p;
  p.col_ = col;
  p.op_ = op;
  p.is_real_ = true;
  p.real_value_ = value;
  return p;
}

bool Predicate::Eval(const TupleView& row) const {
  if (is_real_) {
    return Compare(op_, row.GetDouble(col_), real_value_);
  }
  return Compare(op_, row.GetInt64(col_), int_value_);
}

Status Predicate::Validate(const Schema& schema) const {
  if (col_ < 0 || col_ >= schema.num_columns()) {
    return Status::InvalidArgument("predicate column out of range");
  }
  const DataType t = schema.column(col_).type;
  if (is_real_) {
    if (t != DataType::kDouble) {
      return Status::InvalidArgument("real predicate on non-DOUBLE column " +
                                     schema.column(col_).name);
    }
  } else {
    if (t != DataType::kInt64 && t != DataType::kUInt64) {
      return Status::InvalidArgument(
          "integer predicate on non-integer column " +
          schema.column(col_).name);
    }
  }
  return Status::OK();
}

std::string Predicate::ToString(const Schema& schema) const {
  std::ostringstream out;
  out << schema.column(col_).name << " " << CompareOpToString(op_) << " ";
  if (is_real_) {
    out << real_value_;
  } else {
    out << int_value_;
  }
  return out.str();
}

Result<CompiledPredicate> CompiledPredicate::Compile(
    const PredicateList& preds, const Schema& schema) {
  FV_RETURN_IF_ERROR(preds.Validate(schema));
  CompiledPredicate compiled;
  for (const Predicate& p : preds.predicates()) {
    // fvcheck:allow=hot-path-alloc setup (operator construction)
    compiled.terms_.push_back(Term{schema.offset(p.column()), p.op(),
                                   p.is_real(), p.int_value(),
                                   p.real_value()});
  }
  return compiled;
}

}  // namespace farview
