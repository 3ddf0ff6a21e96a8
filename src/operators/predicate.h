#ifndef FARVIEW_OPERATORS_PREDICATE_H_
#define FARVIEW_OPERATORS_PREDICATE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "table/schema.h"
#include "table/table.h"

namespace farview {

/// Comparison operators supported by the selection circuit.
enum class CompareOp { kLt, kLe, kGt, kGe, kEq, kNe };

/// Canonical name of a comparison operator (for plan/stat output).
const char* CompareOpToString(CompareOp op);

/// `lhs <op> rhs`: the one comparison both `Predicate::Eval` and the
/// compiled selection terms use, so they agree on every value (NaN too).
template <typename T>
inline bool Compare(CompareOp op, T lhs, T rhs) {
  switch (op) {
    case CompareOp::kLt:
      return lhs < rhs;
    case CompareOp::kLe:
      return lhs <= rhs;
    case CompareOp::kGt:
      return lhs > rhs;
    case CompareOp::kGe:
      return lhs >= rhs;
    case CompareOp::kEq:
      return lhs == rhs;
    case CompareOp::kNe:
      return lhs != rhs;
  }
  return false;
}

/// One column-vs-constant comparison. The paper's selection operators
/// compare "the value of an attribute ... against a constant provided in
/// the query" and support both integer and real predicates (the
/// `fvSelect` example uses `S.c > 3.14`).
class Predicate {
 public:
  /// col <op> value over an INT64 (or UINT64, compared signed) column.
  static Predicate Int(int col, CompareOp op, int64_t value);

  /// col <op> value over a DOUBLE column.
  static Predicate Real(int col, CompareOp op, double value);

  /// Evaluates against a row. The column type was validated at pipeline
  /// build time.
  bool Eval(const TupleView& row) const;

  int column() const { return col_; }
  CompareOp op() const { return op_; }
  bool is_real() const { return is_real_; }
  int64_t int_value() const { return int_value_; }
  double real_value() const { return real_value_; }

  /// Checks the predicate against a schema (column exists, type matches).
  Status Validate(const Schema& schema) const;

  std::string ToString(const Schema& schema) const;

 private:
  Predicate() = default;

  int col_ = -1;
  CompareOp op_ = CompareOp::kLt;
  bool is_real_ = false;
  int64_t int_value_ = 0;
  double real_value_ = 0.0;
};

/// A conjunction of predicates, possibly over different columns ("complex
/// predicates defined over different tuple columns", Section 5.3).
class PredicateList {
 public:
  PredicateList() = default;
  explicit PredicateList(std::vector<Predicate> preds)
      : preds_(std::move(preds)) {}

  // fvcheck:allow=hot-path-alloc setup (builder)
  void Add(Predicate p) { preds_.push_back(p); }

  bool Eval(const TupleView& row) const {
    for (const Predicate& p : preds_) {
      if (!p.Eval(row)) return false;
    }
    return true;
  }

  Status Validate(const Schema& schema) const {
    for (const Predicate& p : preds_) {
      FV_RETURN_IF_ERROR(p.Validate(schema));
    }
    return Status::OK();
  }

  const std::vector<Predicate>& predicates() const { return preds_; }
  bool empty() const { return preds_.empty(); }
  size_t size() const { return preds_.size(); }

 private:
  std::vector<Predicate> preds_;
};

/// A conjunction resolved once against a row layout: each predicate becomes
/// a (byte offset, op, constant) term, so a row is filtered with loads at
/// fixed offsets, without a schema lookup or an out-of-line call per row —
/// the software counterpart of the hardwired matching circuit (Section 5.3).
class CompiledPredicate {
 public:
  /// Validates `preds` against `schema` and resolves their columns.
  static Result<CompiledPredicate> Compile(const PredicateList& preds,
                                           const Schema& schema);

  /// True when the row at `row` (laid out per the compiled schema)
  /// satisfies every term; true for an empty conjunction.
  bool Eval(const uint8_t* row) const {
    for (const Term& t : terms_) {
      const uint8_t* p = row + t.offset;
      const bool pass = t.is_real
                            ? Compare(t.op, LoadDouble(p), t.real_value)
                            : Compare(t.op, LoadLE64Signed(p), t.int_value);
      if (!pass) return false;
    }
    return true;
  }

  size_t size() const { return terms_.size(); }

 private:
  struct Term {
    uint32_t offset;
    CompareOp op;
    bool is_real;
    int64_t int_value;
    double real_value;
  };

  std::vector<Term> terms_;
};

}  // namespace farview

#endif  // FARVIEW_OPERATORS_PREDICATE_H_
