#include "operators/regex_select.h"

namespace farview {

Result<OperatorPtr> RegexSelectOp::Create(const Schema& input, int col,
                                          const std::string& pattern,
                                          bool full_match) {
  if (col < 0 || col >= input.num_columns()) {
    return Status::InvalidArgument("regex column out of range");
  }
  if (input.column(col).type != DataType::kChar) {
    return Status::InvalidArgument("regex selection requires a CHAR column");
  }
  FV_ASSIGN_OR_RETURN(Regex regex, Regex::Compile(pattern));
  return OperatorPtr(
      new RegexSelectOp(input, col, std::move(regex), full_match));
}

Result<Batch> RegexSelectOp::Process(Batch in) {
  const uint32_t w = schema_.width(col_);
  Batch out = KeepRows(in, &schema_, [this, w](const uint8_t* bytes) {
    const TupleView row(&schema_, bytes);
    // Search mode scans the full fixed-width field (NUL padding cannot
    // produce spurious matches for text patterns); full-match mode (LIKE)
    // matches against the logical string, i.e. up to the NUL padding.
    if (full_match_) return regex_.FullMatch(row.GetString(col_));
    return regex_.Search(std::string_view(
        reinterpret_cast<const char*>(row.ColumnData(col_)), w));
  });
  Account(in, out);
  return out;
}

}  // namespace farview
