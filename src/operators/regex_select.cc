#include "operators/regex_select.h"

#include <algorithm>
#include <bit>
#include <cstring>

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
  Batch out;
  if (full_match_) {
    // Full-match mode (LIKE) matches the logical string, i.e. up to the
    // NUL padding.
    out = KeepRows(in, &schema_, [this](const uint8_t* bytes) {
      return regex_.FullMatch(TupleView(&schema_, bytes).GetString(col_));
    });
  } else {
    out = SearchRows(in);
  }
  Account(in, out);
  return out;
}

Batch RegexSelectOp::SearchRows(const Batch& in) const {
  // Search mode scans the full fixed-width field (NUL padding cannot
  // produce spurious matches for text patterns).
  Batch out = Batch::Empty(&schema_);
  const uint32_t tw = schema_.tuple_width();
  const uint32_t offset = schema_.offset(col_);
  const uint32_t width = schema_.width(col_);
  const uint8_t* rows = in.bytes();
  uint8_t* dst = SizeOutput(&out, in.num_rows);
  for (uint64_t r = 0; r < in.num_rows; r += Regex::kLanes) {
    const int n = static_cast<int>(
        std::min<uint64_t>(Regex::kLanes, in.num_rows - r));
    const uint8_t* lane0 = rows + r * tw;
    for (uint32_t hits = regex_.SearchLanes(lane0 + offset, tw, width, n);
         hits != 0; hits &= hits - 1) {
      std::memcpy(dst, lane0 + std::countr_zero(hits) * tw, tw);
      dst += tw;
    }
  }
  CutOutput(&out, dst);
  return out;
}

}  // namespace farview
