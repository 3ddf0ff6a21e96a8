#include "operators/hash_join.h"

#include <cstring>

namespace farview {
namespace {

bool IsEightByteNumeric(const Schema& s, int col) {
  if (col < 0 || col >= s.num_columns()) return false;
  const DataType t = s.column(col).type;
  return (t == DataType::kInt64 || t == DataType::kUInt64) &&
         s.width(col) == 8;
}

}  // namespace

Result<OperatorPtr> HashJoinOp::Create(const Schema& probe, int probe_key_col,
                                       const Table& build, int build_key_col,
                                       const JoinConfig& config) {
  if (!IsEightByteNumeric(probe, probe_key_col)) {
    return Status::InvalidArgument("probe key must be an 8-byte int column");
  }
  if (!IsEightByteNumeric(build.schema(), build_key_col)) {
    return Status::InvalidArgument("build key must be an 8-byte int column");
  }
  const uint64_t capacity = static_cast<uint64_t>(config.cuckoo_ways) *
                            config.slots_per_way;
  if (build.num_rows() > capacity) {
    return Status::OutOfRange(
        "build side (" + std::to_string(build.num_rows()) +
        " rows) exceeds the on-chip table capacity (" +
        std::to_string(capacity) + ")");
  }

  // Build-side payload: every column except the key, in schema order —
  // prefixed to avoid name collisions with probe columns.
  std::vector<int> payload_cols;
  for (int c = 0; c < build.schema().num_columns(); ++c) {
    // fvcheck:allow=hot-path-alloc setup (Create)
    if (c != build_key_col) payload_cols.push_back(c);
  }
  std::vector<Column> out_cols = probe.columns();
  Schema build_payload;
  if (!payload_cols.empty()) {
    build_payload = build.schema().Project(payload_cols);
    for (const Column& c : build_payload.columns()) {
      // fvcheck:allow=hot-path-alloc setup (Create)
      out_cols.push_back(Column{"build_" + c.name, c.type, c.width});
    }
  }
  FV_ASSIGN_OR_RETURN(Schema output, Schema::Create(std::move(out_cols)));

  const uint32_t payload_width = build_payload.tuple_width();
  auto table = std::make_unique<CuckooTable>(
      config.cuckoo_ways, config.slots_per_way, /*key_width=*/8,
      payload_width);

  // Load the build side; reject duplicate keys.
  for (uint64_t r = 0; r < build.num_rows(); ++r) {
    const TupleView row = build.Row(r);
    uint8_t key[8];
    std::memcpy(key, row.ColumnData(build_key_col), 8);
    uint8_t* payload = nullptr;
    const CuckooTable::UpsertResult res = table->Upsert(key, &payload);
    if (res == CuckooTable::UpsertResult::kFound) {
      return Status::InvalidArgument(
          "duplicate key in build side at row " + std::to_string(r));
    }
    uint8_t* dst = payload;
    for (int c : payload_cols) {
      std::memcpy(dst, row.ColumnData(c), build.schema().width(c));
      dst += build.schema().width(c);
    }
  }

  return OperatorPtr(new HashJoinOp(probe, probe_key_col,
                                    std::move(build_payload),
                                    std::move(output), std::move(table)));
}

HashJoinOp::HashJoinOp(Schema probe, int probe_key_col, Schema build_payload,
                       Schema output, std::unique_ptr<CuckooTable> table)
    : probe_schema_(std::move(probe)),
      probe_key_col_(probe_key_col),
      build_payload_schema_(std::move(build_payload)),
      output_schema_(std::move(output)),
      table_(std::move(table)) {}

Result<Batch> HashJoinOp::Process(Batch in) {
  // A build key is stored once, so a probe row joins at most one build
  // row: the output is sized for one joined row per input row, written in
  // place, then cut once.
  Batch out = Batch::Empty(&output_schema_);
  uint8_t* dst = SizeOutput(&out, in.num_rows);
  const uint32_t probe_width = probe_schema_.tuple_width();
  const uint32_t payload_width = build_payload_schema_.tuple_width();
  for (uint64_t r = 0; r < in.num_rows; ++r) {
    const TupleView row = in.Row(r);
    const uint8_t* key = row.ColumnData(probe_key_col_);
    const uint8_t* payload = table_->Lookup(key);
    if (payload == nullptr) continue;  // inner join: drop non-matching rows
    std::memcpy(dst, row.data(), probe_width);
    std::memcpy(dst + probe_width, payload, payload_width);
    dst += probe_width + payload_width;
  }
  CutOutput(&out, dst);
  Account(in, out);
  return out;
}

}  // namespace farview
