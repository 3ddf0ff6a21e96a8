#ifndef FARVIEW_OPERATORS_OPERATOR_H_
#define FARVIEW_OPERATORS_OPERATOR_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>

#include "common/status.h"
#include "operators/batch.h"

namespace farview {

/// Per-operator counters, consumed by the Farview node's timing model and
/// by the resource/efficiency benches.
struct OperatorStats {
  uint64_t rows_in = 0;
  uint64_t rows_out = 0;
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;

  void Clear() { *this = OperatorStats{}; }
};

/// A streaming operator block (Section 5.1): "operator pipelines are
/// constructed from individual blocks that implement a given operator and
/// provide standard interfaces to combine them into pipelines."
///
/// The software contract mirrors the hardware streaming contract:
///  - `Process` consumes a batch and emits the resulting batch immediately
///    (bump-in-the-wire operators emit as they consume);
///  - `Flush` signals end-of-stream; blocking operators (group by,
///    aggregation) emit their result here, streaming operators emit nothing;
///  - operators are configured at construction — the hardware pipelines are
///    pre-compiled with predicates hardwired into matching circuits — and
///    `Reset` rearms them for the next request on the same region.
///
/// Operators are purely functional; all timing lives in the Farview node.
class Operator {
 public:
  virtual ~Operator() = default;

  /// Processes one input batch, returning output rows produced so far.
  virtual Result<Batch> Process(Batch in) = 0;

  /// Ends the stream; returns any rows the operator was holding back.
  virtual Result<Batch> Flush() = 0;

  /// Layout of batches this operator emits.
  virtual const Schema& output_schema() const = 0;

  /// Operator kind name for logs / resource accounting ("selection", ...).
  virtual std::string name() const = 0;

  /// Rearms the operator for a fresh stream.
  virtual void Reset() = 0;

  const OperatorStats& stats() const { return stats_; }

 protected:
  /// Subclass helper: account a processed batch pair.
  void Account(const Batch& in, const Batch& out) {
    stats_.rows_in += in.num_rows;
    stats_.bytes_in += in.size_bytes();
    stats_.rows_out += out.num_rows;
    stats_.bytes_out += out.size_bytes();
  }
  /// Subclass helper: account flush-phase output.
  void AccountOut(const Batch& out) {
    stats_.rows_out += out.num_rows;
    stats_.bytes_out += out.size_bytes();
  }

  /// Subclass helpers for operators that emit at most one row per input
  /// row (filters, DISTINCT, the one-match join). `SizeOutput` sizes `out`
  /// for `max_rows` rows of its schema and returns where the first goes,
  /// so each output row is written once, with a fixed-size copy, instead
  /// of growing the buffer row by row; `CutOutput` then cuts `out` to the
  /// rows written before `end`.
  static uint8_t* SizeOutput(Batch* out, uint64_t max_rows) {
    // fvcheck:allow=hot-path-alloc pooled ByteBuffer
    out->data.resize(max_rows * out->schema->tuple_width());
    return out->data.data();
  }
  static void CutOutput(Batch* out, const uint8_t* end) {
    const uint32_t tw = out->schema->tuple_width();
    out->num_rows = static_cast<uint64_t>(end - out->data.data()) / tw;
    // fvcheck:allow=hot-path-alloc shrinks; never grows
    out->data.resize(out->num_rows * tw);
  }

  /// Subclass helper for filters: the rows of `in` (layout `schema`) for
  /// which `keep(row bytes)` is true, stored through SizeOutput and
  /// CutOutput.
  template <typename Keep>
  static Batch KeepRows(const Batch& in, const Schema* schema, Keep keep) {
    Batch out = Batch::Empty(schema);
    if (in.num_rows == 0) return out;
    const uint32_t tw = schema->tuple_width();
    const uint8_t* row = in.bytes();
    uint8_t* dst = SizeOutput(&out, in.num_rows);
    for (uint64_t r = 0; r < in.num_rows; ++r, row += tw) {
      if (!keep(row)) continue;
      std::memcpy(dst, row, tw);
      dst += tw;
    }
    CutOutput(&out, dst);
    return out;
  }

  OperatorStats stats_;
};

/// Owning handle used to compose operator pipelines.
using OperatorPtr = std::unique_ptr<Operator>;

}  // namespace farview

#endif  // FARVIEW_OPERATORS_OPERATOR_H_
