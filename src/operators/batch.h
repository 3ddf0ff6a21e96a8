#ifndef FARVIEW_OPERATORS_BATCH_H_
#define FARVIEW_OPERATORS_BATCH_H_

#include <cstdint>

#include "common/bytes.h"
#include "table/schema.h"
#include "table/table.h"

namespace farview {

/// A run of whole tuples moving through an operator pipeline. Operators are
/// fed batches rather than single tuples purely as a software convenience;
/// the simulated hardware consumes one tuple per cycle regardless (timing is
/// the Farview node's concern, not the operators').
///
/// A batch either owns its rows (`data`) or borrows them: a borrowed batch
/// (`Borrow`) reads rows that live in someone else's buffer, such as a
/// region's materialized input stream, so operators consume the stream in
/// place instead of a per-burst copy of it (Section 5: operators process
/// the stream as it flows). Operators read rows through `bytes()`, `Row()`
/// and `size_bytes()`, which serve both forms; only owned batches may be
/// written through `data`. Borrowed bytes are valid only while the call
/// that received the batch runs: an operator that needs rows later copies
/// them.
struct Batch {
  /// Row layout of the batch's rows. Points into the owning
  /// pipeline/operator; valid for the lifetime of the query.
  const Schema* schema = nullptr;
  /// Owned rows; stays empty while the batch is borrowed.
  ByteBuffer data;
  uint64_t num_rows = 0;

  /// First byte of the rows: the borrowed bytes, else `data`'s.
  const uint8_t* bytes() const {
    return borrowed_ != nullptr ? borrowed_ : data.data();
  }
  uint64_t size_bytes() const {
    return borrowed_ != nullptr ? borrowed_bytes_ : data.size();
  }
  bool borrowed() const { return borrowed_ != nullptr; }
  bool empty() const { return num_rows == 0; }

  TupleView Row(uint64_t r) const {
    return TupleView(schema, bytes() + r * schema->tuple_width());
  }

  /// Appends the rows' bytes to `out`.
  void AppendTo(ByteBuffer* out) const {
    const uint8_t* p = bytes();
    out->insert(out->end(), p, p + size_bytes());
  }

  /// An empty batch with the given layout.
  static Batch Empty(const Schema* schema) {
    Batch b;
    b.schema = schema;
    return b;
  }

  /// A batch reading `rows` whole tuples of `schema` at `bytes` without
  /// copying them. `bytes` must stay valid and unchanged while any operator
  /// holds the batch or a batch passed through from it.
  static Batch Borrow(const Schema* schema, const uint8_t* bytes,
                      uint64_t rows) {
    Batch b;
    b.schema = schema;
    b.num_rows = rows;
    b.borrowed_ = bytes;
    b.borrowed_bytes_ = rows * schema->tuple_width();
    return b;
  }

 private:
  const uint8_t* borrowed_ = nullptr;
  uint64_t borrowed_bytes_ = 0;
};

/// Reassembles whole tuples from an arbitrary byte stream.
///
/// Data arrives from the memory stack in stripe-sized bursts whose
/// boundaries do not align with tuple boundaries; the projection operator
/// "parses the incoming data stream based on query parameters describing
/// the tuples and their size" (Section 5.2). This parser keeps the partial
/// trailing tuple between pushes and copies every pushed burst into an
/// owned batch. A dynamic region does not use it: its input is already one
/// contiguous buffer, so it borrows the completed tuples in place
/// (`Batch::Borrow`) and produces the same rows and batch boundaries. The
/// parser serves callers that only have the bursts, such as fvbench's
/// operator replays.
class StreamParser {
 public:
  explicit StreamParser(const Schema* schema) : schema_(schema) {}

  /// Appends `len` raw bytes and returns a batch of all now-complete rows.
  Batch Push(const uint8_t* data, uint64_t len);

  /// Bytes of the trailing partial tuple currently buffered.
  uint64_t pending_bytes() const { return partial_.size(); }

  /// Discards buffered state (between queries).
  void Reset() { partial_.clear(); }

 private:
  const Schema* schema_;
  ByteBuffer partial_;
};

}  // namespace farview

#endif  // FARVIEW_OPERATORS_BATCH_H_
