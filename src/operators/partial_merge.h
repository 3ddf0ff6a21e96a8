#ifndef FARVIEW_OPERATORS_PARTIAL_MERGE_H_
#define FARVIEW_OPERATORS_PARTIAL_MERGE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "operators/grouping.h"
#include "table/schema.h"

namespace farview {

/// Client-side merge of per-shard partial GROUP BY results (DESIGN.md §13).
///
/// A sharded pool runs the blocking GROUP BY operator independently on each
/// shard's table fragment; every shard ships one partial row per group it
/// saw. Those partials are only combinable when every aggregate is
/// decomposable, so the shard-side plan rewrites the requested aggregates
/// first (`PartialAggSpecs`): COUNT/SUM/MIN/MAX combine with themselves and
/// pass through, AVG(c) is split into SUM(c) + COUNT, finalized as their
/// quotient at the client (the classic partial/final aggregation split).
/// `PartialMerger` then re-keys the shipped rows, combines colliding groups,
/// and emits the final layout — exactly the columns a single-node
/// `GroupByOp` with the original specs would emit.
///
/// This runs on the compute node, not in a region: it is deliberately NOT an
/// `Operator` subclass and carries no resource-model cost — the simulated
/// cost of a sharded GROUP BY is the slowest shard's offload plus the
/// shipped partial rows on the wire, which the gather path already models.

/// Rewrites `aggs` into shard-executable partial aggregates. Appends, per
/// original spec, either the spec itself (COUNT/SUM/MIN/MAX) or SUM(col) +
/// COUNT (AVG); `partial_index` receives, per original spec, the index of
/// its (first) partial — an AVG's COUNT partial is at `partial_index[i]+1`.
std::vector<AggSpec> PartialAggSpecs(const std::vector<AggSpec>& aggs,
                                     std::vector<int>* partial_index);

/// Merges per-shard partial GROUP BY rows and finalizes the original
/// aggregates. Deterministic: output groups appear in first-consumed order
/// (shards must be consumed in a deterministic order for identical output).
class PartialMerger {
 public:
  /// `input` and `key_columns`/`aggs` are the single-node GROUP BY
  /// arguments; the merger derives both the partial row layout it consumes
  /// and the final row layout it emits from them.
  static Result<PartialMerger> Create(const Schema& input,
                                      std::vector<int> key_columns,
                                      std::vector<AggSpec> aggs);

  /// Folds one shard's partial result rows (key columns + partial
  /// aggregates) into the merge state. Fails on a torn buffer.
  Status Consume(const uint8_t* rows, uint64_t bytes);

  /// Emits the merged groups in the final layout, one row per group in
  /// first-consumed order, and resets the merge state.
  ByteBuffer Finalize();

  uint64_t num_groups() const { return groups_.size(); }

 private:
  PartialMerger() = default;

  Schema partial_schema_;  ///< rows each shard ships: keys + partials
  Schema final_schema_;    ///< rows `Finalize` emits: keys + originals
  uint32_t key_width_ = 0;
  std::vector<AggSpec> aggs_;          ///< original (final) aggregates
  std::vector<AggSpec> partials_;      ///< shard-side aggregates
  std::vector<int> partial_index_;     ///< original spec -> first partial
  /// Key bytes -> accumulator (one int64 per partial spec), plus the
  /// first-consumed order that makes Finalize deterministic.
  std::map<std::string, size_t> group_index_;
  std::vector<std::string> group_keys_;
  std::vector<std::vector<int64_t>> groups_;
};

}  // namespace farview

#endif  // FARVIEW_OPERATORS_PARTIAL_MERGE_H_
