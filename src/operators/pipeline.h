#ifndef FARVIEW_OPERATORS_PIPELINE_H_
#define FARVIEW_OPERATORS_PIPELINE_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "operators/grouping.h"
#include "operators/hash_join.h"
#include "operators/operator.h"
#include "operators/predicate.h"

namespace farview {

/// An ordered chain of operators deployed as one unit into a dynamic region
/// (Section 5.1). A pipeline is pre-compiled (built) before it can serve
/// requests, mirroring the pre-compiled hardware bitstreams.
class Pipeline {
 public:
  explicit Pipeline(Schema input_schema)
      : input_schema_(std::move(input_schema)) {}

  Pipeline(Pipeline&&) = default;
  Pipeline& operator=(Pipeline&&) = default;

  /// Streams one batch through all operators, returning whatever emerges.
  Result<Batch> Process(Batch in);

  /// Ends the stream: flushes every operator in order, feeding flush output
  /// through the downstream operators.
  Result<Batch> Flush();

  /// Rearms all operators for the next request.
  void Reset();

  const Schema& input_schema() const { return input_schema_; }

  /// Output layout (the last operator's schema; the input schema when the
  /// pipeline is empty, i.e. a plain read).
  const Schema& output_schema() const;

  size_t num_operators() const { return ops_.size(); }
  const Operator& op(size_t i) const { return *ops_[i]; }
  Operator& op(size_t i) { return *ops_[i]; }

  /// True when some operator holds data back until flush (group by /
  /// aggregate): the node must not expect streaming output.
  bool IsBlocking() const;

  /// "projection|selection|group_by" — used in logs and resource reports.
  std::string Describe() const;

  /// Appends an already-constructed operator (used by PipelineBuilder).
  // fvcheck:allow=hot-path-alloc setup (pipeline build)
  void Append(OperatorPtr op) { ops_.push_back(std::move(op)); }

 private:
  Schema input_schema_;
  std::vector<OperatorPtr> ops_;
};

/// Fluent builder for the supported operator combinations, e.g.:
///
///   FV_ASSIGN_OR_RETURN(Pipeline p,
///       PipelineBuilder(schema)
///           .Select({Predicate::Int(0, CompareOp::kLt, 50)})
///           .Project({0, 2})
///           .Build());
///
/// Errors (bad columns, mistyped predicates, bad regex) are accumulated and
/// reported by Build().
class PipelineBuilder {
 public:
  explicit PipelineBuilder(Schema input_schema);

  PipelineBuilder& Project(std::vector<int> columns);
  PipelineBuilder& Select(std::vector<Predicate> predicates);
  PipelineBuilder& RegexSelect(int col, const std::string& pattern,
                               bool full_match = false);
  PipelineBuilder& Distinct(std::vector<int> key_columns,
                            const GroupingConfig& config = {});
  PipelineBuilder& GroupBy(std::vector<int> key_columns,
                           std::vector<AggSpec> aggs,
                           const GroupingConfig& config = {});
  PipelineBuilder& Aggregate(std::vector<AggSpec> aggs);
  /// Joins the stream against a small build-side table held on chip (the
  /// conclusion's small-table join extension). The build side must fit the
  /// on-chip hash structure.
  PipelineBuilder& HashJoinSmall(int probe_key_col, const Table& build,
                                 int build_key_col,
                                 const JoinConfig& config = {});
  PipelineBuilder& Decrypt(const uint8_t key[16], const uint8_t nonce[16],
                           uint64_t initial_offset = 0);
  /// Compresses result rows into LZ frames (must be the final logical
  /// stage; the client inflates with CompressOp::DecompressFrames).
  PipelineBuilder& Compress();
  /// The trailing packer is appended automatically by Build(); this adds an
  /// explicit mid-pipeline packer only for tests.
  PipelineBuilder& Pack();

  /// Finalizes: validates, appends the packing stage, and returns the
  /// pipeline (or the first accumulated error).
  Result<Pipeline> Build();

 private:
  /// Current schema as of the last appended operator.
  const Schema& Current() const;

  Pipeline pipeline_;
  Status first_error_;
};

/// Builds a fresh `Pipeline` on demand. `Pipeline` is move-only, so a load
/// that may run again keeps the recipe instead of the object: every pool
/// replica — including one rejoining after a crash — and every region the
/// `RegionScheduler` reconfigures for a job gets its own instance from the
/// same factory. Must be deterministic (same pipeline every call).
// fvcheck:allow=hot-path-alloc setup (a load's recipe, never per event)
using PipelineFactory = std::function<Result<Pipeline>()>;

}  // namespace farview

#endif  // FARVIEW_OPERATORS_PIPELINE_H_
