#ifndef FARVIEW_OPTIMIZER_OPTIMIZER_H_
#define FARVIEW_OPTIMIZER_OPTIMIZER_H_

#include <string>

#include "baseline/cpu_model.h"
#include "baseline/query_spec.h"
#include "fv/fv_config.h"
#include "fv/request.h"

namespace farview {

/// Statistics the optimizer consumes (the client-side catalog would keep
/// these up to date).
struct TableStats {
  uint64_t num_rows = 0;
  uint32_t tuple_bytes = 0;
  /// Estimated fraction of rows surviving the WHERE clause.
  double selectivity = 1.0;
  /// Estimated distinct keys for grouping operators (0 = unknown; the
  /// optimizer then assumes no reduction).
  uint64_t distinct_keys = 0;

  uint64_t TableBytes() const { return num_rows * tuple_bytes; }
};

/// A physical execution decision for one query.
struct PhysicalPlan {
  enum class Placement {
    kFarview,   ///< offload to the smart disaggregated memory
    kLocalCpu,  ///< fetch + process on the compute node
  };
  Placement placement = Placement::kFarview;

  /// Use the vectorized processing model (Section 5.3).
  bool vectorized = false;

  /// Use smart addressing for a narrow projection (Section 5.2); when set,
  /// `sa_offset`/`sa_access_bytes` describe the per-tuple window.
  bool smart_addressing = false;
  uint32_t sa_offset = 0;
  uint32_t sa_access_bytes = 0;

  /// Cost estimates behind the decision (simulated-time scale).
  SimTime estimated_farview = 0;
  SimTime estimated_local = 0;

  /// Applies the offload knobs to a request.
  void ApplyTo(FvRequest* request) const;

  /// One-line EXPLAIN text.
  std::string Explain() const;
};

/// Cost-based physical optimizer — the paper's first-named future-work
/// item: "develop a query optimizer that takes the new parameters and
/// abilities of the system into consideration". Decisions made here:
///
///  1. *Placement*: offloading pays a base RTT and runs at data-path rates,
///     so tiny tables are cheaper on the local CPU; large scans belong in
///     the disaggregated memory.
///  2. *Vectorization*: parallel pipes only help when the network is not
///     the bottleneck (high selectivity keeps the link busy; low
///     selectivity shifts the bottleneck to the pipe).
///  3. *Smart addressing vs streaming projection*: per-tuple scattered
///     reads beat streaming when the projected window is much narrower
///     than the tuple (the Figure 7 crossover).
///
/// Estimates intentionally reuse the same first-order models that drive
/// the simulator, so `tests/optimizer_test.cc` can hold the optimizer
/// accountable against simulated outcomes.
class Optimizer {
 public:
  Optimizer(const FarviewConfig& fv, const CpuModelConfig& cpu)
      : fv_(fv), cpu_(cpu) {}

  /// Chooses a physical plan for `spec` over a table with `stats`.
  PhysicalPlan Plan(const QuerySpec& spec, const Schema& schema,
                    const TableStats& stats) const;

  /// Estimated Farview response time under the given knobs.
  SimTime EstimateFarview(const QuerySpec& spec, const Schema& schema,
                          const TableStats& stats, bool vectorized,
                          bool smart_addressing,
                          uint32_t sa_access_bytes) const;

  /// Estimated local-CPU (LCPU) execution time.
  SimTime EstimateLocal(const QuerySpec& spec, const Schema& schema,
                        const TableStats& stats) const;

  /// True when the spec is eligible for smart addressing: pure projection
  /// of a contiguous column window (no predicates, regex, decrypt, join or
  /// grouping — those need other columns or whole-stream offsets). On
  /// success sets `offset`/`bytes` to the window.
  static bool SmartAddressingWindow(const QuerySpec& spec,
                                    const Schema& schema, uint32_t* offset,
                                    uint32_t* bytes);

 private:
  /// Estimated result bytes leaving the node.
  uint64_t EstimateOutputBytes(const QuerySpec& spec, const Schema& schema,
                               const TableStats& stats) const;

  FarviewConfig fv_;
  CpuModelConfig cpu_;
};

}  // namespace farview

#endif  // FARVIEW_OPTIMIZER_OPTIMIZER_H_
