// Bench-side measurement plumbing shared by the four fvbench workloads.
//
// Everything here observes the simulator from outside: host time comes from
// std::chrono::steady_clock around the bench's own calls, simulated time
// from the results the public API hands back, and layer counters from the
// modules' public accessors. Nothing under src/ is instrumented.
#ifndef FVBENCH_HARNESS_H_
#define FVBENCH_HARNESS_H_

#include <array>
#include <cstdint>
#include <cstdio>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "fv/farview_node.h"

namespace fvbench {

using farview::SimTime;

/// Host monotonic clock in nanoseconds.
uint64_t HostNanos();

/// Seconds between two HostNanos() readings.
inline double HostSeconds(uint64_t from, uint64_t to) {
  return static_cast<double>(to - from) * 1e-9;
}

/// Stream id mixed into a workload seed so each arrival stream, table and
/// payload pool draws from its own generator.
uint64_t MixSeed(uint64_t seed, uint64_t stream);

/// Counter-based table content: the 8-byte word at `word` of stream `key`.
/// Lets checks recompute expected bytes instead of keeping a second copy of
/// every table in host memory.
uint64_t ContentWord(uint64_t key, uint64_t word);

/// Fills `len` bytes (a multiple of 8) at table byte offset `offset`.
void FillContent(uint64_t key, uint64_t offset, uint8_t* out, uint64_t len);

/// True when `data` equals FillContent(key, offset, ..., len).
bool MatchesContent(uint64_t key, uint64_t offset, const uint8_t* data,
                    uint64_t len);

/// 64-bit digest of a byte range (FNV-1a over 8-byte words, tail bytes
/// folded in); used to compare offload results with baseline references.
uint64_t Digest(const uint8_t* data, uint64_t len);

/// Exponential inter-arrival gap for a Poisson stream of `rate_per_s`.
SimTime ExpGap(double u01, double rate_per_s);

/// Log-uniform size in [lo, hi], rounded down to a multiple of `align`.
uint64_t LogUniform(double u01, uint64_t lo, uint64_t hi, uint64_t align);

/// Mean of LogUniform over [lo, hi] (continuous approximation).
double LogUniformMean(uint64_t lo, uint64_t hi);

/// Nearest-rank percentile of a sample set; sorts on first query.
class Latencies {
 public:
  void Add(SimTime v) {
    v_.push_back(v);
    sorted_ = false;
  }
  size_t count() const { return v_.size(); }
  /// p in [0, 100]; 0 when empty.
  double PercentileUs(double p);

 private:
  std::vector<SimTime> v_;
  bool sorted_ = true;
};

/// Operation classes of a workload's traffic.
enum class OpClass : uint8_t {
  kMeasured = 0,    ///< the class the latency metrics describe
  kWrite = 1,       ///< writes (rdma_rw, shard_failover)
  kBackground = 2,  ///< other traffic (tenant_storm batch tenants)
};
inline constexpr int kNumOpClasses = 3;

/// Operator kinds whose host cost the replay probes measure.
enum class OpKind : uint8_t {
  kSelect = 0,
  kDistinct,
  kGroupBy,
  kRegex,
  kDecrypt,
  kJoin,
};
inline constexpr int kNumOpKinds = 6;
const char* OpKindName(OpKind k);

/// Spans kept in memory and written as Chrome trace-event JSON at exit.
/// Request spans live on the simulated timeline (pid 1, microseconds of
/// simulated time); host spans on the host timeline (pid 2, microseconds
/// since process start). Only every `sample_every`-th operation is kept
/// and the total is capped, so memory stays bounded on long runs.
class Tracer {
 public:
  Tracer(bool enabled, uint64_t host_origin_ns, uint64_t sample_every);

  bool Sampled(uint64_t op_seq) const {
    return enabled_ && op_seq % sample_every_ == 0;
  }

  /// A request span: `tid` groups spans by class, `args` is a JSON object
  /// body (without braces).
  void SimSpan(const char* name, int tid, SimTime start, SimTime dur,
               const std::string& args);
  /// A host-time span between two HostNanos() readings.
  void HostSpan(const char* name, uint64_t begin_ns, uint64_t end_ns,
                const std::string& args);

  size_t spans() const { return events_.size(); }
  farview::Status Write(const std::string& path) const;

 private:
  struct Event {
    std::string name;
    int pid = 0;
    int tid = 0;
    double ts_us = 0;
    double dur_us = 0;
    std::string args;
  };
  void Push(Event e);

  bool enabled_ = false;
  uint64_t host_origin_ns_ = 0;
  uint64_t sample_every_ = 1;
  std::vector<Event> events_;
};

/// Bench-side accounting of open-loop operations. An operation is counted
/// in the metrics when its due time falls in the timed window
/// [window_begin, window_end); warm-up operations still run but are not
/// measured. Latency is completion minus due time.
class Recorder {
 public:
  /// Identity of one operation, captured by value in its callbacks.
  struct Op {
    OpClass cls = OpClass::kMeasured;
    SimTime due = 0;
    uint64_t seq = 0;
  };

  Recorder(SimTime window_begin, SimTime window_end, SimTime slo_limit,
           Tracer* tracer, bool time_submits);

  /// Starts an operation due now; the caller submits it right after.
  Op Begin(OpClass cls, SimTime due);
  /// A bench-level resubmission of `op` (after a shed): one more attempt.
  void Retry(const Op& op);
  void Complete(const Op& op, SimTime done_at, uint64_t bytes);
  void Fail(const Op& op, const farview::Status& s);

  /// Operator input bytes of an offload request, for the host-share
  /// estimate (only counted for operations inside the window).
  void OperatorBytes(const Op& op, OpKind kind, uint64_t bytes);

  /// Host-time span around a submit call into the routing layer (clients)
  /// or the region scheduler; recorded only when `time_submits`.
  bool timing_submits() const { return time_submits_; }
  void RouteSubmit(const Op& op, uint64_t ns) {
    route_ns_ += ns;
    ++route_calls_;
    NoteSubmit(op, ns);
  }
  void SchedSubmit(const Op& op, uint64_t ns) {
    sched_ns_ += ns;
    ++sched_calls_;
    NoteSubmit(op, ns);
  }

  bool InWindow(SimTime due) const {
    return due >= window_begin_ && due < window_end_;
  }

  /// From now on, count every completion whatever its due time: the
  /// client-side twin of a node-counter snapshot taken at the same
  /// instant, for ratios against node counters (fan-out, time above the
  /// node).
  void StartCountingCompletions() { counting_ = true; }
  uint64_t counted_completions() const { return counted_; }
  double CountedMeanLatencyUs() const {
    return counted_ ? farview::ToMicros(counted_latency_) /
                          static_cast<double>(counted_)
                    : 0;
  }

  SimTime window_begin() const { return window_begin_; }
  SimTime window_end() const { return window_end_; }
  uint64_t in_flight() const { return in_flight_; }

  // --- Window totals ------------------------------------------------------
  uint64_t ops() const { return ops_; }
  uint64_t ops_failed() const { return ops_failed_; }
  uint64_t attempts() const { return attempts_; }
  uint64_t ok_ops() const { return ok_ops_; }
  uint64_t measured_ops() const { return measured_ops_; }
  uint64_t measured_met() const { return measured_met_; }
  uint64_t delivered_bytes() const { return delivered_bytes_; }
  Latencies& latencies(OpClass c) {
    return latencies_[static_cast<size_t>(c)];
  }
  uint64_t operator_bytes(OpKind k) const {
    return operator_bytes_[static_cast<size_t>(k)];
  }
  double route_submit_ns() const {
    return route_calls_ ? static_cast<double>(route_ns_) / route_calls_ : 0;
  }
  double sched_submit_ns() const {
    return sched_calls_ ? static_cast<double>(sched_ns_) / sched_calls_ : 0;
  }
  const std::string& first_error() const { return first_error_; }

 private:
  /// Keeps the submit duration of a sampled operation for its span.
  void NoteSubmit(const Op& op, uint64_t ns) {
    if (tracer_ != nullptr && tracer_->Sampled(op.seq)) {
      sampled_submit_ns_[op.seq] = ns;
    }
  }

  SimTime window_begin_;
  SimTime window_end_;
  SimTime slo_limit_;
  Tracer* tracer_;
  bool time_submits_;
  std::unordered_map<uint64_t, uint64_t> sampled_submit_ns_;

  uint64_t next_seq_ = 0;
  uint64_t in_flight_ = 0;
  uint64_t ops_ = 0;
  uint64_t ops_failed_ = 0;
  uint64_t attempts_ = 0;
  uint64_t ok_ops_ = 0;
  uint64_t measured_met_ = 0;
  uint64_t delivered_bytes_ = 0;
  bool counting_ = false;
  uint64_t counted_ = 0;
  SimTime counted_latency_ = 0;
  uint64_t measured_ops_ = 0;
  std::array<Latencies, kNumOpClasses> latencies_;
  std::array<uint64_t, kNumOpKinds> operator_bytes_{};
  uint64_t route_ns_ = 0;
  uint64_t route_calls_ = 0;
  uint64_t sched_ns_ = 0;
  uint64_t sched_calls_ = 0;
  std::string first_error_;
};

/// Public counters of every node of a fixture, summed, at one instant.
/// Per-layer metrics are differences of two snapshots, so samples recorded
/// during set-up and warm-up drop out (a count/sum watermark on the
/// NodeStats distributions instead of reading their per-completion
/// records).
struct LayerSnapshot {
  struct Dist {
    uint64_t n = 0;
    double sum = 0;  ///< picoseconds
  };
  Dist ingress, queue, execute, egress, total;
  uint64_t completed = 0;
  uint64_t rejected = 0;
  uint64_t region_busy_ps = 0;
  uint64_t link_busy_ps = 0;
  uint64_t packets = 0;
  uint64_t retransmits = 0;
  uint64_t mem_bytes = 0;
  uint64_t channel_busy_ps = 0;
  int nodes = 0;
  int regions = 0;
  int channels = 0;
  farview::NodeStats::ReliabilityStats rel;
  uint64_t gather_bytes = 0;
  uint64_t shed = 0;
  uint64_t overflows = 0;
  size_t backlog_high_water = 0;
  size_t queue_high_water = 0;
  /// Samples held by the stats registries (distributions + records).
  uint64_t stats_samples = 0;
  uint64_t stats_records = 0;
  uint64_t events = 0;

  static LayerSnapshot Take(const std::vector<farview::FarviewNode*>& nodes,
                            uint64_t events);
};

/// One named metric with its unit.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Ordered metric list, printed as a table and as the JSON object the
/// runner parses.
class Metrics {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  std::string Json() const;
  void Print(FILE* out, const char* title) const;

 private:
  std::vector<Metric> metrics_;
};

/// Peak resident set of this process in MiB (getrusage ru_maxrss).
double PeakRssMiB();

/// Runs a fixed piece of host work that does not touch the simulator
/// (random read-modify-writes over 32 MiB, a 2 MiB copy, hashing) and
/// returns its host seconds. The timed phase runs it after every slice:
/// on a shared host whose speed drifts by tens of percent over tens of
/// seconds, host time scaled by the kernel's speed repeats far better
/// than raw wall time, and a change to src/ cannot move the kernel.
double ReferenceKernelSeconds();

/// Host seconds of one ReferenceKernelSeconds() call on the calibration
/// machine (README.md "Calibration"); the scale of host_norm_s.
inline constexpr double kReferenceKernelFrozenS = 0.0190;

}  // namespace fvbench

#endif  // FVBENCH_HARNESS_H_
