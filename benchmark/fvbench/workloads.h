// The four fvbench workloads behind one small interface. README.md gives
// the reason each exists; workloads.cc holds their frozen calibration.
#ifndef FVBENCH_WORKLOADS_H_
#define FVBENCH_WORKLOADS_H_

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "fv/farview_node.h"
#include "fv/region_scheduler.h"
#include "harness.h"
#include "sim/engine.h"

namespace fvbench {

/// Fixture sizing: `kFull` is the measured configuration; `kSmall` shrinks
/// tables for `--scale smoke` runs and for the load-ladder fixtures, whose
/// short schedules need the same traffic mix but not the memory footprint.
enum class Size { kFull, kSmall };

/// Host time of each set-up phase of one fixture build.
struct SetupTimes {
  double gen_s = 0;     ///< table generation (and encryption)
  double upload_s = 0;  ///< allocation + simulated upload
  double load_s = 0;    ///< pipeline loads / region warm-up
};

/// Host cost of the workload's own inputs replayed through one layer's
/// public call, outside the simulation.
struct ReplayReport {
  double mem_copy_gbps = 0;  ///< Mmu::ReadInto over the workload's ranges
  /// Pipeline::Process + Flush, ns per input byte, per operator kind (0 for
  /// kinds the workload does not run).
  std::array<double, kNumOpKinds> op_ns_per_byte{};
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds the fixture: tables, allocation + upload, pipeline loads.
  virtual void Setup(SetupTimes* times) = 0;

  /// One-time oracle work (baseline references); not part of set-up time.
  virtual void ComputeReferences() {}

  /// Corrupts expected reference digests, so the correctness gate must
  /// fail the run (self-test hook; a no-op for workloads without them).
  virtual void CorruptReference() {}

  /// Schedules the open-loop arrivals on [start, start + horizon), with the
  /// whole mix offering `load` as a fraction of the workload's capacity;
  /// each arrival schedules the next.
  virtual void Start(SimTime start, SimTime horizon, double load,
                     Recorder* rec) = 0;

  virtual farview::sim::Engine& engine() = 0;
  virtual std::vector<farview::FarviewNode*> nodes() = 0;

  /// Queue pairs / tenants issuing traffic (the ladder's backlog bound).
  virtual int connections() const = 0;

  /// Post-drain correctness checks; empty when everything matched, else a
  /// description of the first mismatch.
  virtual std::string Verify() = 0;

  /// Replays the workload's inputs through Mmu::ReadInto and through its
  /// pipelines (traced runs only).
  virtual void Replay(ReplayReport* out) = 0;

  /// The region scheduler, when the workload submits through one.
  virtual const farview::RegionScheduler* scheduler() const { return nullptr; }
};

/// Frozen calibration and factory of one workload.
struct WorkloadSpec {
  std::string name;
  /// Simulated seconds advanced per host second of timed phase (Release,
  /// calibration machine): `--seconds S` runs a horizon of S times this.
  double sim_per_host_s = 0;
  /// Fraction of the workload's capacity its nominal mix offers; the load
  /// ladder reports the highest passing load on the same scale.
  double nominal_load = 1;
  /// Latency limit of the measured class: 2x its unloaded p99.
  SimTime slo_limit = 0;
  /// Simulated length of one load-ladder probe.
  SimTime ladder_horizon = 0;
  std::unique_ptr<Workload> (*make)(uint64_t seed, Size size) = nullptr;
};

const std::vector<WorkloadSpec>& AllWorkloads();

std::unique_ptr<Workload> MakeRdmaRw(uint64_t seed, Size size);
std::unique_ptr<Workload> MakeOffloadMix(uint64_t seed, Size size);
std::unique_ptr<Workload> MakeShardFailover(uint64_t seed, Size size);
std::unique_ptr<Workload> MakeTenantStorm(uint64_t seed, Size size);

/// A Poisson arrival stream driven by the engine: each arrival schedules
/// the next, so at most one arrival event per stream is ever pending.
/// `fire(due)` runs at each arrival instant in [start, end). With a
/// nonzero `period`, arrivals happen only in the first `on` of every
/// period (storms); the memoryless gap restarts at each window.
class ArrivalStream {
 public:
  using Fire = std::function<void(SimTime due)>;

  ArrivalStream(farview::sim::Engine* engine, uint64_t seed,
                double rate_per_s, SimTime start, SimTime end, Fire fire,
                SimTime period = 0, SimTime on = 0);

  ArrivalStream(const ArrivalStream&) = delete;
  ArrivalStream& operator=(const ArrivalStream&) = delete;

 private:
  /// Schedules the arrival that follows instant `t`.
  void ScheduleAfter(SimTime t);

  farview::sim::Engine* engine_;
  farview::Rng rng_;
  double rate_;
  SimTime start_;
  SimTime end_;
  Fire fire_;
  SimTime period_;
  SimTime on_;
};

}  // namespace fvbench

#endif  // FVBENCH_WORKLOADS_H_
