// fvbench: one workload per process.
//
//   fvbench --workload W --seed N [--seconds S] [--scale full|smoke]
//           [--trace out.json] [--corrupt-reference] [--calibrate]
//
// A run sets the fixture up several times (set-up time is their median),
// runs a fixed simulated schedule of open-loop arrivals sized so the timed
// phase takes about S seconds of host time, drains it, checks every output the
// workload can check, then runs the load ladder on small fresh fixtures
// and reports the end-to-end metrics. With --trace it instead runs the
// schedule a second time on a fresh fixture with bench-side spans on,
// replays the workload's inputs through single layers, writes the spans as
// Chrome trace-event JSON and reports the per-layer metrics (the untraced
// pass is the base of the tracing overhead). The last stdout line is one
// JSON object; a failed check exits with status 3 and prints no metrics.
#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/alloc_counter.h"
#include "common/logging.h"
#include "fv/node_stats.h"
#include "harness.h"
#include "workloads.h"

namespace fvbench {
namespace {

using farview::kSecond;

/// Warm-up share of the horizon, excluded from every measurement.
constexpr int kWarmupDivisor = 20;
/// The timed phase runs as this many RunUntil slices (spans when traced),
/// each followed by one reference-kernel call.
constexpr int kSlices = 40;
/// Set-up is repeated at least this many times, and until it has taken
/// kMinSetupSeconds in all (full scale), but at most kMaxSetupReps times.
constexpr int kMinSetupReps = 5;
constexpr int kMaxSetupReps = 25;
constexpr double kMinSetupSeconds = 1.0;
/// One request span is kept per this many operations.
constexpr uint64_t kSpanSampleEvery = 64;
/// The load ladder probes one fixed reference schedule, whatever --seed
/// says: its short probes would otherwise move it by a ladder step from
/// seed to seed, and it is a capacity figure of the system, not of one
/// timed schedule.
constexpr uint64_t kLadderSeed = 0;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 0;
  bool smoke = false;
  std::string trace_path;
  bool corrupt_reference = false;
  bool calibrate = false;
};

[[noreturn]] void Usage(const char* msg) {
  std::fprintf(stderr,
               "fvbench: %s\nusage: fvbench --workload W --seed N "
               "[--seconds S] [--scale full|smoke] [--trace out.json] "
               "[--corrupt-reference] [--calibrate]\n",
               msg);
  std::exit(2);
}

Args Parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
      return argv[++i];
    };
    if (flag == "--workload") {
      a.workload = value();
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value().c_str(), nullptr);
      if (!(a.seconds > 0 && a.seconds <= 600)) Usage("bad --seconds");
    } else if (flag == "--scale") {
      const std::string s = value();
      if (s != "full" && s != "smoke") Usage("bad --scale");
      a.smoke = s == "smoke";
    } else if (flag == "--trace") {
      a.trace_path = value();
    } else if (flag == "--corrupt-reference") {
      a.corrupt_reference = true;
    } else if (flag == "--calibrate") {
      a.calibrate = true;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.workload.empty()) Usage("--workload is required");
  if (a.seconds == 0) a.seconds = a.smoke ? 1.0 : 15.0;
  return a;
}

[[noreturn]] void FailCheck(const std::string& workload,
                            const std::string& what) {
  std::fprintf(stderr, "fvbench %s: correctness check failed: %s\n",
               workload.c_str(), what.c_str());
  std::fflush(stdout);
  std::exit(3);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Us(double ps) { return ps / static_cast<double>(farview::kMicrosecond); }

double MeanUs(const LayerSnapshot::Dist& a, const LayerSnapshot::Dist& c) {
  const uint64_t n = c.n - a.n;
  return n ? Us((c.sum - a.sum) / static_cast<double>(n)) : 0;
}

/// Largest per-node p99 of one stage distribution (whole run).
double MaxNodeP99Us(const std::vector<farview::FarviewNode*>& nodes,
                    const farview::sim::SampleStats& (
                        farview::NodeStats::*stage)() const) {
  double p99 = 0;
  for (farview::FarviewNode* n : nodes) {
    p99 = std::max(p99, Us((n->stats().*stage)().Percentile(99)));
  }
  return p99;
}

/// Everything one timed phase leaves behind.
struct RunResult {
  std::unique_ptr<Recorder> rec;
  LayerSnapshot a;  ///< end of warm-up
  LayerSnapshot c;  ///< after the drain
  double host_wall_s = 0;       ///< host seconds of the slices, summed
  double reference_s = 0;       ///< host seconds of the reference kernels
  /// The timed phase at the kernel's frozen speed: the median slice's
  /// time over the kernel call after it, times the slice count. The
  /// median drops slices hit by bursts of outside load.
  double host_norm_s = 0;
  std::vector<double> slice_ratio;  ///< each slice over its kernel call
  uint64_t events = 0;  ///< simulated events in the timed phase
  uint64_t allocs = 0;
  uint64_t alloc_bytes = 0;
  SimTime window = 0;       ///< simulated length of the timed phase
  SimTime observed = 0;     ///< warm-up end to drain end
  uint64_t sched_hits_a = 0;
  uint64_t sched_hits_c = 0;
};

RunResult TimedRun(Workload& wl, const WorkloadSpec& spec, SimTime horizon,
                   Tracer* tracer) {
  farview::sim::Engine& engine = wl.engine();
  const SimTime t0 = engine.Now();
  const SimTime w0 = t0 + horizon / kWarmupDivisor;
  const SimTime w1 = t0 + horizon;
  RunResult r;
  r.window = w1 - w0;
  r.rec = std::make_unique<Recorder>(w0, w1, spec.slo_limit, tracer,
                                     tracer != nullptr);
  wl.Start(t0, horizon, spec.nominal_load, r.rec.get());
  engine.RunUntil(w0);

  const std::vector<farview::FarviewNode*> nodes = wl.nodes();
  r.a = LayerSnapshot::Take(nodes, engine.executed_events());
  r.rec->StartCountingCompletions();
  const farview::RegionScheduler* sched = wl.scheduler();
  if (sched != nullptr) r.sched_hits_a = sched->affinity_hits();
  for (int i = 1; i <= kSlices; ++i) {
    const uint64_t ev0 = engine.executed_events();
    const uint64_t a0 = farview::alloc_counter::allocations();
    const uint64_t b0 = farview::alloc_counter::bytes();
    const uint64_t slice_begin = HostNanos();
    engine.RunUntil(w0 + (w1 - w0) * i / kSlices);
    const uint64_t slice_end = HostNanos();
    r.allocs += farview::alloc_counter::allocations() - a0;
    r.alloc_bytes += farview::alloc_counter::bytes() - b0;
    const double slice = HostSeconds(slice_begin, slice_end);
    const double kernel = ReferenceKernelSeconds();
    r.slice_ratio.push_back(slice / kernel);
    r.host_wall_s += slice;
    r.reference_s += kernel;
    if (tracer != nullptr) {
      tracer->HostSpan("RunUntil", slice_begin, slice_end,
                       "\"slice\":" + std::to_string(i) + ",\"events\":" +
                           std::to_string(engine.executed_events() - ev0));
    }
  }
  r.host_norm_s = Median(r.slice_ratio) * kSlices * kReferenceKernelFrozenS;
  r.events = engine.executed_events() - r.a.events;
  engine.Run();
  r.observed = engine.Now() - w0;
  r.c = LayerSnapshot::Take(nodes, engine.executed_events());
  if (sched != nullptr) r.sched_hits_c = sched->affinity_hits();
  return r;
}

/// Post-drain gate shared by every timed run.
void CheckRun(const std::string& name, Workload& wl, const RunResult& r) {
  if (r.rec->in_flight() != 0) {
    FailCheck(name, std::to_string(r.rec->in_flight()) +
                        " operations never settled");
  }
  if (r.rec->measured_ops() == 0) FailCheck(name, "no measured operation");
  const std::string verdict = wl.Verify();
  if (!verdict.empty()) FailCheck(name, verdict);
}

/// One load-ladder probe: the workload's full schedule at `load` on a
/// short, fresh, small fixture. It meets the limit when no operation
/// fails, every output checks, the measured p99 is within the latency
/// limit, and the backlog left at the horizon is no more than Little's law
/// allows for requests that meet the limit (arrival rate x limit, at least
/// one per connection), i.e. the queue is not growing.
bool LadderProbe(const WorkloadSpec& spec, uint64_t seed, SimTime h,
                 double load) {
  const uint64_t h0 = HostNanos();
  std::unique_ptr<Workload> wl = spec.make(seed, Size::kSmall);
  SetupTimes ignored;
  wl->Setup(&ignored);
  wl->ComputeReferences();
  farview::sim::Engine& engine = wl->engine();
  const SimTime t0 = engine.Now();
  Recorder rec(t0 + h / kWarmupDivisor, t0 + h, spec.slo_limit, nullptr,
               false);
  wl->Start(t0, h, load, &rec);
  engine.RunUntil(t0 + h);
  const uint64_t backlog = rec.in_flight();
  engine.Run();
  const double allowed = std::max<double>(
      wl->connections(),
      static_cast<double>(rec.ops()) / farview::ToSeconds(rec.window_end() -
                                                          rec.window_begin()) *
          farview::ToSeconds(spec.slo_limit));
  Latencies& lat = rec.latencies(OpClass::kMeasured);
  const double p99 = lat.PercentileUs(99);
  const bool ok = rec.ops_failed() == 0 &&
                  static_cast<double>(backlog) <= allowed &&
                  lat.count() > 0 &&
                  p99 <= farview::ToMicros(spec.slo_limit) &&
                  wl->Verify().empty();
  std::printf("load ladder %.4f: p99 %.3f us over %zu samples, backlog %"
              PRIu64 " (allowed %.0f), %" PRIu64 " failed -> %s (%.2f s)\n",
              load, p99, lat.count(), backlog, allowed, rec.ops_failed(),
              ok ? "meets" : "misses", HostSeconds(h0, HostNanos()));
  return ok;
}

/// Highest load (fraction of capacity) that meets the latency limit. The
/// ladder runs in 0.1 steps from 0.5 up to the first miss (at most 1.2),
/// or, when 0.5 misses, down to the first hit (at least 0.1), and then
/// bisects three times between the adjacent hit and miss. Reports 0.05
/// when even 0.1 misses.
double LoadLadder(const WorkloadSpec& spec, uint64_t seed, SimTime h) {
  double hit = 0;
  double miss = 0;
  if (LadderProbe(spec, seed, h, 0.5)) {
    hit = 0.5;
    for (int step = 6; step <= 12 && miss == 0; ++step) {
      (LadderProbe(spec, seed, h, step / 10.0) ? hit : miss) = step / 10.0;
    }
    if (miss == 0) return hit;
  } else {
    miss = 0.5;
    for (int step = 4; step >= 1 && hit == 0; --step) {
      (LadderProbe(spec, seed, h, step / 10.0) ? hit : miss) = step / 10.0;
    }
    if (hit == 0) return 0.05;
  }
  for (int i = 0; i < 3; ++i) {
    const double mid = 0.5 * (hit + miss);
    (LadderProbe(spec, seed, h, mid) ? hit : miss) = mid;
  }
  return hit;
}

void AddEndToEnd(Metrics* m, RunResult& r, double setup_s, double ladder) {
  Recorder& rec = *r.rec;
  const LayerSnapshot& a = r.a;
  const LayerSnapshot& c = r.c;
  const double internal_attempts =
      static_cast<double>((c.rel.retries - a.rel.retries) +
                          (c.rel.failovers - a.rel.failovers));
  Latencies& lat = rec.latencies(OpClass::kMeasured);
  m->Add("setup_s", setup_s, "s");
  m->Add("host_norm_s", r.host_norm_s, "s");
  m->Add("peak_rss_mb", PeakRssMiB(), "MiB");
  m->Add("sim_goodput_gbps",
         static_cast<double>(rec.delivered_bytes()) /
             farview::ToSeconds(r.window) / 1e9,
         "GB/s");
  m->Add("sim_p50_us", lat.PercentileUs(50), "us");
  m->Add("sim_p99_us", lat.PercentileUs(99), "us");
  m->Add("sim_p999_us", lat.PercentileUs(99.9), "us");
  m->Add("attempt_ok_frac",
         static_cast<double>(rec.ok_ops()) /
             (static_cast<double>(rec.attempts()) + internal_attempts),
         "ratio");
  m->Add("slo_met_frac",
         static_cast<double>(rec.measured_met()) /
             static_cast<double>(rec.measured_ops()),
         "ratio");
  m->Add("sim_max_load_at_slo", ladder, "fraction");
}

void AddPerLayer(Metrics* m, Workload& wl, RunResult& r,
                 const ReplayReport& replay, const SetupTimes& setup,
                 double ref_s, double untraced_norm_s) {
  Recorder& rec = *r.rec;
  const LayerSnapshot& a = r.a;
  const LayerSnapshot& c = r.c;
  const std::vector<farview::FarviewNode*> nodes = wl.nodes();
  const double ops = static_cast<double>(std::max<uint64_t>(1, rec.ops()));
  const double events = static_cast<double>(std::max<uint64_t>(1, r.events));
  const double observed_ps = static_cast<double>(r.observed);
  auto delta = [](uint64_t from, uint64_t to) {
    return static_cast<double>(to - from);
  };

  m->Add("sim.events", static_cast<double>(r.events), "count");
  m->Add("sim.events_per_req", static_cast<double>(r.events) / ops, "count");
  m->Add("sim.host_ns_per_event", r.host_wall_s * 1e9 / events, "ns");
  m->Add("sim.latency_samples",
         static_cast<double>(rec.latencies(OpClass::kMeasured).count()),
         "count");
  m->Add("sim_p99_write_us", rec.latencies(OpClass::kWrite).PercentileUs(99),
         "us");

  m->Add("net.ingress_us_mean", MeanUs(a.ingress, c.ingress), "us");
  m->Add("net.egress_us_mean", MeanUs(a.egress, c.egress), "us");
  m->Add("net.egress_us_p99",
         MaxNodeP99Us(nodes, &farview::NodeStats::egress_latency),
         "us");
  m->Add("net.link_util",
         delta(a.link_busy_ps, c.link_busy_ps) / (c.nodes * observed_ps),
         "ratio");
  m->Add("net.packets", delta(a.packets, c.packets), "count");
  m->Add("net.retransmits", delta(a.retransmits, c.retransmits), "count");

  m->Add("mem.bytes_served", delta(a.mem_bytes, c.mem_bytes), "B");
  m->Add("mem.channel_util",
         delta(a.channel_busy_ps, c.channel_busy_ps) /
             (c.channels * observed_ps),
         "ratio");
  m->Add("mem.host_copy_gbps", replay.mem_copy_gbps, "GB/s");

  m->Add("operators.exec_us_mean", MeanUs(a.execute, c.execute), "us");
  m->Add("operators.exec_us_p99",
         MaxNodeP99Us(nodes, &farview::NodeStats::execute_latency),
         "us");
  uint64_t op_in = 0;
  double op_host_ns = 0;
  for (int k = 0; k < kNumOpKinds; ++k) {
    const uint64_t bytes = rec.operator_bytes(static_cast<OpKind>(k));
    op_in += bytes;
    op_host_ns += replay.op_ns_per_byte[static_cast<size_t>(k)] *
                  static_cast<double>(bytes);
  }
  m->Add("operators.reduction",
         op_in ? static_cast<double>(rec.delivered_bytes()) /
                     static_cast<double>(op_in)
               : 0,
         "ratio");
  for (int k = 0; k < kNumOpKinds; ++k) {
    m->Add(std::string("operators.") + OpKindName(static_cast<OpKind>(k)) +
               ".host_ns_per_byte",
           replay.op_ns_per_byte[static_cast<size_t>(k)], "ns/B");
  }
  m->Add("operators.host_share",
         std::min(1.0, op_host_ns / (r.host_wall_s * 1e9)), "ratio");

  m->Add("fv.node.queue_us_mean", MeanUs(a.queue, c.queue), "us");
  m->Add("fv.node.queue_us_p99",
         MaxNodeP99Us(nodes, &farview::NodeStats::queue_wait),
         "us");
  m->Add("fv.node.region_util",
         delta(a.region_busy_ps, c.region_busy_ps) /
             (c.regions * observed_ps),
         "ratio");
  m->Add("fv.node.queue_high_water", static_cast<double>(c.queue_high_water),
         "count");
  m->Add("fv.node.rejected", delta(a.rejected, c.rejected), "count");

  const farview::RegionScheduler* sched = wl.scheduler();
  m->Add("fv.sched.submit_host_ns", rec.sched_submit_ns(), "ns");
  m->Add("fv.sched.shed", delta(a.shed, c.shed), "count");
  m->Add("fv.sched.overflows", delta(a.overflows, c.overflows), "count");
  m->Add("fv.sched.backlog_high_water",
         static_cast<double>(c.backlog_high_water), "count");
  m->Add("fv.sched.reconfigurations",
         sched ? static_cast<double>(sched->reconfigurations()) : 0, "count");
  m->Add("fv.sched.affinity_hits", delta(r.sched_hits_a, r.sched_hits_c),
         "count");

  const uint64_t node_done = c.completed - a.completed;
  const uint64_t bench_done = rec.counted_completions();
  m->Add("fv.route.submit_host_ns", rec.route_submit_ns(), "ns");
  m->Add("fv.route.above_node_us_mean",
         rec.CountedMeanLatencyUs() - MeanUs(a.total, c.total), "us");
  m->Add("fv.route.fanout",
         bench_done ? static_cast<double>(node_done) /
                          static_cast<double>(bench_done)
                    : 0,
         "ratio");
  m->Add("fv.route.attempts_per_req",
         (static_cast<double>(rec.attempts()) +
          delta(a.rel.retries, c.rel.retries) +
          delta(a.rel.failovers, c.rel.failovers)) /
             ops,
         "ratio");
  m->Add("fv.cluster.failovers", delta(a.rel.failovers, c.rel.failovers),
         "count");
  m->Add("fv.cluster.fast_fails", delta(a.rel.fast_fails, c.rel.fast_fails),
         "count");
  m->Add("fv.cluster.retries", delta(a.rel.retries, c.rel.retries), "count");
  m->Add("fv.cluster.timeouts", delta(a.rel.timeouts, c.rel.timeouts),
         "count");
  m->Add("fv.cluster.circuit_opens",
         delta(a.rel.circuit_opens, c.rel.circuit_opens), "count");
  m->Add("fv.cluster.resync_bytes",
         delta(a.rel.resync_bytes, c.rel.resync_bytes), "B");
  m->Add("fv.cluster.resync_ms",
         farview::ToMillis(c.rel.resync_time - a.rel.resync_time), "ms");
  m->Add("fv.shard.gather_bytes", delta(a.gather_bytes, c.gather_bytes), "B");

  m->Add("fv.stats.samples",
         static_cast<double>(c.stats_samples + c.stats_records), "count");
  m->Add("fv.stats.bytes",
         static_cast<double>(c.stats_samples * sizeof(double) +
                             c.stats_records *
                                 sizeof(farview::NodeStats::RequestRecord)),
         "B");

  m->Add("setup.gen_s", setup.gen_s, "s");
  m->Add("setup.upload_s", setup.upload_s, "s");
  m->Add("setup.load_s", setup.load_s, "s");
  m->Add("setup.ref_s", ref_s, "s");

  m->Add("host.allocs_per_event", static_cast<double>(r.allocs) / events,
         "ratio");
  m->Add("host.alloc_bytes_per_req", static_cast<double>(r.alloc_bytes) / ops,
         "B");
  m->Add("host.wall_s", r.host_wall_s, "s");
  m->Add("host.reference_s", r.reference_s, "s");
  m->Add("host.trace_overhead_frac", r.host_norm_s / untraced_norm_s - 1,
         "ratio");
}

/// Re-derives the two frozen calibration values of a workload (README.md
/// "Calibration") and prints them: the measured class's p99 at 5% load on
/// the full fixture (the latency limit is twice it), and the simulated
/// seconds one host second advances at the nominal load.
int Calibrate(const WorkloadSpec& spec, uint64_t seed, double seconds) {
  constexpr double kUnloaded = 0.05;
  std::unique_ptr<Workload> wl = spec.make(seed, Size::kFull);
  SetupTimes ignored;
  wl->Setup(&ignored);
  wl->ComputeReferences();
  farview::sim::Engine& engine = wl->engine();
  const SimTime t0 = engine.Now();
  // Ten ladder probes' worth of the nominal probe's arrivals: enough
  // samples that the p99 sits well inside its confidence band.
  const SimTime h = static_cast<SimTime>(
      10 * static_cast<double>(spec.ladder_horizon) * spec.nominal_load /
      kUnloaded);
  Recorder rec(t0 + h / kWarmupDivisor, t0 + h, spec.slo_limit, nullptr,
               false);
  wl->Start(t0, h, kUnloaded, &rec);
  engine.Run();
  Latencies& lat = rec.latencies(OpClass::kMeasured);
  const double p99 = lat.PercentileUs(99);
  std::printf("%s: unloaded p99 %.3f us over %zu samples -> limit %.0f us\n",
              spec.name.c_str(), p99, lat.count(), 2 * p99);

  wl = spec.make(seed, Size::kFull);
  wl->Setup(&ignored);
  wl->ComputeReferences();
  const SimTime horizon = static_cast<SimTime>(
      seconds * spec.sim_per_host_s * static_cast<double>(kSecond));
  RunResult run = TimedRun(*wl, spec, horizon, nullptr);
  std::printf("%s: %.4f simulated s per host s (frozen %.4f)\n",
              spec.name.c_str(),
              farview::ToSeconds(run.window) / run.host_wall_s,
              spec.sim_per_host_s);
  return 0;
}

/// Node stage means (ingress + queue + execute + egress) against the node
/// total mean, as a relative error; only region verbs visit every stage.
double StageSumError(const RunResult& r) {
  const double parts =
      MeanUs(r.a.ingress, r.c.ingress) + MeanUs(r.a.queue, r.c.queue) +
      MeanUs(r.a.execute, r.c.execute) + MeanUs(r.a.egress, r.c.egress);
  const double total = MeanUs(r.a.total, r.c.total);
  return total > 0 ? std::fabs(parts - total) / total : 0;
}

int Main(int argc, char** argv, uint64_t process_start) {
  const Args args = Parse(argc, argv);
  farview::SetLogLevel(farview::LogLevel::kWarning);
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& s : AllWorkloads()) {
    if (s.name == args.workload) spec = &s;
  }
  if (spec == nullptr) Usage(("unknown workload " + args.workload).c_str());
  if (args.calibrate) return Calibrate(*spec, args.seed, args.seconds);
  const Size size = args.smoke ? Size::kSmall : Size::kFull;
  const SimTime horizon = static_cast<SimTime>(
      args.seconds * kWarmupDivisor / (kWarmupDivisor - 1) *
      spec->sim_per_host_s * static_cast<double>(kSecond));
  const bool traced = !args.trace_path.empty();
  Tracer tracer(traced, process_start, kSpanSampleEvery);

  // Set-up, repeated; the last fixture is the one measured. Tearing the
  // previous fixture down is not part of the next set-up.
  std::vector<double> setup_s, gen_s, upload_s, load_s;
  std::unique_ptr<Workload> wl;
  const double min_setup_total = args.smoke ? 0 : kMinSetupSeconds;
  double setup_total = 0;
  for (int rep = 0; rep < kMaxSetupReps &&
                    (rep < kMinSetupReps || setup_total < min_setup_total);
       ++rep) {
    wl.reset();
    const uint64_t s0 = rep == 0 ? process_start : HostNanos();
    SetupTimes st;
    wl = spec->make(args.seed, size);
    wl->Setup(&st);
    const uint64_t s1 = HostNanos();
    tracer.HostSpan("setup", s0, s1, "\"rep\":" + std::to_string(rep));
    setup_s.push_back(HostSeconds(s0, s1));
    setup_total += setup_s.back();
    gen_s.push_back(st.gen_s);
    upload_s.push_back(st.upload_s);
    load_s.push_back(st.load_s);
  }
  const uint64_t r0 = HostNanos();
  wl->ComputeReferences();
  if (args.corrupt_reference) wl->CorruptReference();
  const double ref_s = HostSeconds(r0, HostNanos());

  // The schedule untraced: the end-to-end numbers, or in a traced run the
  // base its tracing overhead is measured against.
  RunResult run = TimedRun(*wl, *spec, horizon, nullptr);
  CheckRun(spec->name, *wl, run);

  Metrics metrics;
  RunResult traced_run;
  const RunResult* reported = &run;
  if (traced) {
    // Same schedule on a fresh fixture with spans and submit timing on.
    wl.reset();
    SetupTimes ignored;
    wl = spec->make(args.seed, size);
    wl->Setup(&ignored);
    wl->ComputeReferences();
    if (args.corrupt_reference) wl->CorruptReference();
    traced_run = TimedRun(*wl, *spec, horizon, &tracer);
    CheckRun(spec->name, *wl, traced_run);
    ReplayReport replay;
    const uint64_t p0 = HostNanos();
    wl->Replay(&replay);
    tracer.HostSpan("replay", p0, HostNanos(), "");
    SetupTimes setup_median;
    setup_median.gen_s = Median(gen_s);
    setup_median.upload_s = Median(upload_s);
    setup_median.load_s = Median(load_s);
    AddPerLayer(&metrics, *wl, traced_run, replay, setup_median, ref_s,
                run.host_norm_s);
    std::printf("node stage-sum error (traced run): %.3g\n",
                StageSumError(traced_run));
    reported = &traced_run;
  } else {
    wl.reset();
    // Smoke runs probe a quarter of the horizon: a check, not a measurement.
    const double ladder = LoadLadder(
        *spec, kLadderSeed, spec->ladder_horizon / (args.smoke ? 4 : 1));
    AddEndToEnd(&metrics, run, Median(setup_s), ladder);
  }

  const Recorder& rec = *reported->rec;
  std::printf("fvbench %s seed %" PRIu64 ": %" PRIu64
              " operations in the timed window (%zu measured-class "
              "samples), %" PRIu64 " failed\n",
              spec->name.c_str(), args.seed, rec.ops(),
              reported->rec->latencies(OpClass::kMeasured).count(),
              rec.ops_failed());
  if (!rec.first_error().empty()) {
    std::printf("first operation error: %s\n", rec.first_error().c_str());
  }
  std::printf("set-up: median %.4f s of %zu\n", Median(setup_s),
              setup_s.size());
  std::printf("timed phase: %.4f s host (%.4f s at reference speed; "
              "reference kernels %.4f s); slice/kernel ratio of %d "
              "slices [",
              reported->host_wall_s, reported->host_norm_s,
              reported->reference_s, kSlices);
  for (double x : reported->slice_ratio) std::printf(" %.2f", x);
  std::printf(" ]\n");
  metrics.Print(stdout, traced ? "per-layer (traced run)" : "end-to-end");
  if (traced) {
    const farview::Status s = tracer.Write(args.trace_path);
    if (!s.ok()) {
      std::fprintf(stderr, "fvbench: %s\n", s.ToString().c_str());
      return 4;
    }
    std::printf("trace: %zu spans -> %s\n", tracer.spans(),
                args.trace_path.c_str());
  }
  std::printf("{\"workload\": \"%s\", \"seed\": %" PRIu64
              ", \"correct\": true, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": %s}\n",
              spec->name.c_str(), args.seed, rec.ops(), rec.ops_failed(),
              metrics.Json().c_str());
  return 0;
}

}  // namespace
}  // namespace fvbench

int main(int argc, char** argv) {
  const uint64_t process_start = fvbench::HostNanos();
  return fvbench::Main(argc, argv, process_start);
}
