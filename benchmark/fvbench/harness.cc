#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>

#include "common/logging.h"

namespace fvbench {

uint64_t HostNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

namespace {

uint64_t SplitMix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

}  // namespace

uint64_t MixSeed(uint64_t seed, uint64_t stream) {
  return SplitMix(seed * 0x100000001B3ull + SplitMix(stream));
}

uint64_t ContentWord(uint64_t key, uint64_t word) {
  return SplitMix(key ^ (word * 0xD6E8FEB86659FD93ull));
}

void FillContent(uint64_t key, uint64_t offset, uint8_t* out, uint64_t len) {
  FV_CHECK(offset % 8 == 0 && len % 8 == 0);
  const uint64_t first = offset / 8;
  for (uint64_t i = 0; i < len / 8; ++i) {
    const uint64_t w = ContentWord(key, first + i);
    std::memcpy(out + 8 * i, &w, 8);
  }
}

bool MatchesContent(uint64_t key, uint64_t offset, const uint8_t* data,
                    uint64_t len) {
  if (offset % 8 != 0 || len % 8 != 0) return false;
  const uint64_t first = offset / 8;
  for (uint64_t i = 0; i < len / 8; ++i) {
    uint64_t w;
    std::memcpy(&w, data + 8 * i, 8);
    if (w != ContentWord(key, first + i)) return false;
  }
  return true;
}

uint64_t Digest(const uint8_t* data, uint64_t len) {
  uint64_t h = 0xCBF29CE484222325ull ^ len;
  uint64_t i = 0;
  for (; i + 8 <= len; i += 8) {
    uint64_t w;
    std::memcpy(&w, data + i, 8);
    h = (h ^ w) * 0x100000001B3ull;
  }
  for (; i < len; ++i) h = (h ^ data[i]) * 0x100000001B3ull;
  return SplitMix(h);
}

SimTime ExpGap(double u01, double rate_per_s) {
  const double gap_s = -std::log1p(-u01) / rate_per_s;
  return std::max<SimTime>(
      1, static_cast<SimTime>(gap_s * static_cast<double>(farview::kSecond)));
}

uint64_t LogUniform(double u01, uint64_t lo, uint64_t hi, uint64_t align) {
  const double v = static_cast<double>(lo) *
                   std::pow(static_cast<double>(hi) / static_cast<double>(lo),
                            u01);
  const uint64_t n = static_cast<uint64_t>(v) / align * align;
  return std::clamp<uint64_t>(n, lo, hi);
}

double LogUniformMean(uint64_t lo, uint64_t hi) {
  return static_cast<double>(hi - lo) /
         std::log(static_cast<double>(hi) / static_cast<double>(lo));
}

double Latencies::PercentileUs(double p) {
  if (v_.empty()) return 0;
  if (!sorted_) {
    std::sort(v_.begin(), v_.end());
    sorted_ = true;
  }
  // Nearest rank: the smallest sample with at least p% of samples <= it.
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v_.size()));
  const size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return farview::ToMicros(v_[std::min(idx, v_.size() - 1)]);
}

const char* OpKindName(OpKind k) {
  switch (k) {
    case OpKind::kSelect:
      return "select";
    case OpKind::kDistinct:
      return "distinct";
    case OpKind::kGroupBy:
      return "groupby";
    case OpKind::kRegex:
      return "regex";
    case OpKind::kDecrypt:
      return "decrypt";
    case OpKind::kJoin:
      return "join";
  }
  return "none";
}

// --- Tracer ---------------------------------------------------------------

namespace {

/// Spans beyond this many are dropped (about 30 MiB of JSON at most).
constexpr size_t kMaxSpans = 200000;

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

Tracer::Tracer(bool enabled, uint64_t host_origin_ns, uint64_t sample_every)
    : enabled_(enabled),
      host_origin_ns_(host_origin_ns),
      sample_every_(std::max<uint64_t>(1, sample_every)) {}

void Tracer::Push(Event e) {
  if (events_.size() < kMaxSpans) events_.push_back(std::move(e));
}

void Tracer::SimSpan(const char* name, int tid, SimTime start, SimTime dur,
                     const std::string& args) {
  if (!enabled_) return;
  Push(Event{name, 1, tid, farview::ToMicros(start), farview::ToMicros(dur),
             args});
}

void Tracer::HostSpan(const char* name, uint64_t begin_ns, uint64_t end_ns,
                      const std::string& args) {
  if (!enabled_) return;
  Push(Event{name, 2, 0,
             static_cast<double>(begin_ns - host_origin_ns_) * 1e-3,
             static_cast<double>(end_ns - begin_ns) * 1e-3, args});
}

farview::Status Tracer::Write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return farview::Status::Unavailable("cannot open " + path);
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  out << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":"
         "{\"name\":\"simulated time\"}},\n";
  out << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,\"args\":"
         "{\"name\":\"host time\"}}";
  char buf[128];
  for (const Event& e : events_) {
    std::snprintf(buf, sizeof(buf), "\"pid\":%d,\"tid\":%d,\"ts\":%.4f,"
                  "\"dur\":%.4f", e.pid, e.tid, e.ts_us, e.dur_us);
    out << ",\n{\"name\":\"" << JsonEscape(e.name) << "\",\"ph\":\"X\","
        << buf << ",\"args\":{" << e.args << "}}";
  }
  out << "\n]}\n";
  out.close();
  if (!out) return farview::Status::Unavailable("write failed: " + path);
  return farview::Status::OK();
}

// --- Recorder -------------------------------------------------------------

Recorder::Recorder(SimTime window_begin, SimTime window_end,
                   SimTime slo_limit, Tracer* tracer, bool time_submits)
    : window_begin_(window_begin),
      window_end_(window_end),
      slo_limit_(slo_limit),
      tracer_(tracer),
      time_submits_(time_submits) {}

Recorder::Op Recorder::Begin(OpClass cls, SimTime due) {
  Op op;
  op.cls = cls;
  op.due = due;
  op.seq = next_seq_++;
  ++in_flight_;
  if (InWindow(due)) {
    ++ops_;
    ++attempts_;
    if (cls == OpClass::kMeasured) ++measured_ops_;
  }
  return op;
}

void Recorder::Retry(const Op& op) {
  if (!InWindow(op.due)) return;
  ++attempts_;
}

void Recorder::Complete(const Op& op, SimTime done_at, uint64_t bytes) {
  FV_CHECK(in_flight_ > 0);
  --in_flight_;
  const SimTime latency = done_at - op.due;
  if (tracer_ != nullptr && tracer_->Sampled(op.seq)) {
    static const char* kNames[] = {"measured", "write", "background"};
    uint64_t submit_ns = 0;
    auto it = sampled_submit_ns_.find(op.seq);
    if (it != sampled_submit_ns_.end()) {
      submit_ns = it->second;
      sampled_submit_ns_.erase(it);
    }
    tracer_->SimSpan(kNames[static_cast<size_t>(op.cls)],
                     static_cast<int>(op.cls), op.due, latency,
                     "\"bytes\":" + std::to_string(bytes) +
                         ",\"submit_host_ns\":" + std::to_string(submit_ns));
  }
  if (counting_) {
    ++counted_;
    counted_latency_ += latency;
  }
  if (!InWindow(op.due)) return;
  ++ok_ops_;
  delivered_bytes_ += op.cls == OpClass::kWrite ? 0 : bytes;
  latencies_[static_cast<size_t>(op.cls)].Add(latency);
  if (op.cls == OpClass::kMeasured && latency <= slo_limit_) ++measured_met_;
}

void Recorder::Fail(const Op& op, const farview::Status& s) {
  FV_CHECK(in_flight_ > 0);
  --in_flight_;
  sampled_submit_ns_.erase(op.seq);
  if (first_error_.empty()) first_error_ = s.ToString();
  if (!InWindow(op.due)) return;
  ++ops_failed_;
}

void Recorder::OperatorBytes(const Op& op, OpKind kind, uint64_t bytes) {
  if (InWindow(op.due)) {
    operator_bytes_[static_cast<size_t>(kind)] += bytes;
  }
}

// --- LayerSnapshot --------------------------------------------------------

namespace {

LayerSnapshot::Dist DistOf(const farview::sim::SampleStats& s) {
  LayerSnapshot::Dist d;
  d.n = s.count();
  d.sum = s.Mean() * static_cast<double>(s.count());
  return d;
}

void AddDist(LayerSnapshot::Dist* into, const LayerSnapshot::Dist& d) {
  into->n += d.n;
  into->sum += d.sum;
}

}  // namespace

LayerSnapshot LayerSnapshot::Take(
    const std::vector<farview::FarviewNode*>& nodes, uint64_t events) {
  LayerSnapshot s;
  s.events = events;
  for (farview::FarviewNode* node : nodes) {
    const farview::NodeStats& st = node->stats();
    ++s.nodes;
    AddDist(&s.ingress, DistOf(st.ingress_latency()));
    AddDist(&s.queue, DistOf(st.queue_wait()));
    AddDist(&s.execute, DistOf(st.execute_latency()));
    AddDist(&s.egress, DistOf(st.egress_latency()));
    AddDist(&s.total, DistOf(st.total_latency()));
    s.completed += st.completed_count();
    s.rejected += st.rejected_count();
    for (int r = 0; r < node->num_regions(); ++r) {
      s.region_busy_ps += static_cast<uint64_t>(st.region_busy_time(r));
    }
    s.regions += node->num_regions();
    s.link_busy_ps += static_cast<uint64_t>(node->network().link().busy_time());
    s.packets += node->network().total_packets();
    s.retransmits += node->network().fault_counters().retransmits;
    farview::MemoryController& mc = node->memory_controller();
    s.mem_bytes += mc.total_bytes_served();
    for (int c = 0; c < mc.num_channels(); ++c) {
      s.channel_busy_ps += static_cast<uint64_t>(mc.channel(c).busy_time());
    }
    s.channels += mc.num_channels();
    const farview::NodeStats::ReliabilityStats& r = st.reliability();
    s.rel.failovers += r.failovers;
    s.rel.fast_fails += r.fast_fails;
    s.rel.retries += r.retries;
    s.rel.timeouts += r.timeouts;
    s.rel.circuit_opens += r.circuit_opens;
    s.rel.resync_bytes += r.resync_bytes;
    s.rel.resync_time += r.resync_time;
    s.gather_bytes += st.sharding().gather_bytes;
    const farview::NodeStats::AdmissionStats& a = st.admission();
    s.shed += a.shed_bucket_latency + a.shed_bucket_batch +
              a.shed_overload_latency + a.shed_overload_batch;
    s.overflows += a.scheduler_overflows;
    s.backlog_high_water =
        std::max(s.backlog_high_water, a.tenant_backlog_high_water);
    for (const auto& [qp, q] : st.per_qp()) {
      s.queue_high_water = std::max(s.queue_high_water, q.queue_high_water);
    }
    s.stats_samples += st.ingress_latency().count() +
                       st.queue_wait().count() +
                       st.execute_latency().count() +
                       st.egress_latency().count() +
                       st.total_latency().count();
    s.stats_records += st.completed_count();
  }
  return s;
}

// --- Metrics --------------------------------------------------------------

void Metrics::Add(const std::string& name, double value,
                  const std::string& unit) {
  FV_CHECK(std::isfinite(value)) << "metric " << name << " is not finite";
  metrics_.push_back(Metric{name, value, unit});
}

std::string Metrics::Json() const {
  std::string out = "{";
  char buf[64];
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    std::snprintf(buf, sizeof(buf), "%.17g", m.value);
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  return out + "}";
}

void Metrics::Print(FILE* out, const char* title) const {
  std::fprintf(out, "%s\n", title);
  for (const Metric& m : metrics_) {
    std::fprintf(out, "  %-34s %16.6g %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
}

double ReferenceKernelSeconds() {
  constexpr size_t kWords = 4u << 20;  // 32 MiB of 8-byte words
  constexpr size_t kCopy = 2u << 20;
  static std::vector<uint64_t> table(kWords, 1);
  static std::vector<uint8_t> src(kCopy, 7);
  static std::vector<uint8_t> dst(kCopy);
  const uint64_t t0 = HostNanos();
  uint64_t h = 1;
  for (int round = 0; round < 2; ++round) {
    for (size_t i = 0; i < (1u << 16); ++i) {
      h = h * 6364136223846793005ull + table[(h >> 20) & (kWords - 1)];
      table[(h >> 11) & (kWords - 1)] = h;
    }
    std::memcpy(dst.data(), src.data(), kCopy);
    h += Digest(dst.data(), kCopy);
    for (uint64_t j = 0; j < 100000; ++j) h += ContentWord(h, j) & 7;
  }
  // Keeps the result observable so no part of the loop can be dropped.
  static volatile uint64_t sink = 0;
  sink = sink + h;
  return HostSeconds(t0, HostNanos());
}

double PeakRssMiB() {
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace fvbench
