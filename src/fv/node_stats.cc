#include "fv/node_stats.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

namespace farview {

namespace {

/// One "p50 p90 p99 max" row of the stage-latency table, in microseconds.
void AppendStageRow(std::ostringstream& out, const char* label,
                    const sim::SampleStats& s) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "    %-16s %10.3f %10.3f %10.3f %10.3f\n", label,
                ToMicros(static_cast<SimTime>(s.Percentile(50))),
                ToMicros(static_cast<SimTime>(s.Percentile(90))),
                ToMicros(static_cast<SimTime>(s.Percentile(99))),
                ToMicros(static_cast<SimTime>(s.Max())));
  out << buf;
}

/// One zero-gated report section: "  <label>: name=value ..." over the
/// rows of `table`, omitted while they are all zero so runs that never
/// touch the section keep their reports byte-identical. A histogram prints
/// its buckets comma-separated.
template <class S, class Table>
void AppendCounterSection(std::ostringstream& out, const char* label,
                          const S& s, const Table& table) {
  if (!AnyCounterNonZero(s, table)) return;
  out << "  " << label << ':';
  ForEachCounter(table, [&out, &s](const auto& row) {
    out << ' ' << row.name << '=';
    const char* sep = "";
    for (const auto w : CounterWords(s.*row.member)) {
      out << sep << w;
      sep = ",";
    }
  });
  out << '\n';
}

}  // namespace

void NodeStats::RecordCompletion(const RequestContext& ctx) {
  RequestRecord rec;
  rec.request_id = ctx.request_id;
  rec.qp_id = ctx.qp_id;
  rec.client_id = ctx.client_id;
  rec.verb = ctx.verb;
  rec.submitted = ctx.submitted;
  rec.ingress_done = ctx.ingress_done;
  rec.region_start = ctx.region_start;
  rec.first_memory_beat = ctx.first_memory_beat;
  rec.operator_done = ctx.operator_done;
  rec.egress_finished = ctx.egress_finished;
  rec.delivered = ctx.delivered;
  rec.bytes_on_wire = ctx.bytes_on_wire;
  rec.packets = ctx.packets;
  rec.rows = ctx.rows;
  completed_.push_back(rec);

  if (rec.ingress_done > 0) {
    ingress_.Add(static_cast<double>(rec.ingress_done - rec.submitted));
  }
  if (rec.region_start > 0) {
    queue_wait_.Add(static_cast<double>(rec.region_start - rec.ingress_done));
  }
  if (rec.operator_done > 0 && rec.region_start > 0) {
    execute_.Add(static_cast<double>(rec.operator_done - rec.region_start));
  }
  if (rec.delivered > 0 && rec.operator_done > 0) {
    egress_.Add(static_cast<double>(rec.delivered - rec.operator_done));
  }
  if (rec.delivered > 0) {
    total_.Add(static_cast<double>(rec.delivered - rec.submitted));
  }

  QpStats& qp = per_qp_[rec.qp_id];
  ++qp.completed;
  qp.bytes_delivered += rec.bytes_on_wire;
  if (qp.completed == 1 || rec.submitted < qp.first_submitted) {
    qp.first_submitted = rec.submitted;
  }
  qp.last_delivered = std::max(qp.last_delivered, rec.delivered);
}

uint64_t NodeStats::failed_count() const {
  uint64_t n = 0;
  for (const auto& [qp_id, qp] : per_qp_) n += qp.failed;
  return n;
}

uint64_t NodeStats::rejected_count() const {
  uint64_t n = 0;
  for (const auto& [qp_id, qp] : per_qp_) n += qp.rejected;
  return n;
}

void NodeStats::RecordFailure(int qp_id) { ++per_qp_[qp_id].failed; }

void NodeStats::RecordRejection(int qp_id) { ++per_qp_[qp_id].rejected; }

void NodeStats::RecordQueueDepth(int qp_id, size_t outstanding) {
  QpStats& qp = per_qp_[qp_id];
  qp.queue_high_water = std::max(qp.queue_high_water, outstanding);
}

void NodeStats::RecordAdmitted(SloClass slo) {
  if (slo == SloClass::kBatch) {
    ++admission_.admitted_batch;
  } else {
    ++admission_.admitted_latency;
  }
}

void NodeStats::RecordShed(SloClass slo, bool overload, SimTime retry_after) {
  if (overload) {
    if (slo == SloClass::kBatch) {
      ++admission_.shed_overload_batch;
    } else {
      ++admission_.shed_overload_latency;
    }
  } else {
    if (slo == SloClass::kBatch) {
      ++admission_.shed_bucket_batch;
    } else {
      ++admission_.shed_bucket_latency;
    }
  }
  // log2 bucket of the hint in whole microseconds; <1 µs shares bucket 0.
  int bucket = 0;
  for (SimTime us = retry_after / kMicrosecond; us > 1 &&
       bucket + 1 < AdmissionStats::kShedDelayBuckets;
       us /= 2) {
    ++bucket;
  }
  ++admission_.shed_delay_hist[bucket];
}

void NodeStats::RecordTenantBacklog(size_t backlog) {
  admission_.tenant_backlog_high_water =
      std::max(admission_.tenant_backlog_high_water, backlog);
}

void NodeStats::RecordRegionBusy(int region_id, SimTime busy) {
  region_busy_[region_id] += busy;
}

SimTime NodeStats::region_busy_time(int region_id) const {
  auto it = region_busy_.find(region_id);
  return it == region_busy_.end() ? 0 : it->second;
}

std::string NodeStats::FormatReport(SimTime now,
                                    double link_utilization) const {
  std::ostringstream out;
  out << "NodeStats: " << completed_.size() << " completed, "
      << failed_count() << " failed, " << rejected_count() << " rejected\n";
  out << "  stage latency [us]        p50        p90        p99        max\n";
  AppendStageRow(out, "ingress", ingress_);
  AppendStageRow(out, "queue wait", queue_wait_);
  AppendStageRow(out, "execute", execute_);
  AppendStageRow(out, "egress+deliver", egress_);
  AppendStageRow(out, "total", total_);
  for (const auto& [qp_id, qp] : per_qp_) {
    char buf[192];
    const SimTime span = qp.last_delivered - qp.first_submitted;
    const double gbps =
        span > 0 ? AchievedGBps(qp.bytes_delivered, span) : 0.0;
    std::snprintf(buf, sizeof(buf),
                  "  qp %-4d %6llu reqs  %10llu B moved  %6.2f GB/s  "
                  "queue high-water %zu\n",
                  qp_id, static_cast<unsigned long long>(qp.completed),
                  static_cast<unsigned long long>(qp.bytes_delivered), gbps,
                  qp.queue_high_water);
    out << buf;
  }
  for (const auto& [region_id, busy] : region_busy_) {
    char buf[96];
    const double pct =
        now > 0 ? 100.0 * static_cast<double>(busy) / static_cast<double>(now)
                : 0.0;
    std::snprintf(buf, sizeof(buf), "  region %d: %5.1f%% busy\n", region_id,
                  pct);
    out << buf;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "  link utilization: %5.1f%%\n",
                100.0 * link_utilization);
  out << buf;
  AppendCounterSection(out, "reliability", reliability_,
                       ReliabilityStats::kFaultCounters);
  AppendCounterSection(out, "replication", reliability_,
                       ReliabilityStats::kClusterCounters);
  AppendCounterSection(out, "sharding", sharding_, ShardingStats::kCounters);
  AppendCounterSection(out, "admission", admission_,
                       AdmissionStats::kCounters);
  return out.str();
}

}  // namespace farview
