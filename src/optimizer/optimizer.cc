#include "optimizer/optimizer.h"

#include <algorithm>
#include <cstdio>

#include "common/bytes.h"

namespace farview {

void PhysicalPlan::ApplyTo(FvRequest* request) const {
  request->vectorized = vectorized;
  request->smart_addressing = smart_addressing;
  request->sa_offset = sa_offset;
  request->sa_access_bytes = sa_access_bytes;
}

std::string PhysicalPlan::Explain() const {
  const bool offload = placement == Placement::kFarview;
  char buf[160];
  std::snprintf(
      buf, sizeof(buf), "%s%s%s (est. offload %.1f us, local %.1f us)",
      offload ? "offload" : "local-cpu",
      offload && vectorized ? " +vectorized" : "",
      offload && smart_addressing ? " +smart-addressing" : "",
      ToMicros(estimated_farview), ToMicros(estimated_local));
  return buf;
}

bool Optimizer::SmartAddressingWindow(const QuerySpec& spec,
                                      const Schema& schema, uint32_t* offset,
                                      uint32_t* bytes) {
  if (spec.projection.empty() || !spec.predicates.empty() ||
      spec.regex_column.has_value() || spec.decrypt ||
      spec.join_build != nullptr || !spec.distinct_keys.empty() ||
      !spec.group_keys.empty() || !spec.aggregates.empty()) {
    return false;
  }
  // The projected columns must form one contiguous ascending window.
  uint32_t start = schema.offset(spec.projection.front());
  uint32_t end = start;
  for (size_t i = 0; i < spec.projection.size(); ++i) {
    const int col = spec.projection[i];
    if (schema.offset(col) != end) return false;  // gap or reorder
    end += schema.width(col);
  }
  if (offset) *offset = start;
  if (bytes) *bytes = end - start;
  return true;
}

uint64_t Optimizer::EstimateOutputBytes(const QuerySpec& spec,
                                        const Schema& schema,
                                        const TableStats& stats) const {
  // Output tuple width after projection (or the full tuple).
  uint32_t out_width = stats.tuple_bytes;
  if (!spec.projection.empty()) {
    out_width = 0;
    for (int c : spec.projection) out_width += schema.width(c);
  }
  if (!spec.distinct_keys.empty()) {
    uint32_t key_width = 0;
    for (int c : spec.distinct_keys) key_width += schema.width(c);
    const uint64_t keys =
        stats.distinct_keys > 0 ? stats.distinct_keys : stats.num_rows;
    return keys * key_width;
  }
  if (!spec.group_keys.empty()) {
    uint32_t width = 0;
    for (int c : spec.group_keys) width += schema.width(c);
    width += static_cast<uint32_t>(spec.aggregates.size()) * 8;
    const uint64_t groups =
        stats.distinct_keys > 0 ? stats.distinct_keys : stats.num_rows;
    return groups * width;
  }
  if (!spec.aggregates.empty()) {
    return spec.aggregates.size() * 8;  // one row
  }
  const double rows =
      static_cast<double>(stats.num_rows) * stats.selectivity;
  return static_cast<uint64_t>(rows) * out_width;
}

SimTime Optimizer::EstimateFarview(const QuerySpec& spec,
                                   const Schema& schema,
                                   const TableStats& stats, bool vectorized,
                                   bool smart_addressing,
                                   uint32_t sa_access_bytes) const {
  const uint64_t out_bytes = EstimateOutputBytes(spec, schema, stats);

  // Stage rates: memory read, region datapath, network egress. The
  // response time of a pipelined stream is base latency + the slowest
  // stage (the same flow model the simulator implements with events).
  SimTime read_time;
  uint64_t stream_bytes;
  if (smart_addressing) {
    const uint64_t beats = CeilDiv(sa_access_bytes, fv_.dram.beat_bytes) *
                           fv_.dram.beat_bytes;
    const SimTime per_access =
        fv_.dram.random_access_overhead +
        TransferTime(beats, fv_.dram.EffectiveChannelRate());
    read_time = static_cast<SimTime>(stats.num_rows) * per_access /
                fv_.dram.num_channels;
    stream_bytes = stats.num_rows * sa_access_bytes;
  } else {
    read_time = TransferTime(stats.TableBytes(), fv_.dram.AggregateRate());
    stream_bytes = stats.TableBytes();
  }
  const SimTime pipe_time =
      TransferTime(stream_bytes, fv_.PipeRate(vectorized));
  // Effective egress rate: raw link derated by the per-packet overhead.
  const double packet_time =
      static_cast<double>(fv_.net.PacketSerializationTime() +
                          fv_.net.fv_per_packet_overhead);
  const double egress_rate = static_cast<double>(fv_.net.packet_bytes) /
                             (packet_time / static_cast<double>(kSecond));
  const SimTime net_time = TransferTime(out_bytes, egress_rate);

  const SimTime base = fv_.net.fv_request_latency +
                       fv_.dram.translation_latency +
                       fv_.pipeline_fill_latency +
                       fv_.net.fv_delivery_latency;
  SimTime flush = 0;
  if (!spec.group_keys.empty() || !spec.aggregates.empty()) {
    const uint64_t groups =
        stats.distinct_keys > 0 ? stats.distinct_keys : stats.num_rows;
    flush = static_cast<SimTime>(groups) * fv_.flush_per_group;
  }
  return base + std::max({read_time, pipe_time, net_time}) + flush;
}

SimTime Optimizer::EstimateLocal(const QuerySpec& spec, const Schema& schema,
                                 const TableStats& stats) const {
  CpuCostModel model(cpu_);
  const uint64_t out_bytes = EstimateOutputBytes(spec, schema, stats);
  SimTime total =
      model.StreamPhase(stats.TableBytes(), stats.num_rows, out_bytes);
  if (spec.decrypt) total += model.CryptoPhase(stats.TableBytes());
  if (spec.regex_column.has_value()) {
    total += model.RegexPhase(stats.num_rows *
                              schema.width(*spec.regex_column));
  }
  if (!spec.distinct_keys.empty() || !spec.group_keys.empty()) {
    const uint64_t keys =
        stats.distinct_keys > 0 ? stats.distinct_keys : stats.num_rows;
    total += model.HashPhase(stats.num_rows, keys, 16);
  }
  if (spec.join_build != nullptr) {
    total += model.HashPhase(stats.num_rows + spec.join_build->num_rows(),
                             spec.join_build->num_rows(),
                             spec.join_build->schema().tuple_width());
  }
  return total;
}

PhysicalPlan Optimizer::Plan(const QuerySpec& spec, const Schema& schema,
                             const TableStats& stats) const {
  PhysicalPlan plan;

  // Knob 3: smart addressing for narrow contiguous projections.
  uint32_t sa_offset = 0;
  uint32_t sa_bytes = 0;
  const bool sa_eligible =
      SmartAddressingWindow(spec, schema, &sa_offset, &sa_bytes);

  // Evaluate the offload variants and keep the cheapest.
  const SimTime plain =
      EstimateFarview(spec, schema, stats, false, false, 0);
  SimTime best = plain;
  // Knob 2: vectorization. The paper's vectorized model replicates
  // *selection* operators across parallel pipes (Section 5.3: tuples are
  // "emitted to a set of selection operators executing in parallel"), so
  // the knob only applies to predicate-filtering queries; it is never
  // combined with smart addressing.
  if (fv_.dram.num_channels > 1 && !spec.predicates.empty()) {
    const SimTime vec = EstimateFarview(spec, schema, stats, true, false, 0);
    if (vec < best) {
      best = vec;
      plan.vectorized = true;
    }
  }
  if (sa_eligible) {
    const SimTime sa =
        EstimateFarview(spec, schema, stats, false, true, sa_bytes);
    if (sa < best) {
      best = sa;
      plan.vectorized = false;
      plan.smart_addressing = true;
      plan.sa_offset = sa_offset;
      plan.sa_access_bytes = sa_bytes;
    }
  }
  plan.estimated_farview = best;
  plan.estimated_local = EstimateLocal(spec, schema, stats);

  // Knob 1: placement.
  plan.placement = plan.estimated_farview <= plan.estimated_local
                       ? PhysicalPlan::Placement::kFarview
                       : PhysicalPlan::Placement::kLocalCpu;
  return plan;
}

}  // namespace farview
