#include "profiling/tracer.h"

#include <algorithm>
#include <utility>

#include "profiling/aggregate.h"
#include "profiling/continuous.h"

namespace hyperprof::profiling {

namespace {

// Seed for the retention reservoir. Deliberately a fixed constant rather
// than a fork of the sampling rng: retention must be reproducible and must
// not perturb the sampling stream.
constexpr uint64_t kReservoirSeed = 0x9e3779b97f4a7c15ull;

// Handle layout: low 32 bits = slot index, high 32 bits = generation.
// Generations start at 1, so a valid handle is always nonzero and can
// never collide with kNotSampled.
uint64_t MakeHandle(uint32_t slot, uint32_t gen) {
  return (static_cast<uint64_t>(gen) << 32) | slot;
}
uint32_t HandleSlot(uint64_t handle) {
  return static_cast<uint32_t>(handle & 0xffffffffull);
}
uint32_t HandleGen(uint64_t handle) {
  return static_cast<uint32_t>(handle >> 32);
}

}  // namespace

const char* SpanKindName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kCpu: return "CPU";
    case SpanKind::kIo: return "IO";
    case SpanKind::kRemoteWork: return "RemoteWork";
  }
  return "unknown";
}

AttributedTime AttributeTrace(const QueryTrace& trace,
                              const AttributionPolicy& policy,
                              AttributionScratch& scratch) {
  AttributedTime out;
  if (trace.spans.empty()) return out;

  auto& boundaries = scratch.boundaries;
  boundaries.clear();
  if (boundaries.capacity() < trace.spans.size() * 2) {
    boundaries.reserve(trace.spans.size() * 2);
  }
  for (const Span& span : trace.spans) {
    if (span.end <= span.start) continue;
    boundaries.push_back({span.start, static_cast<int>(span.kind), +1});
    boundaries.push_back({span.end, static_cast<int>(span.kind), -1});
  }
  // Spans are recorded at completion time, so boundaries usually arrive
  // nearly sorted; skip the sort when they already are. Ties in `at` are
  // order-insensitive: all boundaries at an instant are applied before the
  // next elementary interval is attributed.
  auto by_at = [](const AttributionScratch::Boundary& a,
                  const AttributionScratch::Boundary& b) {
    return a.at < b.at;
  };
  if (!std::is_sorted(boundaries.begin(), boundaries.end(), by_at)) {
    std::sort(boundaries.begin(), boundaries.end(), by_at);
  }

  int rank_of_kind[3] = {policy.cpu_rank, policy.io_rank, policy.remote_rank};
  int active[3] = {0, 0, 0};
  double* bucket_of_kind[3] = {&out.cpu, &out.io, &out.remote};

  size_t i = 0;
  SimTime cursor;
  bool have_cursor = false;
  while (i < boundaries.size()) {
    SimTime at = boundaries[i].at;
    if (have_cursor && at > cursor) {
      // Attribute [cursor, at) to the best-ranked active kind.
      int best = -1;
      for (int k = 0; k < 3; ++k) {
        if (active[k] > 0 && (best < 0 ||
                              rank_of_kind[k] < rank_of_kind[best])) {
          best = k;
        }
      }
      if (best >= 0) {
        *bucket_of_kind[best] += (at - cursor).ToSeconds();
      }
    }
    while (i < boundaries.size() && boundaries[i].at == at) {
      active[boundaries[i].kind] += boundaries[i].delta;
      ++i;
    }
    cursor = at;
    have_cursor = true;
  }
  return out;
}

AttributedTime AttributeTrace(const QueryTrace& trace,
                              const AttributionPolicy& policy) {
  AttributionScratch scratch;
  return AttributeTrace(trace, policy, scratch);
}

Tracer::Tracer(uint32_t sample_one_in, Rng rng, TracerOptions options)
    : sample_one_in_(sample_one_in == 0 ? 1 : sample_one_in),
      rng_(std::move(rng)),
      options_(options),
      reservoir_rng_(kReservoirSeed),
      breakdown_(std::make_unique<BreakdownAccumulator>()) {}

Tracer::~Tracer() = default;

uint64_t Tracer::StartQuery(NameId platform, NameId query_type, SimTime now) {
  ++queries_seen_;
  if (sample_one_in_ > 1 && rng_.NextBounded(sample_one_in_) != 0) {
    return kNotSampled;
  }
  return OpenTrace(platform, query_type, now, next_trace_id_++);
}

uint64_t Tracer::StartQueryForced(NameId platform, NameId query_type,
                                  SimTime now, bool sampled,
                                  uint64_t forced_trace_id) {
  ++queries_seen_;
  if (!sampled) return kNotSampled;
  return OpenTrace(platform, query_type, now, forced_trace_id);
}

uint64_t Tracer::OpenTrace(NameId platform, NameId query_type, SimTime now,
                           uint64_t trace_id) {
  ++queries_sampled_;

  uint32_t slot_index;
  if (!free_slots_.empty()) {
    slot_index = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot_index = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& slot = slots_[slot_index];
  slot.gen++;
  slot.open = true;
  slot.trace.trace_id = trace_id;
  slot.trace.platform = platform;
  slot.trace.query_type = query_type;
  slot.trace.start = now;
  slot.trace.end = now;
  slot.trace.spans.clear();  // keeps recycled capacity
  // Slots recycle LIFO, so a rarely reached deep slot can meet a longer
  // trace than it held before. Under the reservoir the slots keep their
  // storage, so sizing each to the longest trace yet finished lets a
  // warmed tracer stop growing. kRetainAll hands every slot's storage to
  // its retained trace and keeps its memory as it was.
  if (options_.retention == TraceRetention::kSampleReservoir) {
    slot.trace.spans.reserve(span_high_water_);
  }
  ++open_count_;
  return MakeHandle(slot_index, slot.gen);
}

uint64_t Tracer::StartQuery(std::string_view platform,
                            std::string_view query_type, SimTime now) {
  // Intern before the sampling decision so name ids are stable regardless
  // of which particular queries get sampled.
  NameId platform_id = names_.Intern(platform);
  NameId type_id = names_.Intern(query_type);
  return StartQuery(platform_id, type_id, now);
}

Tracer::Slot* Tracer::ResolveOpen(uint64_t trace_id) {
  uint32_t index = HandleSlot(trace_id);
  if (index >= slots_.size()) return nullptr;
  Slot& slot = slots_[index];
  if (!slot.open || slot.gen != HandleGen(trace_id)) return nullptr;
  return &slot;
}

void Tracer::AddSpan(uint64_t trace_id, SpanKind kind, NameId name,
                     SimTime start, SimTime end, uint64_t parent_id) {
  if (trace_id == kNotSampled) return;
  Slot* slot = ResolveOpen(trace_id);
  if (slot == nullptr) {
    ++dropped_spans_;
    return;
  }
  Span span;
  span.span_id = next_span_id_++;
  span.parent_id = parent_id;
  span.kind = kind;
  span.name = name;
  span.start = start;
  span.end = end;
  slot->trace.spans.push_back(span);
}

void Tracer::AddSpan(uint64_t trace_id, SpanKind kind, std::string_view name,
                     SimTime start, SimTime end, uint64_t parent_id) {
  AddSpan(trace_id, kind, names_.Intern(name), start, end, parent_id);
}

void Tracer::FinishQuery(uint64_t trace_id, SimTime end) {
  if (trace_id == kNotSampled) return;
  Slot* slot = ResolveOpen(trace_id);
  if (slot == nullptr) {
    // Unknown or stale handle: count it instead of asserting — a fleet
    // run should survive a platform double-finishing a query.
    ++dropped_finishes_;
    return;
  }
  slot->trace.end = end;
  ++queries_finished_;
  span_high_water_ = std::max(span_high_water_, slot->trace.spans.size());
  AttributedTime attributed = breakdown_->Fold(slot->trace);
  if (continuous_ != nullptr) {
    continuous_->Observe(end, end - slot->trace.start, attributed);
  }

  if (options_.retention == TraceRetention::kRetainAll) {
    traces_.push_back(std::move(slot->trace));
    slot->trace.spans = std::vector<Span>();  // moved-from; reset to valid
  } else if (options_.reservoir_capacity > 0) {
    // Reservoir sampling (algorithm R) over completed traces. The slot's
    // span vector is swapped rather than copied, so displaced storage is
    // recycled for the next query on this slot.
    if (traces_.size() < options_.reservoir_capacity) {
      traces_.push_back(std::move(slot->trace));
      slot->trace.spans = std::vector<Span>();
    } else {
      uint64_t pick = reservoir_rng_.NextBounded(queries_finished_);
      if (pick < options_.reservoir_capacity) {
        std::swap(traces_[static_cast<size_t>(pick)], slot->trace);
      }
    }
  }

  slot->open = false;
  --open_count_;
  free_slots_.push_back(HandleSlot(trace_id));
}

size_t Tracer::memory_bytes() const {
  size_t bytes = slots_.capacity() * sizeof(Slot) +
                 free_slots_.capacity() * sizeof(uint32_t) +
                 traces_.capacity() * sizeof(QueryTrace);
  for (const Slot& slot : slots_) {
    bytes += slot.trace.spans.capacity() * sizeof(Span);
  }
  for (const QueryTrace& trace : traces_) {
    bytes += trace.spans.capacity() * sizeof(Span);
  }
  return bytes;
}

}  // namespace hyperprof::profiling
