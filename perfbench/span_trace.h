#ifndef HYPERPROF_PERFBENCH_SPAN_TRACE_H_
#define HYPERPROF_PERFBENCH_SPAN_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/** Nanoseconds on the steady clock since the process's first call. */
int64_t NowNanos();

/**
 * One traced call into a layer of the program. Spans are recorded by the
 * benchmark around public API calls, never inside the program. `name` is
 * "<layer>.<call>"; the layer is the repo module the call enters.
 */
struct Span {
  const char* name = "";
  int32_t parent = -1;  // index into the same recorder's spans, -1 = root
  uint64_t id = 0;      // request id on the serve replay, else 0
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint32_t thread = 0;  // 0 = main thread; lanes for concurrent spans
};

/**
 * In-memory span log of one thread. Storage is reserved up front so a
 * traced run does not allocate per span until the reservation is used;
 * spans are written out only when the run ends.
 */
class SpanRecorder {
 public:
  explicit SpanRecorder(size_t reserve = 1 << 16) { spans_.reserve(reserve); }

  /** Opens a span now; returns its index for End() and as a parent. */
  int32_t Begin(const char* name, int32_t parent, uint64_t id = 0) {
    spans_.push_back(Span{name, parent, id, NowNanos(), 0, 0});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  void End(int32_t index) {
    spans_[static_cast<size_t>(index)].end_ns = NowNanos();
  }

  /** Records a span whose times were taken elsewhere. */
  int32_t Add(const char* name, int32_t parent, int64_t start_ns,
              int64_t end_ns, uint64_t id = 0, uint32_t thread = 0) {
    spans_.push_back(Span{name, parent, id, start_ns, end_ns, thread});
    return static_cast<int32_t>(spans_.size() - 1);
  }

  /** Appends another thread's spans under `parent`, keeping their tree. */
  void Absorb(const SpanRecorder& other, int32_t parent, uint32_t thread);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

/**
 * Self time per layer: each span's duration minus the part of it its
 * child spans cover (children may overlap, e.g. platforms simulated on
 * parallel threads), summed by the layer prefix of the span name.
 */
std::map<std::string, double> SelfSecondsByLayer(const std::vector<Span>& spans);

/** Durations in seconds of every span called `name`. */
std::vector<double> DurationsOf(const std::vector<Span>& spans,
                                const char* name);

/** Writes the spans as a Chrome trace (chrome://tracing, Perfetto). */
bool WriteChromeTrace(const std::string& path, const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // HYPERPROF_PERFBENCH_SPAN_TRACE_H_
