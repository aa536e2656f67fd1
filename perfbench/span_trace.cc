#include "span_trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

namespace perfbench {

int64_t NowNanos() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin)
      .count();
}

void SpanRecorder::Absorb(const SpanRecorder& other, int32_t parent,
                          uint32_t thread) {
  const int32_t base = static_cast<int32_t>(spans_.size());
  for (Span span : other.spans()) {
    span.parent = span.parent < 0 ? parent : span.parent + base;
    span.thread = thread;
    spans_.push_back(span);
  }
}

std::map<std::string, double> SelfSecondsByLayer(
    const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      children[static_cast<size_t>(span.parent)].emplace_back(span.start_ns,
                                                             span.end_ns);
    }
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    // Union of the children's intervals, clipped to this span.
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t cursor = span.start_ns;
    for (auto [start, end] : kids) {
      start = std::max(start, cursor);
      end = std::min(end, span.end_ns);
      if (end > start) {
        covered += end - start;
        cursor = end;
      }
    }
    const std::string name(span.name);
    const std::string layer = name.substr(0, name.find('.'));
    self[layer] +=
        static_cast<double>(span.end_ns - span.start_ns - covered) * 1e-9;
  }
  return self;
}

std::vector<double> DurationsOf(const std::vector<Span>& spans,
                                const char* name) {
  std::vector<double> out;
  const std::string wanted(name);
  for (const Span& span : spans) {
    if (wanted == span.name) {
      out.push_back(static_cast<double>(span.end_ns - span.start_ns) * 1e-9);
    }
  }
  return out;
}

bool WriteChromeTrace(const std::string& path,
                      const std::vector<Span>& spans) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "{\"traceEvents\":[\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    std::fprintf(out,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                 "\"parent\":%d,\"id\":%llu}}\n",
                 i == 0 ? "" : ",", span.name, span.thread,
                 static_cast<double>(span.start_ns) * 1e-3,
                 static_cast<double>(span.end_ns - span.start_ns) * 1e-3, i,
                 span.parent, static_cast<unsigned long long>(span.id));
  }
  std::fprintf(out, "]}\n");
  return std::fclose(out) == 0;
}

}  // namespace perfbench
