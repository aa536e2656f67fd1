#ifndef HYPERPROF_SERVE_LOADGEN_H_
#define HYPERPROF_SERVE_LOADGEN_H_

#include <cstdint>

namespace hyperprof::serve {

struct LoadGenOptions {
  uint16_t port = 0;           // daemon port on loopback
  double offered_qps = 1000;   // open-loop Poisson arrival rate
  uint64_t total_requests = 1000;  // measured requests (excludes warmup)
  /**
   * Requests sent ahead of the measured run at the same offered rate, to
   * warm the daemon's buffers, caches, and admission window. Excluded
   * from every reported statistic.
   */
  uint64_t warmup_requests = 0;
  /** Loopback connections the offered load is spread over (round-robin
   * by request). More connections = more daemon-side batching windows. */
  uint32_t connections = 1;
  uint64_t seed = 1;           // arrival-schedule RNG seed
  uint32_t platform = 0;       // fleet platform the queries target
  /** Wall-clock budget to wait for trailing responses after the last send. */
  double drain_timeout_seconds = 10.0;
};

/** What one open-loop run observed (measured requests only). */
struct LoadGenReport {
  uint64_t sent = 0;
  uint64_t warmup_sent = 0;  // warmup requests actually sent (not counted)
  uint64_t ok = 0;
  uint64_t shed = 0;
  uint64_t errors = 0;     // kError responses or undecodable frames
  uint64_t lost = 0;       // no response before the drain timeout
  double wall_seconds = 0;  // measured window (first measured send -> end)
  double achieved_qps = 0;       // sent / wall_seconds
  // Accepted-population latency: wall-clock send-to-response over kOk
  // responses only. Under heavy shedding this is survivor-biased — the
  // accepted minority can look *faster* at higher offered load — so read
  // it together with the shed-aware quantiles below.
  double latency_mean_ms = 0;
  double latency_p50_ms = 0;
  double latency_p99_ms = 0;
  double latency_p999_ms = 0;
  // Shed-aware quantiles over every terminal outcome, with shed, error,
  // and lost requests scored as never-answered (+inf): quantile q maps
  // into the accepted-latency distribution when q falls below the
  // accepted fraction and is -1 ("beyond the shed horizon") otherwise.
  // Monotone in offered load by construction — no survivor bias.
  double shed_aware_p50_ms = 0;
  double shed_aware_p99_ms = 0;
  double shed_aware_p999_ms = 0;
  bool connected = false;

  double shed_rate() const {
    return sent > 0 ? static_cast<double>(shed) / static_cast<double>(sent)
                    : 0.0;
  }
};

/**
 * Open-loop load generator: sends pipelined query requests over one or
 * more loopback connections on a fixed arrival schedule — arrivals do NOT
 * wait for responses, so offered load is independent of service latency
 * (the classic closed-loop coordination-omission trap). Responses are
 * matched to requests by id; wall-clock latency lands in a log-bucketed
 * histogram. Single-threaded: all connections are poll-multiplexed.
 */
LoadGenReport RunLoadGen(const LoadGenOptions& options);

}  // namespace hyperprof::serve

#endif  // HYPERPROF_SERVE_LOADGEN_H_
