#ifndef HYPERPROF_PERFBENCH_OPEN_LOOP_H_
#define HYPERPROF_PERFBENCH_OPEN_LOOP_H_

#include <cstdint>
#include <vector>

namespace perfbench {

/**
 * Poisson arrival times (seconds from 0) at `rate_qps` over [0, seconds).
 * The same seed gives the same schedule; the socket run and the
 * socketless replay both consume it.
 */
std::vector<double> ArrivalSchedule(double rate_qps, double seconds,
                                    uint64_t seed);

/** Nearest-rank percentile of `values` (sorted in place); 0 if empty. */
double Percentile(std::vector<double>& values, double q);

struct OpenLoopOptions {
  uint16_t port = 0;  // daemon port on loopback
  double rate_qps = 2000;
  /** Leading part of the schedule excluded from every statistic. */
  double warmup_seconds = 0.5;
  double measure_seconds = 3;
  uint64_t seed = 1;
};

/** Measured-window outcome of one open-loop run. */
struct OpenLoopReport {
  bool connected = false;
  // Queries scheduled inside the measured window.
  uint64_t sent = 0;
  uint64_t ok = 0;
  uint64_t shed = 0;
  uint64_t errors = 0;  // kError responses
  uint64_t lost = 0;    // no response before the drain timeout
  uint64_t good = 0;    // ok within 10 ms of the scheduled send
  // Every request of the run, warmup and dashboard included.
  uint64_t total_sent = 0;
  uint64_t total_answered = 0;
  uint64_t total_lost = 0;
  uint64_t undecodable = 0;  // bad frames or unparsable responses
  uint64_t dashboard_sent = 0;
  uint64_t dashboard_ok = 0;
  // Scheduled send time to response, measured ok queries (ms).
  std::vector<double> latency_ms;
  // Actual send time minus scheduled send time, measured queries (ms).
  std::vector<double> late_ms;
};

/**
 * Single-threaded open-loop load generator. Queries for platform 0 go out
 * on a fixed Poisson schedule over four poll-multiplexed loopback
 * connections, round-robin, and never wait for responses. Beside them,
 * connection 0 sends one kStats and one kWindows request every 100 ms.
 * Each query's latency runs from its *scheduled* send time, so a stall
 * anywhere — daemon or generator — shows up as latency of the requests it
 * delayed, and `late_ms` reports how far the generator itself fell behind.
 */
OpenLoopReport RunOpenLoop(const OpenLoopOptions& options);

}  // namespace perfbench

#endif  // HYPERPROF_PERFBENCH_OPEN_LOOP_H_
