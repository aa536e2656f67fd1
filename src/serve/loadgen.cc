#include "serve/loadgen.h"

#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "serve/frame.h"
#include "serve/protocol.h"

namespace hyperprof::serve {

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// sent_at[id] sentinels: request not sent yet / response already matched.
constexpr double kNotSent = -1.0;
constexpr double kResponded = -2.0;

struct Conn {
  int fd = -1;
  FrameDecoder decoder;
  std::vector<uint8_t> outbuf;
  size_t out_offset = 0;
};

int ConnectLoopback(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  return fd;
}

}  // namespace

LoadGenReport RunLoadGen(const LoadGenOptions& options) {
  LoadGenReport report;
  const uint32_t conn_count = std::max<uint32_t>(1, options.connections);
  std::vector<Conn> conns(conn_count);
  for (Conn& conn : conns) {
    conn.fd = ConnectLoopback(options.port);
    if (conn.fd < 0) {
      for (Conn& opened : conns) {
        if (opened.fd >= 0) ::close(opened.fd);
      }
      return report;
    }
  }
  report.connected = true;

  // The arrival schedule is fixed up front (open loop): request k is due
  // at schedule[k] regardless of how the service is doing. Warmup
  // requests lead the schedule at the same offered rate; the measured
  // window opens when the first measured request is sent.
  const uint64_t warmup = options.warmup_requests;
  const uint64_t total = warmup + options.total_requests;
  Rng rng(options.seed);
  const double mean_gap =
      options.offered_qps > 0 ? 1.0 / options.offered_qps : 0.0;
  std::vector<double> schedule(total);
  double due = 0;
  for (uint64_t k = 0; k < total; ++k) {
    due += options.poisson ? rng.NextExponential(mean_gap) : mean_gap;
    schedule[k] = due;
  }

  // Seconds, measured kOk responses only.
  LatencySketch latencies(kLatencyHistogramGeometry);
  std::vector<double> sent_at(total, kNotSent);  // id -> send wall time
  uint64_t next_id = 0;
  uint64_t total_sent = 0;       // warmup + measured
  uint64_t total_responded = 0;  // matched or unmatchable responses
  bool broken = false;
  const auto start = Clock::now();
  double measured_start = -1;  // send time of the first measured request
  double drain_deadline = -1;

  protowire::WireBuffer payload;
  std::vector<uint8_t> frame_payload;
  std::vector<pollfd> pfds(conns.size());
  uint8_t read_buffer[64 * 1024];

  while (!broken) {
    const double now = SecondsSince(start);
    // Enqueue every request whose scheduled arrival has passed,
    // round-robin across connections.
    while (next_id < total && schedule[next_id] <= now) {
      Request request;
      request.id = next_id;
      request.kind = RequestKind::kQuery;
      request.platform = options.platform;
      payload.clear();
      EncodeRequest(request, payload);
      EncodeFrame(payload.data(), payload.size(),
                  conns[next_id % conns.size()].outbuf);
      sent_at[next_id] = now;
      if (next_id >= warmup) {
        if (measured_start < 0) measured_start = now;
        ++report.sent;
      } else {
        ++report.warmup_sent;
      }
      ++next_id;
      ++total_sent;
    }
    // Write what each socket will take.
    for (Conn& conn : conns) {
      while (conn.out_offset < conn.outbuf.size()) {
        const ssize_t n =
            ::send(conn.fd, conn.outbuf.data() + conn.out_offset,
                   conn.outbuf.size() - conn.out_offset, MSG_NOSIGNAL);
        if (n > 0) {
          conn.out_offset += static_cast<size_t>(n);
          continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        if (n < 0 && errno == EINTR) continue;
        broken = true;
        break;
      }
      if (conn.out_offset == conn.outbuf.size()) {
        conn.outbuf.clear();
        conn.out_offset = 0;
      }
      if (broken) break;
    }
    if (broken) break;
    // Read whatever responses are ready on any connection.
    for (;;) {
      int timeout_ms = 0;
      if (next_id < total) {
        const double wait = schedule[next_id] - SecondsSince(start);
        timeout_ms = wait > 0 ? static_cast<int>(wait * 1000) + 1 : 0;
      } else {
        timeout_ms = 10;
      }
      for (size_t i = 0; i < conns.size(); ++i) {
        pfds[i].fd = conns[i].fd;
        pfds[i].events = POLLIN;
        if (conns[i].out_offset < conns[i].outbuf.size()) {
          pfds[i].events |= POLLOUT;
        }
        pfds[i].revents = 0;
      }
      const int pr =
          ::poll(pfds.data(), static_cast<nfds_t>(pfds.size()), timeout_ms);
      if (pr < 0 && errno != EINTR) {
        broken = true;
        break;
      }
      if (pr <= 0) break;
      bool any_readable = false;
      for (size_t i = 0; i < conns.size() && !broken; ++i) {
        if (pfds[i].revents & POLLOUT) any_readable = true;  // resume sends
        if (!(pfds[i].revents & (POLLIN | POLLHUP))) continue;
        any_readable = true;
        Conn& conn = conns[i];
        const ssize_t n = ::recv(conn.fd, read_buffer, sizeof(read_buffer), 0);
        if (n == 0 || (n < 0 && errno != EINTR && errno != EAGAIN &&
                       errno != EWOULDBLOCK)) {
          broken = true;
          break;
        }
        if (n < 0) continue;
        conn.decoder.Feed(read_buffer, static_cast<size_t>(n));
        for (;;) {
          const FrameDecoder::Status status = conn.decoder.Next(&frame_payload);
          if (status == FrameDecoder::Status::kNeedMore) break;
          if (status != FrameDecoder::Status::kFrame) {
            ++report.errors;
            broken = true;
            break;
          }
          Response response;
          if (!DecodeResponse(frame_payload.data(), frame_payload.size(),
                              &response)) {
            ++report.errors;
            continue;
          }
          ++total_responded;
          const bool known =
              response.id < total && sent_at[response.id] >= 0;
          const double rtt =
              known ? SecondsSince(start) - sent_at[response.id] : 0;
          if (known) sent_at[response.id] = kResponded;
          const bool measured = known && response.id >= warmup;
          switch (response.status) {
            case ResponseStatus::kOk:
              if (measured) {
                ++report.ok;
                latencies.Add(rtt);
              }
              break;
            case ResponseStatus::kShed:
              if (measured) ++report.shed;
              break;
            case ResponseStatus::kError:
              if (measured) ++report.errors;
              break;
          }
        }
      }
      if (broken || !any_readable) break;
    }
    if (next_id >= total && total_responded >= total_sent) break;
    if (next_id >= total) {
      const double now2 = SecondsSince(start);
      if (drain_deadline < 0) {
        drain_deadline = now2 + options.drain_timeout_seconds;
      } else if (now2 >= drain_deadline) {
        break;
      }
    }
  }
  for (uint64_t id = warmup; id < total; ++id) {
    if (sent_at[id] >= 0) ++report.lost;  // sent, never answered
  }
  const double end = SecondsSince(start);
  report.wall_seconds = measured_start >= 0 ? end - measured_start : 0;
  report.achieved_qps = report.wall_seconds > 0
                            ? static_cast<double>(report.sent) /
                                  report.wall_seconds
                            : 0;
  if (latencies.count() > 0) {
    report.latency_mean_ms = latencies.mean() * 1e3;
    report.latency_p50_ms = latencies.Quantile(0.5) * 1e3;
    report.latency_p99_ms = latencies.Quantile(0.99) * 1e3;
    report.latency_p999_ms = latencies.Quantile(0.999) * 1e3;
  }
  // Shed-aware quantiles: rank every terminal outcome, scoring shed,
  // error, and lost requests as never-answered (+inf). Quantile q lands
  // in the accepted-latency distribution iff q is below the accepted
  // fraction; otherwise it is beyond the shed horizon (-1).
  const uint64_t terminal = report.ok + report.shed + report.errors +
                            report.lost;
  const double ok_fraction =
      terminal > 0
          ? static_cast<double>(report.ok) / static_cast<double>(terminal)
          : 0;
  const auto shed_aware = [&](double q) {
    if (report.ok == 0 || q >= ok_fraction) return -1.0;
    return latencies.Quantile(q / ok_fraction) * 1e3;
  };
  report.shed_aware_p50_ms = shed_aware(0.5);
  report.shed_aware_p99_ms = shed_aware(0.99);
  report.shed_aware_p999_ms = shed_aware(0.999);
  for (Conn& conn : conns) ::close(conn.fd);
  return report;
}

}  // namespace hyperprof::serve
