#include "open_loop.h"

#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>

#include "common/rng.h"
#include "serve/frame.h"
#include "serve/protocol.h"

namespace perfbench {

namespace serve = hyperprof::serve;

std::vector<double> ArrivalSchedule(double rate_qps, double seconds,
                                    uint64_t seed) {
  std::vector<double> schedule;
  if (rate_qps <= 0) return schedule;
  schedule.reserve(static_cast<size_t>(rate_qps * seconds * 1.1) + 16);
  hyperprof::Rng rng(seed);
  const double mean_gap = 1.0 / rate_qps;
  for (double due = rng.NextExponential(mean_gap); due < seconds;
       due += rng.NextExponential(mean_gap)) {
    schedule.push_back(due);
  }
  return schedule;
}

double Percentile(std::vector<double>& values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

namespace {

using Clock = std::chrono::steady_clock;

constexpr uint32_t kConnections = 4;
constexpr uint32_t kPlatform = 0;
// One kStats + one kWindows request per period on connection 0.
constexpr double kDashboardPeriodSeconds = 0.1;
// Dashboard request ids live above every query id.
constexpr uint64_t kDashboardIdBase = uint64_t{1} << 40;
// `good` counts ok queries answered within this of their scheduled send.
constexpr double kLatencyLimitMs = 10;
// Wall-clock budget for trailing responses after the last send.
constexpr double kDrainTimeoutSeconds = 10;

struct Conn {
  int fd = -1;
  serve::FrameDecoder decoder;
  std::vector<uint8_t> out;
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
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/** Writes what the socket takes; false on a dead connection. */
bool Flush(Conn& conn) {
  while (conn.out_offset < conn.out.size()) {
    const ssize_t n = ::send(conn.fd, conn.out.data() + conn.out_offset,
                             conn.out.size() - conn.out_offset, MSG_NOSIGNAL);
    if (n > 0) {
      conn.out_offset += static_cast<size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      return n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
    }
  }
  conn.out.clear();
  conn.out_offset = 0;
  return true;
}

}  // namespace

OpenLoopReport RunOpenLoop(const OpenLoopOptions& options) {
  OpenLoopReport report;
  std::vector<Conn> conns(kConnections);
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

  const double span = options.warmup_seconds + options.measure_seconds;
  const std::vector<double> schedule =
      ArrivalSchedule(options.rate_qps, span, options.seed);
  const uint64_t dashboard_polls =
      static_cast<uint64_t>(span / kDashboardPeriodSeconds);
  // answered[id] for queries; dashboard answers are counted.
  std::vector<uint8_t> answered(schedule.size(), 0);
  uint64_t dashboard_answered = 0;
  report.latency_ms.reserve(schedule.size());
  report.late_ms.reserve(schedule.size());

  const auto start = Clock::now();
  const auto elapsed = [&start] {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  const auto measured = [&](uint64_t id) {
    return schedule[id] >= options.warmup_seconds;
  };

  hyperprof::protowire::WireBuffer payload;
  const auto enqueue = [&](Conn& conn, const serve::Request& request) {
    payload.clear();
    serve::EncodeRequest(request, payload);
    serve::EncodeFrame(payload.data(), payload.size(), conn.out);
    ++report.total_sent;
  };

  size_t next_query = 0;
  uint64_t next_poll = 0;
  std::vector<pollfd> pfds(conns.size());
  bool broken = false;
  double drain_deadline = -1;
  while (!broken) {
    const double now = elapsed();
    for (; next_query < schedule.size() && schedule[next_query] <= now;
         ++next_query) {
      serve::Request request;
      request.id = next_query;
      request.kind = serve::RequestKind::kQuery;
      request.platform = kPlatform;
      enqueue(conns[next_query % conns.size()], request);
      if (measured(next_query)) {
        ++report.sent;
        report.late_ms.push_back((now - schedule[next_query]) * 1e3);
      }
    }
    for (; next_poll < dashboard_polls &&
           static_cast<double>(next_poll + 1) * kDashboardPeriodSeconds <= now;
         ++next_poll) {
      for (serve::RequestKind kind :
           {serve::RequestKind::kStats, serve::RequestKind::kWindows}) {
        serve::Request request;
        request.id = kDashboardIdBase + report.dashboard_sent++;
        request.kind = kind;
        request.platform = kPlatform;
        enqueue(conns[0], request);
      }
    }
    for (Conn& conn : conns) broken = broken || !Flush(conn);
    if (broken) break;

    const bool all_sent =
        next_query == schedule.size() && next_poll == dashboard_polls;
    if (all_sent && report.total_answered == report.total_sent) break;
    if (all_sent && drain_deadline < 0) {
      drain_deadline = now + kDrainTimeoutSeconds;
    }
    if (all_sent && now >= drain_deadline) break;

    // Sleep until the next scheduled send or a readable socket.
    double wait = 0.001;
    if (!all_sent) {
      double due = next_query < schedule.size() ? schedule[next_query] : span;
      if (next_poll < dashboard_polls) {
        due = std::min(due, static_cast<double>(next_poll + 1) *
                                kDashboardPeriodSeconds);
      }
      wait = std::clamp(due - elapsed(), 0.0, 0.001);
    }
    for (size_t i = 0; i < conns.size(); ++i) {
      pfds[i].fd = conns[i].fd;
      pfds[i].events = POLLIN;
      if (conns[i].out_offset < conns[i].out.size()) pfds[i].events |= POLLOUT;
      pfds[i].revents = 0;
    }
    timespec timeout;
    timeout.tv_sec = 0;
    timeout.tv_nsec = static_cast<long>(wait * 1e9);
    const int ready = ::ppoll(pfds.data(), pfds.size(), &timeout, nullptr);
    if (ready < 0 && errno != EINTR) break;
    if (ready <= 0) continue;
    // One receive per readable connection, then back to the schedule, so
    // a stream of responses never delays sends.
    const double received_at = elapsed();
    for (size_t i = 0; i < conns.size() && !broken; ++i) {
      if (!(pfds[i].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      Conn& conn = conns[i];
      uint8_t* into = conn.decoder.WritableSpan(64 * 1024);
      if (into == nullptr) {
        broken = true;
        break;
      }
      const ssize_t n = ::recv(conn.fd, into, 64 * 1024, 0);
      if (n < 0 && (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)) {
        continue;
      }
      if (n <= 0) {
        broken = true;
        break;
      }
      conn.decoder.CommitBytes(static_cast<size_t>(n));
      serve::FrameView view;
      for (;;) {
        const auto status = conn.decoder.NextView(&view);
        if (status == serve::FrameDecoder::Status::kNeedMore) break;
        serve::Response response;
        if (status != serve::FrameDecoder::Status::kFrame ||
            !serve::DecodeResponse(view.data, view.size, &response)) {
          ++report.undecodable;
          broken = status != serve::FrameDecoder::Status::kFrame;
          if (broken) break;
          continue;
        }
        if (response.id >= kDashboardIdBase) {
          ++report.total_answered;
          ++dashboard_answered;
          if (response.status == serve::ResponseStatus::kOk) {
            ++report.dashboard_ok;
          }
          continue;
        }
        if (response.id >= schedule.size() || answered[response.id]) {
          ++report.undecodable;  // an answer to nothing we sent
          continue;
        }
        answered[response.id] = 1;
        ++report.total_answered;
        if (!measured(response.id)) continue;
        switch (response.status) {
          case serve::ResponseStatus::kOk: {
            ++report.ok;
            const double ms = (received_at - schedule[response.id]) * 1e3;
            report.latency_ms.push_back(ms);
            if (ms <= kLatencyLimitMs) ++report.good;
            break;
          }
          case serve::ResponseStatus::kShed:
            ++report.shed;
            break;
          case serve::ResponseStatus::kError:
            ++report.errors;
            break;
        }
      }
    }
  }
  for (uint64_t id = 0; id < next_query; ++id) {
    if (answered[id]) continue;
    ++report.total_lost;
    if (measured(id)) ++report.lost;
  }
  report.total_lost += report.dashboard_sent - dashboard_answered;
  for (Conn& conn : conns) ::close(conn.fd);
  return report;
}

}  // namespace perfbench
