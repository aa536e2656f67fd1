// Checks that the open-loop generator charges a daemon stall to the
// requests it delays. A stub daemon answers every request at once except
// for one deliberate pause; requests scheduled during the pause must show
// the pause as latency, because latency runs from the scheduled send
// time. The generator itself is never stalled, so its lateness stays
// small. Exits nonzero on failure.

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

#include "open_loop.h"
#include "serve/frame.h"
#include "serve/protocol.h"

namespace serve = hyperprof::serve;

namespace {

/** Echo daemon on loopback that pauses once for `stall_ms`. */
class StubDaemon {
 public:
  StubDaemon(double stall_after_s, int stall_ms)
      : stall_after_s_(stall_after_s), stall_ms_(stall_ms) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    if (listen_fd_ < 0 ||
        ::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), len) < 0 ||
        ::listen(listen_fd_, 16) < 0 ||
        ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) <
            0) {
      std::perror("stub daemon");
      return;
    }
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this] { Loop(); });
  }
  ~StubDaemon() {
    stop_ = true;
    if (thread_.joinable()) thread_.join();
    for (const pollfd& p : fds_) ::close(p.fd);
  }
  StubDaemon(const StubDaemon&) = delete;
  StubDaemon& operator=(const StubDaemon&) = delete;

  uint16_t port() const { return port_; }

 private:
  void Loop() {
    fds_.push_back(pollfd{listen_fd_, POLLIN, 0});
    std::vector<serve::FrameDecoder> decoders(1);
    std::vector<uint8_t> buffer(64 * 1024);
    std::vector<uint8_t> frame;
    hyperprof::protowire::WireBuffer payload;
    std::vector<uint8_t> out;
    const auto start = std::chrono::steady_clock::now();
    bool stalled = false;
    while (!stop_) {
      const double now =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      if (!stalled && now >= stall_after_s_ && stall_ms_ > 0) {
        stalled = true;  // the deliberate stall: stop reading and answering
        std::this_thread::sleep_for(std::chrono::milliseconds(stall_ms_));
      }
      if (::poll(fds_.data(), fds_.size(), 1) <= 0) continue;
      for (size_t i = 0; i < fds_.size(); ++i) {
        if (!(fds_[i].revents & POLLIN)) continue;
        if (fds_[i].fd == listen_fd_) {
          const int fd = ::accept(listen_fd_, nullptr, nullptr);
          if (fd >= 0) {
            fds_.push_back(pollfd{fd, POLLIN, 0});
            decoders.emplace_back();
          }
          continue;
        }
        const ssize_t n = ::recv(fds_[i].fd, buffer.data(), buffer.size(), 0);
        if (n <= 0) {
          fds_[i].events = 0;
          continue;
        }
        decoders[i].Feed(buffer.data(), static_cast<size_t>(n));
        out.clear();
        while (decoders[i].Next(&frame) ==
               serve::FrameDecoder::Status::kFrame) {
          serve::Request request;
          if (!serve::DecodeRequest(frame.data(), frame.size(), &request)) {
            continue;
          }
          serve::Response response;
          response.id = request.id;
          payload.clear();
          serve::EncodeResponse(response, payload);
          serve::EncodeFrame(payload.data(), payload.size(), out);
        }
        size_t sent = 0;
        while (sent < out.size()) {
          const ssize_t w = ::send(fds_[i].fd, out.data() + sent,
                                   out.size() - sent, MSG_NOSIGNAL);
          if (w <= 0) break;
          sent += static_cast<size_t>(w);
        }
      }
    }
  }

  double stall_after_s_;
  int stall_ms_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::vector<pollfd> fds_;
  std::atomic<bool> stop_{false};
  std::thread thread_;  // declared last: uses every member above
};

int failures = 0;

void Expect(bool ok, const char* what, double value) {
  std::printf("%s %s (%.3f)\n", ok ? "PASS" : "FAIL", what, value);
  if (!ok) ++failures;
}

perfbench::OpenLoopReport Drive(const StubDaemon& daemon) {
  perfbench::OpenLoopOptions options;
  options.port = daemon.port();
  options.rate_qps = 2000;
  options.warmup_seconds = 0.2;
  options.measure_seconds = 1.0;
  options.seed = 7;
  return perfbench::RunOpenLoop(options);
}

}  // namespace

int main() {
  {
    StubDaemon steady(/*stall_after_s=*/0, /*stall_ms=*/0);
    perfbench::OpenLoopReport report = Drive(steady);
    Expect(report.connected, "steady: connected", 1);
    Expect(report.lost == 0 && report.total_lost == 0, "steady: nothing lost",
           static_cast<double>(report.total_lost));
    Expect(report.ok == report.sent && report.sent > 1500,
           "steady: every measured query answered ok",
           static_cast<double>(report.ok));
    Expect(report.dashboard_ok == report.dashboard_sent &&
               report.dashboard_sent > 0,
           "steady: dashboard polls answered",
           static_cast<double>(report.dashboard_ok));
    std::vector<double> latency = report.latency_ms;
    const double p50 = perfbench::Percentile(latency, 0.5);
    Expect(p50 < 20, "steady: p50 latency below 20 ms", p50);
  }
  {
    // 300 ms pause, 0.5 s in (inside the measured window).
    StubDaemon stalled(/*stall_after_s=*/0.5, /*stall_ms=*/300);
    perfbench::OpenLoopReport report = Drive(stalled);
    Expect(report.lost == 0 && report.total_lost == 0,
           "stalled: nothing lost", static_cast<double>(report.total_lost));
    Expect(report.ok == report.sent, "stalled: every measured query answered",
           static_cast<double>(report.ok));
    std::vector<double> latency = report.latency_ms;
    const double worst = perfbench::Percentile(latency, 1.0);
    Expect(worst >= 250, "stalled: the stall shows as latency (max ms)",
           worst);
    const auto delayed = std::count_if(latency.begin(), latency.end(),
                                       [](double ms) { return ms >= 100; });
    // About 2000 qps x 0.2 s of requests wait at least 100 ms.
    Expect(delayed >= 250, "stalled: queries delayed >= 100 ms",
           static_cast<double>(delayed));
    std::vector<double> late = report.late_ms;
    const double late_p50 = perfbench::Percentile(late, 0.5);
    Expect(late_p50 < 20, "stalled: generator itself on schedule (p50 late)",
           late_p50);
  }
  std::printf("%s\n", failures == 0 ? "open_loop_test: OK"
                                    : "open_loop_test: FAILED");
  return failures == 0 ? 0 : 1;
}
