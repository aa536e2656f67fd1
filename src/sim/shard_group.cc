#include "sim/shard_group.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

namespace hyperprof::sim {

namespace {

/** Canonical per-destination delivery order; unique per barrier. */
bool EnvelopeBefore(const ShardEnvelope& a, const ShardEnvelope& b) {
  if (a.deliver != b.deliver) return a.deliver < b.deliver;
  if (a.lane != b.lane) return a.lane < b.lane;
  return a.seq < b.seq;
}

}  // namespace

ShardGroup::ShardGroup(std::vector<Simulator*> kernels, SimTime window)
    : kernels_(std::move(kernels)),
      window_(window),
      staging_(kernels_.size() * kernels_.size()),
      inbox_(kernels_.size() * kernels_.size()),
      sources_(kernels_.size()),
      dests_(kernels_.size()),
      merge_scratch_(kernels_.size(),
                     std::vector<size_t>(kernels_.size(), 0)) {}

ShardGroup::~ShardGroup() {
  // Oversized payloads that were posted but never fired (teardown after
  // an error) still own their captures; run their deleters here. Fired
  // payloads destroyed themselves and set `done`.
  for (Source& src : sources_) {
    for (PayloadCell& cell : src.cells) {
      if (cell.in_flight && !cell.done && cell.destroy != nullptr) {
        cell.destroy(cell.mem.get());
      }
    }
  }
}

ShardGroup::PayloadCell* ShardGroup::AcquireCell(Source& src, size_t bytes) {
  std::vector<uint32_t>& free = src.free_cells;
  for (size_t i = 0; i < free.size(); ++i) {
    PayloadCell& cell = src.cells[free[i]];
    if (cell.capacity < bytes) continue;
    free[i] = free.back();
    free.pop_back();
    cell.in_flight = true;
    cell.done = false;
    ++src.cells_in_flight;
    return &cell;
  }
  ++src.allocs;
  src.cells.emplace_back();  // deque: existing cell addresses stay valid
  PayloadCell& cell = src.cells.back();
  // Round up so one warmed-up cell pool serves every payload shape.
  cell.capacity = std::max<size_t>(bytes, 128);
  cell.mem.reset(new unsigned char[cell.capacity]);
  cell.in_flight = true;
  ++src.cells_in_flight;
  return &cell;
}

void ShardGroup::SweepArenas() {
  for (Source& src : sources_) {
    if (src.cells_in_flight == 0) continue;
    for (uint32_t i = 0; i < src.cells.size(); ++i) {
      PayloadCell& cell = src.cells[i];
      if (!cell.in_flight || !cell.done) continue;
      cell.in_flight = false;
      cell.done = false;
      if (src.free_cells.size() == src.free_cells.capacity()) ++src.allocs;
      src.free_cells.push_back(i);
      --src.cells_in_flight;
    }
  }
}

bool ShardGroup::PlanEpoch(const RunOptions& options, SimTime& start_out,
                           SimTime& deadline) {
  SimTime start = SimTime::Max();
  for (Simulator* kernel : kernels_) {
    start = std::min(start, kernel->next_event_time());
  }
  bool have_messages = false;
  for (const std::vector<ShardEnvelope>& box : staging_) {
    if (box.empty()) continue;
    have_messages = true;
    // The head is the box's minimum: appends are deliver-monotone.
    start = std::min(start, box.front().deliver);
  }
  if (start == SimTime::Max()) return false;  // global quiesce
  deadline = start + window_;
  if (!have_messages && options.post_horizon) {
    SimTime horizon = SimTime::Max();
    for (uint32_t k = 0; k < kernels_.size(); ++k) {
      horizon = std::min(horizon, options.post_horizon(k));
    }
    if (horizon == SimTime::Max()) {
      // No kernel can ever post again: drain everything in one epoch.
      // Counted once, so the total stays schedule-invariant.
      deadline = SimTime::Max();
      ++coalesced_epochs_;
    } else if (horizon >= deadline) {
      // A post at time X is legal for deadline D iff X >= D - window
      // (its delivery X + window must not precede D). Posts before
      // `horizon` are impossible, so the largest sound D on the window
      // grid is start + (1 + floor((horizon - start) / window)) * window.
      int64_t extra = (horizon - start).nanos() / window_.nanos();
      deadline = start + SimTime::Nanos(window_.nanos() * (extra + 1));
      coalesced_epochs_ += static_cast<uint64_t>(extra);
    }
  }
  start_out = start;
  return true;
}

void ShardGroup::SwapMailboxes() {
  for (size_t i = 0; i < staging_.size(); ++i) {
    // The inbox side was cleared by its destination last epoch, so the
    // swap also hands the source a warm, capacity-retaining vector.
    if (!staging_[i].empty()) staging_[i].swap(inbox_[i]);
  }
}

void ShardGroup::DeliverInbox(uint32_t to) {
  const size_t n = kernels_.size();
  std::vector<size_t>& cursor = merge_scratch_[to];
  size_t runs = 0;
  size_t only = 0;
  for (size_t s = 0; s < n; ++s) {
    std::vector<ShardEnvelope>& run = inbox_[s * n + to];
    cursor[s] = 0;
    if (run.empty()) continue;
    ++runs;
    only = s;
    // Appends are deliver-monotone, but same-instant posts from
    // different lanes can land out of lane order; restore the canonical
    // key then (the common case is the free is_sorted pass).
    if (!std::is_sorted(run.begin(), run.end(), EnvelopeBefore)) {
      std::sort(run.begin(), run.end(), EnvelopeBefore);
    }
  }
  if (runs == 0) return;
  Simulator* kernel = kernels_[to];
  Dest& dest = dests_[to];
  auto deliver = [&](ShardEnvelope& env) {
    if (env.deliver < kernel->Now()) ++dest.late;
    // Flagged: a delivered payload may itself post (serve a request,
    // resume a reply continuation), so its firing time must bound the
    // destination's post horizon.
    kernel->ScheduleFlaggedAt(env.deliver, std::move(env.payload));
    ++dest.delivered;
  };
  if (runs == 1) {
    std::vector<ShardEnvelope>& run = inbox_[only * n + to];
    for (ShardEnvelope& env : run) deliver(env);
    run.clear();
    return;
  }
  // K-way merge by linear head scan; n is small (shards + 1). The key is
  // unique per destination, so the merged order — and with it the
  // kernel's same-instant tie-break — is independent of shard layout.
  for (;;) {
    size_t best = n;
    for (size_t s = 0; s < n; ++s) {
      const std::vector<ShardEnvelope>& run = inbox_[s * n + to];
      if (cursor[s] >= run.size()) continue;
      if (best == n ||
          EnvelopeBefore(run[cursor[s]], inbox_[best * n + to][cursor[best]])) {
        best = s;
      }
    }
    if (best == n) break;
    deliver(inbox_[best * n + to][cursor[best]++]);
  }
  for (size_t s = 0; s < n; ++s) inbox_[s * n + to].clear();
}

void ShardGroup::RunKernel(uint32_t k, SimTime deadline) {
  DeliverInbox(k);
  if (deadline == SimTime::Max()) {
    kernels_[k]->Run();  // drain epoch: run to quiesce, clock stays put
  } else {
    kernels_[k]->RunUntil(deadline);
  }
}

/**
 * One Advance call's runner threads: one per kernel beyond the last, which
 * the calling thread runs while it coordinates.
 *
 * One-barrier-per-epoch ticket protocol: the coordinator publishes
 * (deadline, stop) and release-increments `ticket_`; runners observe the
 * new ticket (acquire), deliver their inbox, run their kernel to the
 * deadline, and release-increment `arrived_`. The coordinator's acquire
 * loop on `arrived_` then receives all their writes before it touches
 * shared state (mailbox flips, arena sweeps, counters, probes).
 */
class ShardGroup::Runners {
 public:
  explicit Runners(ShardGroup* group)
      : group_(group),
        runners_(static_cast<uint32_t>(group->kernels_.size() - 1)) {
    threads_.reserve(runners_);
    for (uint32_t k = 0; k < runners_; ++k) {
      threads_.emplace_back([this, k]() { Loop(k); });
    }
  }

  /** Stops and joins the runners (also when unwinding an exception). */
  ~Runners() { Stop(); }

  Runners(const Runners&) = delete;
  Runners& operator=(const Runners&) = delete;

  /**
   * Runs every kernel to `deadline` and returns with the runners parked.
   * A runner's exception is rethrown once every runner has joined.
   */
  void RunEpoch(SimTime deadline) {
    Publish(deadline, /*stop=*/false);
    epoch_running_ = true;
    group_->RunKernel(runners_, deadline);  // the caller runs the last kernel
    WaitRunners();
    epoch_running_ = false;
    std::exception_ptr error;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      error = error_;
    }
    if (error) {
      Stop();
      std::rethrow_exception(error);
    }
  }

 private:
  void Loop(uint32_t k) {
    uint64_t epoch = 0;
    for (;;) {
      // Spin briefly (epochs are short), then park on the condvar.
      uint64_t t = ticket_.load(std::memory_order_acquire);
      for (int spin = 0; t == epoch && spin < 4096; ++spin) {
        t = ticket_.load(std::memory_order_acquire);
      }
      if (t == epoch) {
        std::unique_lock<std::mutex> lock(mutex_);
        ticket_cv_.wait(lock, [&] {
          return ticket_.load(std::memory_order_acquire) != epoch;
        });
        t = ticket_.load(std::memory_order_acquire);
      }
      epoch = t;
      if (stop_) return;
      try {
        group_->RunKernel(k, deadline_);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!error_) error_ = std::current_exception();
      }
      if (arrived_.fetch_add(1, std::memory_order_release) + 1 == runners_) {
        std::lock_guard<std::mutex> lock(mutex_);
        done_cv_.notify_one();
      }
    }
  }

  void Publish(SimTime deadline, bool stop) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      deadline_ = deadline;
      stop_ = stop;
      ticket_.fetch_add(1, std::memory_order_release);
    }
    ticket_cv_.notify_all();
  }

  void WaitRunners() {
    uint32_t done = arrived_.load(std::memory_order_acquire);
    for (int spin = 0; done != runners_ && spin < 65536; ++spin) {
      done = arrived_.load(std::memory_order_acquire);
    }
    if (done != runners_) {
      std::unique_lock<std::mutex> lock(mutex_);
      done_cv_.wait(lock, [&] {
        return arrived_.load(std::memory_order_acquire) == runners_;
      });
    }
    // Plain reset is published to runners by the next ticket increment.
    arrived_.store(0, std::memory_order_relaxed);
  }

  void Stop() {
    if (threads_.empty()) return;
    // When the caller's kernel threw mid-epoch, the runners may still be
    // reading this epoch's (deadline, stop): let them arrive first.
    if (epoch_running_) WaitRunners();
    Publish(SimTime::Zero(), /*stop=*/true);
    for (std::thread& thread : threads_) thread.join();
    threads_.clear();
  }

  ShardGroup* group_;
  const uint32_t runners_;
  std::mutex mutex_;
  std::condition_variable ticket_cv_;
  std::condition_variable done_cv_;
  std::atomic<uint64_t> ticket_{0};
  std::atomic<uint32_t> arrived_{0};
  SimTime deadline_;
  bool stop_ = false;
  std::exception_ptr error_;  // first runner failure, guarded by mutex_
  bool epoch_running_ = false;  // coordinator only
  std::vector<std::thread> threads_;
};

bool ShardGroup::Advance(SimTime until, const RunOptions& options) {
  const bool probing = options.probe && options.probe_period > SimTime::Zero();
  std::optional<Runners> runners;
  if (options.parallel && kernels_.size() > 1) runners.emplace(this);
  auto run_kernels = [&](SimTime deadline) {
    if (runners) {
      runners->RunEpoch(deadline);
      return;
    }
    for (uint32_t k = 0; k < kernels_.size(); ++k) RunKernel(k, deadline);
  };
  auto close_epoch = [&]() {
    ++epochs_;
    epoch_open_ = false;
    if (probing && epoch_deadline_ >= next_probe_) {
      options.probe();
      next_probe_ = epoch_deadline_ == SimTime::Max()
                        ? SimTime::Max()
                        : epoch_deadline_ + options.probe_period;
    }
  };
  for (;;) {
    if (!epoch_open_) {
      SweepArenas();
      SimTime start;
      if (!PlanEpoch(options, start, epoch_deadline_)) {
        // Global quiesce. A final drain pops stale cancelled heap entries
        // (RunUntil stops scanning at its deadline), so kernels report a
        // clean quiesce; the runners, if any, are parked.
        for (Simulator* kernel : kernels_) kernel->Run();
        SweepArenas();
        next_probe_ = SimTime::Max();
        if (probing) options.probe();
        return false;
      }
      if (probing && next_probe_ == SimTime::Max()) {
        next_probe_ = start + options.probe_period;
      }
      SwapMailboxes();
      epoch_open_ = true;
    }
    if (epoch_deadline_ <= until) {
      run_kernels(epoch_deadline_);
      close_epoch();
      continue;
    }
    // Pause inside the epoch: run every kernel to the horizon but keep the
    // epoch open — no mailbox flip, no re-plan — so resuming closes it at
    // its original deadline. DeliverInbox is a no-op on re-entry (the
    // first partial run cleared the inboxes), so the merged delivery order
    // is exactly the one-shot order.
    run_kernels(until);
    // A drain epoch (deadline = Max, planned only when no kernel can ever
    // post again) completes as soon as every kernel is out of events, even
    // at a finite horizon — one-shot runs it to quiesce, which stops at
    // the same point.
    if (epoch_deadline_ != SimTime::Max()) return true;
    bool drained = true;
    for (Simulator* kernel : kernels_) {
      if (kernel->next_event_time() != SimTime::Max()) drained = false;
    }
    if (!drained) return true;
    close_epoch();
  }
}

uint64_t ShardGroup::messages_posted() const {
  uint64_t total = 0;
  for (const Source& src : sources_) total += src.posted;
  return total;
}

uint64_t ShardGroup::messages_delivered() const {
  uint64_t total = 0;
  for (const Dest& dest : dests_) total += dest.delivered;
  return total;
}

size_t ShardGroup::undelivered() const {
  return static_cast<size_t>(messages_posted() - messages_delivered());
}

uint64_t ShardGroup::exchange_allocs() const {
  uint64_t total = 0;
  for (const Source& src : sources_) total += src.allocs;
  return total;
}

uint64_t ShardGroup::late_deliveries() const {
  uint64_t total = 0;
  for (const Dest& dest : dests_) total += dest.late;
  return total;
}

}  // namespace hyperprof::sim
