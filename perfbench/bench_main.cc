// One pass of one benchmark workload, run in a process of its own so its
// peak RSS belongs to that workload alone. perfbench/run.py launches the
// passes, takes medians and applies the cross-pass checks.
//
//   perfbench <workload> <mode> --seed N --seconds S --out DIR
//
// workload: characterize | sharded_scan | serve_light | serve_overload
//           (serve_overload runs only inside serve_light's traced run)
// mode:     untraced   the end-to-end measurement (no hooks, no spans)
//           traced     spans around every public call the pass makes
//           replay     serve only: the arrival schedule replayed through
//                      VirtualFrontDoor without sockets, then the codec
//           reference  sharded_scan only: the same job on one worker kernel
//
// The last line of stdout is one JSON object: the pass's measurements,
// its simulated counts and digest, and "checks", the failed output checks.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/cpu.h"
#include "open_loop.h"
#include "platforms/fleet.h"
#include "platforms/platforms.h"
#include "serve/frame.h"
#include "serve/front_door.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "span_trace.h"

using namespace hyperprof;
using perfbench::NowNanos;
using perfbench::SpanRecorder;

namespace {

// --- Fixed workload parameters ---------------------------------------------
// Sized on the 4-core reference host so one RunAll lasts a few seconds
// (characterize) or about a second (sharded_scan); see perfbench/README.md.
constexpr uint64_t kCharacterizeQueries = 20000;
constexpr uint64_t kShardedQueries = 300000;
// sharded_scan's set-up takes 10-15 ms, too short to time once steadily:
// it is repeated and setup_s is the median. characterize's takes seconds.
constexpr int kCharacterizeSetups = 1;
constexpr int kShardedSetups = 15;
// Serving: virtual rate as in serving_micro / fleet_serve; the shipped
// FrontDoorOptions::max_in_flight; four connections; platform 0.
constexpr double kVirtualRate = 20.0;
constexpr double kLightQps = 2000;
constexpr double kOverloadQps = 64000;
constexpr double kWarmupSeconds = 0.5;
// Replay batches arrivals per daemon tick (Run() steps RunOnce(1)).
constexpr double kReplayTick = 0.001;

std::vector<platforms::PlatformSpec> DefaultSpecs() {
  return {platforms::SpannerSpec(), platforms::BigTableSpec(),
          platforms::BigQuerySpec()};
}

double Seconds(int64_t from_ns, int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) * 1e-9;
}

double Median(std::vector<double> values) {
  return perfbench::Percentile(values, 0.5);
}

rusage Usage(int who) {
  rusage usage;
  getrusage(who, &usage);
  return usage;
}

double ToSeconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
}

/** CPU time (user + system) of the calling thread or the process. */
double CpuSeconds(int who) {
  const rusage usage = Usage(who);
  return ToSeconds(usage.ru_utime) + ToSeconds(usage.ru_stime);
}

unsigned HostCores() { return std::max(1u, std::thread::hardware_concurrency()); }

std::string Quote(const std::string& text) {
  std::string quoted = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') quoted += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) quoted += c;
  }
  return quoted + "\"";
}

/** Flat JSON object, keys in insertion order, numbers with all digits. */
class JsonOut {
 public:
  void Num(const std::string& key, double value) {
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    Raw(key, buffer);
  }
  void Int(const std::string& key, uint64_t value) {
    Raw(key, std::to_string(value));
  }
  void Str(const std::string& key, const std::string& value) {
    Raw(key, Quote(value));
  }
  void List(const std::string& key, const std::vector<std::string>& items) {
    std::string list;
    for (const std::string& item : items) {
      list += (list.empty() ? "" : ",") + Quote(item);
    }
    Raw(key, "[" + list + "]");
  }
  std::string Finish() const { return "{" + body_ + "}"; }

 private:
  void Raw(const std::string& key, const std::string& value) {
    if (!body_.empty()) body_ += ",";
    body_ += Quote(key) + ":" + value;
  }
  std::string body_;
};

/** Failed output checks of one pass. */
class Checks {
 public:
  void Expect(bool ok, const std::string& what) {
    if (!ok) failures_.push_back(what);
  }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::vector<std::string> failures_;
};

/** FNV-1a over the exact bit patterns of recovered results. */
class Digest {
 public:
  void Add(uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (value >> (8 * i)) & 0xff;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void Add(double value) {
    uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    Add(bits);
  }
  void Add(const profiling::AttributedTime& time) {
    Add(time.cpu);
    Add(time.io);
    Add(time.remote);
  }
  std::string Hex() const {
    char buffer[17];
    std::snprintf(buffer, sizeof(buffer), "%016" PRIx64, hash_);
    return buffer;
  }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

void DigestResult(const platforms::PlatformResult& result,
                  const platforms::PlatformTotals& totals, Digest& digest) {
  for (char c : result.name) digest.Add(static_cast<uint64_t>(c));
  digest.Add(result.queries_completed);
  digest.Add(result.queries_sampled);
  auto add_group = [&digest](const profiling::GroupAggregate& group) {
    digest.Add(group.time);
    digest.Add(group.fraction_sum);
    digest.Add(group.query_count);
  };
  for (const auto& group : result.e2e.groups) add_group(group);
  add_group(result.e2e.overall);
  for (double cycles : result.cycles.cycles_by_category) digest.Add(cycles);
  digest.Add(result.microarch.overall.cycles());
  digest.Add(result.microarch.overall.instructions());
  for (const auto& broad : result.microarch.by_broad) {
    digest.Add(broad.cycles());
    digest.Add(broad.instructions());
  }
  for (uint64_t value :
       {totals.queries_completed, totals.io_failures, totals.events_executed,
        totals.completed_calls, totals.failed_calls, totals.retries_issued,
        totals.hedges_issued, totals.timeouts_fired}) {
    digest.Add(value);
  }
  digest.Add(totals.wasted_seconds);
}

void AddEnvelope(JsonOut& out) {
  out.Int("env.nproc", HostCores());
  out.Str("env.compiler", std::string("gcc-compatible ") + __VERSION__);
  out.Str("env.build_type", PERFBENCH_BUILD_TYPE);
  out.Str("env.kernel_dispatch", KernelDispatchSummary());
}

struct Args {
  std::string workload;
  std::string mode;
  uint64_t seed = 1;
  double seconds = 3;
  std::string out_dir = ".";
};

// --- Fleet workloads ---------------------------------------------------------

/**
 * Common body of the two fleet workloads: set up (`setups` times, keeping
 * the last), RunAll, read results, check, report. `traced` adds the
 * FleetConfig probe (bit-identical to an unprobed run by contract) and
 * spans around every call.
 */
void RunFleetPass(platforms::FleetConfig config,
                  const std::vector<platforms::PlatformSpec>& specs,
                  int setups, bool traced, JsonOut& out, Checks& checks,
                  SpanRecorder& spans) {
  // Last probe time per platform. The probe runs on each platform's own
  // host thread and touches only that platform's slot.
  std::array<std::atomic<int64_t>, 3> last_probe_ns{};
  if (traced) {
    config.probe_period = SimTime::Millis(1);
    config.probe = [&last_probe_ns](size_t platform) {
      last_probe_ns.at(platform).store(NowNanos(), std::memory_order_relaxed);
    };
  }
  const int32_t root = traced ? spans.Begin("bench.pass", -1) : -1;
  std::unique_ptr<platforms::FleetSimulation> fleet;
  std::vector<double> setup_s, add_s, last_add_s(specs.size());
  for (int repeat = 0; repeat < setups; ++repeat) {
    fleet.reset();
    const int64_t setup_start = NowNanos();
    const int32_t setup_span =
        traced ? spans.Begin("platforms.setup", root) : -1;
    fleet = std::make_unique<platforms::FleetSimulation>(config);
    double add_total = 0;
    for (size_t i = 0; i < specs.size(); ++i) {
      const int64_t start = NowNanos();
      fleet->AddPlatform(specs[i]);
      const int64_t end = NowNanos();
      // Span ids on the fleet passes are platform indices.
      if (traced) spans.Add("platforms.add_platform", setup_span, start, end, i);
      last_add_s[i] = Seconds(start, end);
      add_total += last_add_s[i];
    }
    setup_s.push_back(Seconds(setup_start, NowNanos()));
    add_s.push_back(add_total);
    if (traced) spans.End(setup_span);
  }
  for (size_t i = 0; i < specs.size(); ++i) {
    out.Num("add_platform_s." + specs[i].name, last_add_s[i]);
  }

  const int32_t run_span = traced ? spans.Begin("platforms.run_all", root) : -1;
  const double cpu_start = CpuSeconds(RUSAGE_SELF);
  const int64_t run_start = NowNanos();
  fleet->RunAll();
  const int64_t run_end = NowNanos();
  const double run_cpu = CpuSeconds(RUSAGE_SELF) - cpu_start;
  if (traced) spans.End(run_span);

  const int32_t result_span =
      traced ? spans.Begin("profiling.results", root) : -1;
  const int64_t result_start = NowNanos();
  std::vector<platforms::PlatformResult> results;
  for (size_t i = 0; i < fleet->platform_count(); ++i) {
    results.push_back(fleet->Result(i));
  }
  const int64_t result_end = NowNanos();
  if (traced) spans.End(result_span);

  const double run_s = Seconds(run_start, run_end);
  out.Num("setup_s", Median(setup_s));
  out.Num("add_platform_s", Median(add_s));
  out.Num("run_all_s", run_s);
  out.Num("result_s", Seconds(result_start, result_end));

  // Simulated counts: identical on every run with the same seed.
  Digest digest;
  uint64_t completed = 0, sampled = 0, rpc_calls = 0, rpc_failed = 0,
           dropped = 0;
  double ram = 0, ssd = 0;
  for (size_t i = 0; i < results.size(); ++i) {
    const platforms::PlatformTotals totals = fleet->TotalsOf(i);
    DigestResult(results[i], totals, digest);
    checks.Expect(results[i].queries_completed == config.queries_per_platform,
                  results[i].name + " completed " +
                      std::to_string(results[i].queries_completed) + " of " +
                      std::to_string(config.queries_per_platform));
    completed += results[i].queries_completed;
    sampled += results[i].queries_sampled;
    rpc_calls += totals.completed_calls;
    rpc_failed += totals.failed_calls;
    dropped += fleet->TracerOf(i).dropped_spans();
    ram += fleet->DfsOf(i).TierServeFraction(storage::Tier::kRam);
    ssd += fleet->DfsOf(i).TierServeFraction(storage::Tier::kSsd);
  }
  checks.Expect(dropped == 0, "dropped spans: " + std::to_string(dropped));
  const platforms::ShardStats shard = fleet->ShardStatsOf(0);
  if (config.shards_per_platform > 0) {
    // Epoch and message counts are layout-invariant, so they join the
    // digest compared against the one-kernel reference.
    digest.Add(shard.epochs);
    digest.Add(shard.coalesced_epochs);
    digest.Add(shard.messages_posted);
    checks.Expect(shard.undelivered == 0,
                  "undelivered envelopes: " + std::to_string(shard.undelivered));
    checks.Expect(shard.late_deliveries == 0,
                  "late deliveries: " + std::to_string(shard.late_deliveries));
  }
  const double platform_count = static_cast<double>(results.size());
  out.Int("queries_expected", config.queries_per_platform * results.size());
  out.Int("queries_completed", completed);
  out.Num("sim_queries_per_s", static_cast<double>(completed) / run_s);
  out.Num("cpu_us_per_query",
          completed > 0 ? run_cpu * 1e6 / static_cast<double>(completed) : 0);
  out.Int("sim.events", fleet->total_events_executed());
  out.Int("net.rpc_calls", rpc_calls);
  out.Int("net.rpc_failed", rpc_failed);
  out.Num("storage.ram_serve_fraction", ram / platform_count);
  out.Num("storage.ssd_serve_fraction", ssd / platform_count);
  out.Int("profiling.traces_sampled", sampled);
  out.Int("profiling.dropped_spans", dropped);
  out.Int("sim.shard.epochs", shard.epochs);
  out.Int("sim.shard.coalesced_epochs", shard.coalesced_epochs);
  out.Int("sim.shard.messages_posted", shard.messages_posted);
  out.Int("sim.shard.exchange_allocs", shard.exchange_allocs);
  const platforms::FleetMemoryStats memory = fleet->MemoryStats();
  out.Num("profiling.tracer_mb", static_cast<double>(memory.tracer_bytes) / (1 << 20));
  out.Num("profiling.profiler_mb",
          static_cast<double>(memory.profiler_bytes) / (1 << 20));
  out.Num("sim.kernel_mb", static_cast<double>(memory.kernel_bytes) / (1 << 20));
  out.Str("digest", digest.Hex());

  if (traced) {
    // Platform p simulated from RunAll's start to its last probe; what is
    // left of RunAll after the last probe is the post-run finalize.
    int64_t last_probe = run_start;
    double slowest = 0;
    for (size_t i = 0; i < results.size(); ++i) {
      const int64_t probe = last_probe_ns[i].load(std::memory_order_relaxed);
      last_probe = std::max(last_probe, probe);
      slowest = std::max(slowest, Seconds(run_start, probe));
      spans.Add("platforms.run", run_span, run_start, probe, i,
                static_cast<uint32_t>(i + 1));
      out.Num("platforms.run_s." + results[i].name, Seconds(run_start, probe));
    }
    out.Num("platforms.straggler_share", slowest / run_s);
    out.Num("platforms.finalize_s", Seconds(last_probe, run_end));
    spans.End(root);
  }
}

void RunCharacterize(const Args& args, JsonOut& out, Checks& checks,
                     SpanRecorder& spans) {
  // The shipped FleetConfig: fused platforms, parallelism = 0.
  platforms::FleetConfig config;
  config.seed = args.seed;
  config.queries_per_platform = kCharacterizeQueries;
  RunFleetPass(config, DefaultSpecs(), kCharacterizeSetups,
               args.mode == "traced", out, checks, spans);
}

/**
 * fleet_scale_micro's BenchSpec: compute-dominated queries (2 ms and 1 ms
 * phases of 50 us activities) around one 64 KiB read from a small block
 * space, so worker kernels do the work and storage stays cheap.
 */
platforms::PlatformSpec ShardedScanSpec() {
  platforms::PlatformSpec spec;
  spec.name = "sharded_scan";
  spec.activity_mean_seconds = 50e-6;
  spec.worker_cores = 0;  // sharded engines require the infinite-cores model
  spec.block_space = 1 << 14;
  for (size_t c = 0; c < profiling::kNumFnCategories; ++c) {
    spec.compute_mix[c] = 1.0;
  }
  platforms::QueryTypeSpec query;
  query.name = "scan";
  query.phases.push_back(platforms::PhaseSpec::Compute(0.002));
  platforms::IoPhaseSpec io;
  io.num_blocks = 1;
  io.block_bytes = 64 << 10;
  query.phases.push_back(platforms::PhaseSpec::Io(io));
  query.phases.push_back(platforms::PhaseSpec::Compute(0.001));
  spec.query_types.push_back(std::move(query));
  return spec;
}

void RunShardedScan(const Args& args, JsonOut& out, Checks& checks,
                    SpanRecorder& spans) {
  platforms::FleetConfig config;
  config.seed = args.seed;
  config.queries_per_platform = kShardedQueries;
  config.arrival_rate_qps = 50000;
  config.trace_sample_one_in = 10;
  config.parallelism = 0;  // persistent shard runners
  // nproc - 1 worker kernels plus the storage kernel; the reference run
  // is the same job on one worker kernel.
  config.shards_per_platform =
      args.mode == "reference" ? 1 : std::max(1u, HostCores() - 1);
  config.shard_window = SimTime::Micros(500);
  out.Int("shards", config.shards_per_platform);
  RunFleetPass(config, {ShardedScanSpec()}, kShardedSetups,
               args.mode == "traced", out, checks, spans);
}

// --- Serve workloads ---------------------------------------------------------

serve::ServerOptions ServeOptions(uint64_t seed) {
  serve::ServerOptions options;
  options.port = 0;
  options.virtual_seconds_per_wall_second = kVirtualRate;
  options.front_door.fleet.seed = seed;
  return options;
}

/**
 * ResponseSink of the socketless replay: serializes every response into
 * a frame as the daemon does, and records one span per response carrying
 * the request's id under whichever call fired it (admit or pump).
 */
class ReplaySink : public serve::VirtualFrontDoor::ResponseSink {
 public:
  ReplaySink(SpanRecorder& spans, std::vector<serve::Response>& keep)
      : spans_(spans), keep_(keep) {}
  void OnResponse(uint64_t ticket, serve::Response& response) override {
    const int32_t span = spans_.Begin("serve.respond", parent, ticket);
    response.id = ticket;
    payload_.clear();
    serve::EncodeResponse(response, payload_);
    serve::EncodeFrame(payload_.data(), payload_.size(), frames_);
    if (frames_.size() > (1 << 20)) frames_.clear();
    spans_.End(span);
    ++responses;
    if (keep_.size() < keep_.capacity()) keep_.push_back(response);
  }

  int32_t parent = -1;
  uint64_t responses = 0;

 private:
  SpanRecorder& spans_;
  std::vector<serve::Response>& keep_;
  protowire::WireBuffer payload_;
  std::vector<uint8_t> frames_;
};

/**
 * Socketless replay of the socket run's arrival schedule (same rate, same
 * seed) through VirtualFrontDoor: per 1 ms tick, Pump to the tick's
 * virtual time, then admit the tick's arrivals as one SubmitTicketedBatch,
 * as the daemon does per wake. Spans time admission and pump per query;
 * a codec pass then round-trips the replay's own messages.
 */
void RunReplay(const Args& args, double rate, JsonOut& out, Checks& checks,
               SpanRecorder& spans) {
  const int32_t root = spans.Begin("bench.pass", -1);
  const int32_t setup = spans.Begin("platforms.setup", root);
  serve::VirtualFrontDoor door(ServeOptions(args.seed).front_door);
  door.AddDefaultPlatforms();
  spans.End(setup);
  std::vector<serve::Response> responses;
  responses.reserve(20000);
  ReplaySink sink(spans, responses);
  door.set_sink(&sink);
  door.Start();

  const std::vector<double> schedule = perfbench::ArrivalSchedule(
      rate, kWarmupSeconds + args.seconds, args.seed);
  std::vector<serve::Request> batch;
  std::vector<uint64_t> tickets;
  std::vector<serve::Request> requests;  // kept for the codec pass
  requests.reserve(20000);
  double admit_s = 0, pump_s = 0;
  size_t next = 0;
  for (double tick = 0; next < schedule.size(); tick += kReplayTick) {
    sink.parent = spans.Begin("serve.pump", root);
    const int64_t pump_start = NowNanos();
    door.Pump(SimTime::FromSeconds(tick * kVirtualRate));
    pump_s += Seconds(pump_start, NowNanos());
    spans.End(sink.parent);
    batch.clear();
    tickets.clear();
    for (; next < schedule.size() && schedule[next] < tick + kReplayTick;
         ++next) {
      serve::Request request;
      request.id = next;
      request.platform = 0;
      batch.push_back(request);
      tickets.push_back(next);
      if (requests.size() < requests.capacity()) requests.push_back(request);
    }
    if (batch.empty()) continue;
    sink.parent = spans.Begin("serve.admit", root, batch.front().id);
    const int64_t admit_start = NowNanos();
    door.SubmitTicketedBatch(batch.data(), tickets.data(), batch.size());
    admit_s += Seconds(admit_start, NowNanos());
    spans.End(sink.parent);
  }
  sink.parent = spans.Begin("serve.finish", root);
  door.Finish();
  spans.End(sink.parent);

  const serve::ServingCounters& counters = door.counters();
  const double queries = static_cast<double>(schedule.size());
  checks.Expect(counters.offered == schedule.size(),
                "replay offered != scheduled");
  checks.Expect(counters.offered == counters.admitted + counters.shed,
                "replay offered != admitted + shed");
  checks.Expect(counters.admitted == counters.completed &&
                    counters.completed == counters.responses,
                "replay admitted/completed/responses disagree");
  checks.Expect(sink.responses == schedule.size(),
                "replay: one response per query");
  out.Int("replay.queries", schedule.size());
  out.Int("replay.shed", counters.shed);
  out.Num("serve.admit_ns_per_query", admit_s * 1e9 / queries);
  out.Num("serve.pump_ns_per_query", pump_s * 1e9 / queries);

  // Codec round trip on the workload's own messages: request frame out,
  // decode; response frame back, decode. Checks every field survives.
  const int32_t codec = spans.Begin("serve.codec", root);
  protowire::WireBuffer payload;
  std::vector<uint8_t> wire;
  serve::FrameDecoder decoder;
  uint64_t round_trips = 0;
  bool intact = true;
  const int64_t codec_start = NowNanos();
  const size_t pairs = std::min(requests.size(), responses.size());
  while (pairs > 0 && Seconds(codec_start, NowNanos()) < 0.2) {
    for (size_t i = 0; i < pairs; ++i) {
      payload.clear();
      serve::EncodeRequest(requests[i], payload);
      wire.clear();
      serve::EncodeFrame(payload.data(), payload.size(), wire);
      decoder.Feed(wire.data(), wire.size());
      serve::FrameView view;
      serve::Request request;
      intact &= decoder.NextView(&view) == serve::FrameDecoder::Status::kFrame &&
                serve::DecodeRequest(view.data, view.size, &request) &&
                request.id == requests[i].id;
      payload.clear();
      serve::EncodeResponse(responses[i], payload);
      wire.clear();
      serve::EncodeFrame(payload.data(), payload.size(), wire);
      decoder.Feed(wire.data(), wire.size());
      serve::Response response;
      intact &= decoder.NextView(&view) == serve::FrameDecoder::Status::kFrame &&
                serve::DecodeResponse(view.data, view.size, &response) &&
                response.id == responses[i].id &&
                response.status == responses[i].status &&
                response.latency_nanos == responses[i].latency_nanos;
    }
    round_trips += pairs;
  }
  const double codec_s = Seconds(codec_start, NowNanos());
  spans.End(codec);
  spans.End(root);
  checks.Expect(intact && round_trips > 0, "codec round trip altered a message");
  out.Num("serve.codec_ns_per_request",
          round_trips > 0 ? codec_s * 1e9 / static_cast<double>(round_trips)
                          : 0);
}

/**
 * The daemon on loopback under the open-loop generator, on a thread of the
 * benchmark's own that reads its CPU time. `untraced` calls Run(); `traced`
 * runs the loop Run() runs — RunOnce(1) until stopped, then Shutdown() —
 * with a span around every iteration.
 */
void RunServe(const Args& args, double rate, JsonOut& out, Checks& checks,
              SpanRecorder& spans) {
  const bool traced = args.mode == "traced";
  const int32_t root = traced ? spans.Begin("bench.pass", -1) : -1;

  const int64_t setup_start = NowNanos();
  const int32_t setup_span = traced ? spans.Begin("serve.setup", root) : -1;
  auto daemon = std::make_unique<serve::ServeDaemon>(ServeOptions(args.seed));
  const std::vector<platforms::PlatformSpec> specs = DefaultSpecs();
  double add_total = 0;
  for (size_t i = 0; i < specs.size(); ++i) {
    const int64_t start = NowNanos();
    daemon->AddPlatform(specs[i]);
    const int64_t end = NowNanos();
    if (traced) spans.Add("platforms.add_platform", setup_span, start, end, i);
    add_total += Seconds(start, end);
    out.Num("add_platform_s." + specs[i].name, Seconds(start, end));
  }
  const bool listening = daemon->Listen();
  const int64_t setup_end = NowNanos();
  if (traced) spans.End(setup_span);
  out.Num("setup_s", Seconds(setup_start, setup_end));
  out.Num("add_platform_s", add_total);
  checks.Expect(listening, "daemon Listen() failed");
  if (!listening) return;

  std::atomic<bool> stop{false};
  SpanRecorder daemon_spans(traced ? 1 << 20 : 1);
  double busy_cpu = 0, busy_wall = 0;
  std::thread daemon_thread([&] {
    const double cpu_start = CpuSeconds(RUSAGE_THREAD);
    const int64_t wall_start = NowNanos();
    if (traced) {
      while (!stop.load(std::memory_order_acquire)) {
        const int32_t span = daemon_spans.Begin("serve.run_once", -1);
        daemon->RunOnce(1);
        daemon_spans.End(span);
      }
      const int32_t span = daemon_spans.Begin("serve.shutdown", -1);
      daemon->Shutdown();
      daemon_spans.End(span);
    } else {
      daemon->Run();
    }
    busy_cpu = CpuSeconds(RUSAGE_THREAD) - cpu_start;
    busy_wall = Seconds(wall_start, NowNanos());
  });

  perfbench::OpenLoopOptions load;
  load.port = daemon->port();
  load.rate_qps = rate;
  load.warmup_seconds = kWarmupSeconds;
  load.measure_seconds = args.seconds;
  load.seed = args.seed;
  const int32_t load_span = traced ? spans.Begin("loadgen.run", root) : -1;
  perfbench::OpenLoopReport report = perfbench::RunOpenLoop(load);
  if (traced) spans.End(load_span);
  stop.store(true, std::memory_order_release);
  daemon->Stop();
  daemon_thread.join();
  if (traced) {
    spans.Absorb(daemon_spans, root, /*thread=*/1);
    spans.End(root);
  }

  const serve::ServingCounters& counters = daemon->counters();
  const serve::DaemonStats& stats = daemon->stats();
  checks.Expect(report.connected, "load generator could not connect");
  checks.Expect(report.lost == 0 && report.total_lost == 0,
                "lost responses: " + std::to_string(report.total_lost));
  checks.Expect(report.ok + report.shed + report.errors == report.sent,
                "ok + shed + errors != sent");
  checks.Expect(report.errors == 0 && report.undecodable == 0,
                "error or undecodable responses");
  checks.Expect(report.dashboard_ok == report.dashboard_sent,
                "dashboard polls not all answered ok");
  checks.Expect(counters.admitted == counters.completed &&
                    counters.completed == counters.responses,
                "admitted/completed/responses disagree after Stop()");
  checks.Expect(counters.offered == report.total_sent - report.dashboard_sent,
                "daemon offered != queries sent");
  checks.Expect(stats.protocol_errors == 0,
                "protocol errors: " + std::to_string(stats.protocol_errors));

  const double sent = static_cast<double>(report.sent);
  out.Int("loadgen.sent", report.sent);
  out.Int("loadgen.total_sent", report.total_sent);
  out.Int("failed", report.errors + report.total_lost + report.undecodable +
                        (report.dashboard_sent - report.dashboard_ok));
  out.Num("sim_queries_per_s", static_cast<double>(report.ok) / args.seconds);
  out.Num("p50_ms", perfbench::Percentile(report.latency_ms, 0.50));
  out.Num("p99_ms", perfbench::Percentile(report.latency_ms, 0.99));
  out.Num("goodput_qps", static_cast<double>(report.good) / args.seconds);
  out.Num("error_rate",
          sent > 0 ? static_cast<double>(report.shed + report.errors +
                                         report.lost) / sent
                   : 0);
  out.Num("loadgen.late_ms.p99", perfbench::Percentile(report.late_ms, 0.99));
  out.Int("serve.offered", counters.offered);
  out.Int("serve.admitted", counters.admitted);
  out.Int("serve.shed", counters.shed);
  out.Int("serve.completed", counters.completed);
  out.Int("serve.protocol_errors", stats.protocol_errors);
  out.Num("serve.daemon_busy_share", busy_wall > 0 ? busy_cpu / busy_wall : 0);
  // Daemon CPU for the whole run (warmup, dashboard polls and shutdown
  // included) per query sent.
  const uint64_t queries = report.total_sent - report.dashboard_sent;
  out.Num("cpu_us_per_query",
          queries > 0 ? busy_cpu * 1e6 / static_cast<double>(queries) : 0);
  if (traced) {
    std::vector<double> run_once =
        perfbench::DurationsOf(spans.spans(), "serve.run_once");
    out.Num("serve.run_once_us.p50", perfbench::Percentile(run_once, 0.50) * 1e6);
    out.Num("serve.run_once_us.p99", perfbench::Percentile(run_once, 0.99) * 1e6);
  }
}

bool ParseArgs(int argc, char** argv, Args* args) {
  if (argc < 3) return false;
  args->workload = argv[1];
  args->mode = argv[2];
  for (int i = 3; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag == "--seed") {
      args->seed = std::strtoull(argv[i + 1], nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(argv[i + 1]);
    } else if (flag == "--out") {
      args->out_dir = argv[i + 1];
    } else {
      return false;
    }
  }
  const bool known_mode =
      args->mode == "untraced" || args->mode == "traced" ||
      args->mode == "replay" || args->mode == "reference";
  return known_mode && args->seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench <workload> <mode> --seed N --seconds S "
                 "--out DIR\n");
    return 2;
  }
  NowNanos();  // fix the span clock's origin
  JsonOut out;
  Checks checks;
  const bool traced = args.mode == "traced" || args.mode == "replay";
  SpanRecorder spans(traced ? 1 << 20 : 1);
  out.Str("workload", args.workload);
  out.Str("mode", args.mode);
  out.Int("seed", args.seed);
  AddEnvelope(out);
  if (args.workload == "characterize") {
    RunCharacterize(args, out, checks, spans);
  } else if (args.workload == "sharded_scan") {
    RunShardedScan(args, out, checks, spans);
  } else if (args.workload == "serve_light" ||
             args.workload == "serve_overload") {
    const double rate =
        args.workload == "serve_light" ? kLightQps : kOverloadQps;
    if (args.mode == "replay") {
      RunReplay(args, rate, out, checks, spans);
    } else {
      RunServe(args, rate, out, checks, spans);
    }
  } else {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  const rusage usage = Usage(RUSAGE_SELF);
  out.Num("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0);
  out.Num("cpu_user_s", ToSeconds(usage.ru_utime));
  out.Num("cpu_sys_s", ToSeconds(usage.ru_stime));
  if (traced) {
    for (const auto& [layer, seconds] : perfbench::SelfSecondsByLayer(spans.spans())) {
      out.Num("trace.self_s." + layer, seconds);
    }
    out.Int("trace.spans", spans.spans().size());
    // One file per workload and mode, overwritten by the next such pass.
    const std::string path = args.out_dir + "/spans_" + args.workload + "_" +
                             args.mode + ".json";
    checks.Expect(perfbench::WriteChromeTrace(path, spans.spans()),
                  "could not write " + path);
    out.Str("trace.file", path);
  }
  out.List("checks", checks.failures());
  std::printf("%s\n", out.Finish().c_str());
  return 0;
}
