// Benchmark driver: runs one workload through the scheduler daemon's
// newline-JSON front door (service::ServiceDaemon::handle_line) in one
// single-threaded process, checks the outcome, and prints one JSON result
// line. See README.md for the workloads, the metrics and how they relate.
//
//   perfbench_driver --workload synth48 --seed 1 --seconds 35 --trace 0
//                    --workdir DIR
//
// A round sends each of the run's independent traces through a fresh
// daemon (virtual clock, WAL, quick-reject on, no allocation deadline):
// every request, `drain`, `status` for every job. The first trace is then
// restarted from its WAL in a second daemon, which must reproduce the
// drain. Rounds repeat while another one fits in --seconds; every round
// must reproduce the first one exactly.
//
// --trace 0 prints the end-to-end metrics: schedule outcomes and work
// counts, which repeat exactly for a seed, plus set-up time and peak RSS.
// Set-up time is the trimmed mean of this process's cold set-up and of
// one more, made by a fresh copy of the driver (--setup-only 1, which
// prints its set-up time and stops), about every second between traces.
// --trace 1 first runs one untraced round, then traced rounds that time
// each call into the allocator, the daemon and the parser from outside;
// their decisions must equal the untraced round's. It prints the
// per-layer metrics.

#include <spawn.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "checks.hpp"
#include "core/jigsaw_allocator.hpp"
#include "counting_allocator.hpp"
#include "obs/metrics_registry.hpp"
#include "service/daemon.hpp"
#include "service/json.hpp"
#include "service/protocol.hpp"
#include "service/snapshot.hpp"
#include "sim/simulator.hpp"
#include "trace/synthetic.hpp"
#include "trace/trace.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using jigsaw::service::JsonValue;

double ratio(double a, double b) { return b > 0.0 ? a / b : 0.0; }

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Taken during static initialisation, as close to the process's start as
// the driver gets: the cold set-up is timed from here.
const Clock::time_point kProcessStart = Clock::now();

// -- workloads -------------------------------------------------------------

/// The Cab month a trace follows, with the limits trace/llnl_like.cpp's
/// cab_like() gives it.
struct CabMonth {
  const char* name;
  int max_size;
  double max_runtime;
};

constexpr CabMonth kSepCab{"Sep-Cab", 256, 57629.0};
constexpr CabMonth kAugCab{"Aug-Cab", 257, 86429.0};

struct Workload {
  const char* name;
  const CabMonth* cab;  ///< nullptr: Synth-48
  int radix;
  std::size_t jobs;   ///< per trace
  std::size_t parts;  ///< independent traces per run, pooled
  bool defrag;
  bool service_ops;  ///< metrics registry, snapshots, operator op mix
};

// One trace's work counts move by 20-50% between seeds (the defrag
// planner's the most), so a run pools several independent traces, sized
// so that a round takes about a third of the declared run length
// (BENCHMARK.json run_seconds): a --trace 1 run makes two rounds.
// Synth-48 backs the queue up only above ~1,000 jobs; at 2,000 jobs a
// trace now and then holds a 260-414-node job at the queue head for ~200
// passes, doubling its search steps (1,500-job traces spread far less).
// For cab-defrag, 40 traces of 500 jobs left the planner's work per job
// spreading 0.13-0.14 between seeds, 20 of 1,000 jobs 0.05-0.09, and 12 of
// 1,500 jobs 0.05 in the same time. service-ops keeps its traces shortest,
// so that per job it does the least placement search and the most request
// handling.
constexpr Workload kWorkloads[] = {
    {"synth48", nullptr, 48, 1500, 8, false, false},
    {"cab-defrag", &kSepCab, 18, 1500, 12, true, false},
    {"service-ops", &kAugCab, 18, 500, 100, false, true},
};

constexpr double kMigrationCost = 60.0;
constexpr int kMaxMoves = 3;

// service-ops traffic. These rates are assumptions, not measurements: no
// record of operator traffic against this daemon exists, and its own
// client (examples/jigsaw_client.cpp) sends one request per invocation or,
// with `watch`, one `status` per --interval (default 1 s) of wall time,
// which the virtual clock has no counterpart for. They set how much of
// service-ops is polls, cancels and scrapes, so every service.* and obs.*
// figure depends on them.
constexpr double kStatusPollChance = 0.5;  ///< a `status` after a submit
constexpr double kCancelChance = 0.03;     ///< a `cancel` after a submit
constexpr std::size_t kScrapeEvery = 200;  ///< requests per `metrics`
/// Accepted inputs per snapshot (jigsaw_daemon --snapshot-every; its
/// default, 0, never snapshots on its own). Also an assumption.
constexpr std::uint64_t kSnapshotEvery = 250;

/// Cab job sizes and runtimes as trace/llnl_like.cpp draws them (roughly
/// exponential sizes with extra mass on powers of two, lognormal
/// runtimes), from the benchmark's seed instead of the month's fixed one.
/// Arrivals are discarded, as the paper does for Thunder and Atlas. With
/// Sep-Cab's Poisson arrivals the defrag planner's work per job moved by
/// 0.3 of its median between seeds even pooled over 20 traces of 2,500
/// jobs. In traces as short as these the arrival window, sized from the
/// trace's heavy-tailed node-seconds, leaves the queue nearly empty
/// (Aug-Cab, 500 jobs: 10% utilization, 1.01 searches per job). Only a
/// saturated queue makes the work repeat within a few percent.
jigsaw::Trace cab_trace(const CabMonth& month, std::size_t jobs,
                        std::uint64_t seed) {
  jigsaw::Rng rng(seed);
  const auto draw_size = [&rng]() {
    if (rng.chance(0.45)) {
      int k = 0;
      while (rng.chance(0.55) && (1 << (k + 1)) <= 128) ++k;
      return 1 << k;
    }
    int size = 0;
    do {
      size = static_cast<int>(std::lround(rng.exponential(11.0)));
    } while (size < 1 || size > 128);
    return size;
  };
  // The rare 128+-node jobs (0.2%) block the queue head for long
  // stretches; drawn per job, their count alone moved the work counts by
  // about 30% between seeds, so exactly 0.2% of the jobs (at least one),
  // at seeded positions, are large.
  const std::size_t large = std::max<std::size_t>(1, jobs / 500);
  std::vector<bool> is_large(jobs, false);
  for (std::size_t placed = 0; placed < large;) {
    const std::size_t k = rng.below(jobs);
    if (!is_large[k]) {
      is_large[k] = true;
      ++placed;
    }
  }
  jigsaw::Trace trace;
  trace.name = month.name;
  trace.system_nodes = 1296;
  for (std::size_t k = 0; k < jobs; ++k) {
    const int size = is_large[k]
                         ? static_cast<int>(rng.between(128, month.max_size))
                         : draw_size();
    const double runtime = std::clamp(rng.lognormal(std::log(250.0), 2.0),
                                      1.0, month.max_runtime);
    trace.jobs.push_back(
        jigsaw::Job{static_cast<jigsaw::JobId>(k), 0.0, size, runtime, 1.0});
  }
  return trace;
}

jigsaw::Trace make_trace(const Workload& w, std::uint64_t seed) {
  if (w.cab != nullptr) return cab_trace(*w.cab, w.jobs, seed);
  jigsaw::SyntheticParams p;
  p.jobs = w.jobs;
  p.mean_size = 48.0;
  p.seed = seed;
  jigsaw::Trace t = jigsaw::synthetic_trace(p);
  t.name = "Synth-48";
  return t;
}

// -- requests ----------------------------------------------------------------

enum class Op { kSubmit, kStatus, kCancel, kMetrics, kDrain, kStats };
constexpr int kOpKinds = 6;

struct Request {
  Op op;
  std::string line;
};

struct Inputs {
  jigsaw::Trace trace;
  std::vector<Request> ingest;  ///< everything sent before `drain`
  std::vector<Request> post;    ///< `status` for every job, then `stats`
  std::vector<bool> cancelled;  ///< by job id
};

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string job_line(const char* op, jigsaw::JobId id) {
  return std::string("{\"op\":\"") + op + "\",\"job\":" + std::to_string(id) +
         "}";
}

Inputs make_inputs(const Workload& w, std::uint64_t seed) {
  Inputs in;
  std::uint64_t mix = seed;
  in.trace = make_trace(w, jigsaw::splitmix64(mix));
  const std::size_t n = in.trace.jobs.size();
  in.cancelled.assign(n, false);
  jigsaw::Rng rng(jigsaw::splitmix64(mix));
  std::vector<jigsaw::JobId> cancellable;
  for (const jigsaw::Job& j : in.trace.jobs) {
    in.ingest.push_back(
        Request{Op::kSubmit, "{\"op\":\"submit\",\"id\":" +
                                 std::to_string(j.id) + ",\"nodes\":" +
                                 std::to_string(j.nodes) + ",\"runtime\":" +
                                 num(j.runtime) + ",\"arrival\":" +
                                 num(j.arrival) + "}"});
    if (!w.service_ops) continue;
    cancellable.push_back(j.id);
    // The virtual clock stands still until `drain`, so every job is still
    // queued here: polls see "queued" and every cancel succeeds.
    if (rng.chance(kStatusPollChance)) {
      const auto k = static_cast<jigsaw::JobId>(
          rng.below(static_cast<std::uint64_t>(j.id) + 1));
      in.ingest.push_back(Request{Op::kStatus, job_line("status", k)});
    }
    if (rng.chance(kCancelChance)) {
      const std::size_t pick = rng.below(cancellable.size());
      const jigsaw::JobId victim = cancellable[pick];
      cancellable[pick] = cancellable.back();
      cancellable.pop_back();
      in.cancelled[static_cast<std::size_t>(victim)] = true;
      in.ingest.push_back(Request{Op::kCancel, job_line("cancel", victim)});
    }
    if (in.ingest.size() % kScrapeEvery == 0) {
      in.ingest.push_back(Request{Op::kMetrics, "{\"op\":\"metrics\"}"});
    }
  }
  for (std::size_t k = 0; k < n; ++k) {
    in.post.push_back(
        Request{Op::kStatus, job_line("status", static_cast<jigsaw::JobId>(k))});
  }
  in.post.push_back(Request{Op::kStats, "{\"op\":\"stats\"}"});
  return in;
}

// -- one daemon ------------------------------------------------------------

struct Bench {
  const Workload* w = nullptr;
  std::string workdir;
  std::unique_ptr<jigsaw::FatTree> topo;
  jigsaw::JigsawAllocator scheme;
  std::unique_ptr<CountingAllocator> alloc;
  /// One per trace; make_inputs() turns each into the trace's requests
  /// when the trace is run, so only one trace's inputs are held at a time.
  std::vector<std::uint64_t> seeds;
};

/// A daemon plus the records only it writes to.
struct DaemonRun {
  std::vector<GrantRecord> grants;
  std::unique_ptr<jigsaw::obs::MetricsRegistry> registry;
  std::unique_ptr<jigsaw::service::ServiceDaemon> daemon;
  std::string init_error;
};

std::unique_ptr<DaemonRun> open_daemon(Bench& b, std::size_t jobs,
                                       const std::string& wal, bool recover) {
  auto run = std::make_unique<DaemonRun>();
  jigsaw::SimConfig config;
  config.admission_quick_reject = true;  // the daemon's default
  config.alloc_deadline_us = 0;  // a firing deadline depends on host speed
  config.defrag.enabled = b.w->defrag;
  config.defrag.migration_cost = kMigrationCost;
  config.defrag.max_moves = kMaxMoves;
  if (b.w->service_ops) {
    run->registry = std::make_unique<jigsaw::obs::MetricsRegistry>();
    config.obs.metrics = run->registry.get();
  }
  std::vector<GrantRecord>* grants = &run->grants;
  config.grant_audit = [grants](double now, const jigsaw::Allocation& a,
                                const jigsaw::ClusterState&) {
    grants->push_back(GrantRecord{now, a});
  };
  jigsaw::service::DaemonOptions options;
  options.clock = jigsaw::service::ClockMode::kVirtual;
  options.wal_path = wal;
  options.recover = recover;
  options.max_queue = jobs + 1;  // no submit is refused
  options.snapshot_every = b.w->service_ops ? kSnapshotEvery : 0;
  run->daemon = std::make_unique<jigsaw::service::ServiceDaemon>(
      *b.topo, *b.alloc, config, options);
  if (!run->daemon->init(&run->init_error) && run->init_error.empty()) {
    run->init_error = "daemon init failed";
  }
  return run;
}

std::uint64_t file_size(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<std::uint64_t>(st.st_size)
                                        : 0;
}

bool reply_ok(const std::string& reply) {
  return reply.rfind("{\"ok\":true", 0) == 0;
}

// -- one round -------------------------------------------------------------

/// One trace through one daemon (and, when restarted, a second one).
struct Part {
  // Deterministic outcome.
  std::string metrics;  ///< the drain's, without the wall-clock fields
  RunRecords records;   ///< emptied by slim() once checked
  bool restarted = false;
  DrainView recovered;  ///< set when restarted
  std::uint64_t digest = 0;  ///< of every grant and job lifetime
  CallCounts drain_counts;  ///< allocator work during the live drain
  std::uint64_t sched_allocate_calls = 0;  ///< SimMetrics::allocate_calls
  std::uint64_t sched_passes = 0;
  double reported_sched_s_per_job = 0.0;  ///< wall clock, the program's own
  std::uint64_t migration_plans = 0;
  std::uint64_t migration_plans_failed = 0;
  std::uint64_t head_unblocks = 0;
  std::uint64_t head_unblock_failures = 0;
  std::uint64_t wal_bytes = 0;  ///< every WAL segment the live daemon wrote
  std::uint64_t snapshots = 0;
  std::uint64_t snapshot_bytes = 0;
  std::size_t recovery_records = 0;
  std::size_t recovery_tail_records = 0;
  std::size_t submitted = 0;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> problems;

  // Wall clock.
  double daemon_init_s = 0.0;
  std::size_t ingest_ops = 0;
  double ingest_s = 0.0;
  double drain_s = 0.0;
  double recover_s = 0.0;
  double total_s = 0.0;

  // Traced rounds only.
  std::vector<double> latency_s[kOpKinds];
  std::vector<double> parse_s;
  CallTimes drain_times;
};

std::string send(DaemonRun& d, const Request& r, Part* round, bool traced) {
  const Clock::time_point t0 = traced ? Clock::now() : Clock::time_point{};
  std::string reply = d.daemon->handle_line(r.line);
  if (traced) {
    round->latency_s[static_cast<int>(r.op)].push_back(seconds_since(t0));
  }
  ++round->attempted;
  if (!reply_ok(reply)) {
    ++round->failed;
    if (round->problems.size() < 5) {
      round->problems.push_back("refused: " + r.line + " -> " + reply);
    }
  }
  return reply;
}

/// The drain metrics minus the wall-clock fields, as one canonical string.
std::string deterministic_metrics(const JsonValue& metrics) {
  JsonValue::Object kept;
  for (const auto& [key, value] : metrics.as_object()) {
    if (key == "sched_wall_seconds" || key == "mean_sched_time_per_job") {
      continue;
    }
    kept.emplace_back(key, value);
  }
  return jigsaw::service::to_json(JsonValue(std::move(kept)));
}

bool parse_drain(const std::string& reply, JsonValue* metrics,
                 std::string* error) {
  JsonValue root;
  if (!jigsaw::service::parse_json(reply, &root, error)) return false;
  const JsonValue* m = root.find("metrics");
  if (m == nullptr || !m->is_object()) {
    *error = "drain reply without metrics: " + reply;
    return false;
  }
  *metrics = *m;
  return true;
}

double field(const JsonValue& obj, const char* key) {
  const JsonValue* v = obj.find(key);
  return v != nullptr ? v->as_double() : std::nan("");
}

void remove_round_files(const std::string& dir) {
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    std::filesystem::remove(entry.path(), ec);
  }
}

/// FNV-1a over every grant and every job's lifetime, bit for bit.
std::uint64_t digest(const RunRecords& r) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](const auto& v) {
    const auto* p = reinterpret_cast<const unsigned char*>(&v);
    for (std::size_t k = 0; k < sizeof v; ++k) {
      h = (h ^ p[k]) * 1099511628211ULL;
    }
  };
  for (const GrantRecord& g : r.grants) {
    mix(g.time);
    mix(g.alloc.job);
    mix(g.alloc.requested_nodes);
    mix(g.alloc.bandwidth);
    for (const jigsaw::NodeId n : g.alloc.nodes) mix(n);
    for (const jigsaw::LeafWire& w : g.alloc.leaf_wires) mix(w);
    for (const jigsaw::L2Wire& w : g.alloc.l2_wires) mix(w);
  }
  for (const JobRecord& j : r.jobs) {
    mix(j.completed);
    mix(j.start);
    mix(j.end);
  }
  return h;
}

/// One trace through one daemon; with `restart`, then through a second
/// daemon recovered from the first one's WAL.
Part run_part(Bench& b, const Inputs& in, bool traced, bool restart,
               std::unique_ptr<DaemonRun> prepared, double prepared_init_s) {
  Part round;
  round.submitted = in.trace.jobs.size();
  const Clock::time_point start = Clock::now();
  const std::string wal = b.workdir + "/bench.wal";
  std::unique_ptr<DaemonRun> live = std::move(prepared);
  round.daemon_init_s = prepared_init_s;
  if (live == nullptr) {
    remove_round_files(b.workdir);
    const Clock::time_point t0 = Clock::now();
    live = open_daemon(b, in.trace.jobs.size(), wal, false);
    round.daemon_init_s = seconds_since(t0);
  }
  if (!live->init_error.empty()) {
    round.problems.push_back("live daemon: " + live->init_error);
    return round;
  }
  b.alloc->set_timing(traced);
  b.alloc->take_times();

  // Ingest. A snapshot rotates the WAL into <wal>.prev; its size then is
  // the whole retired segment.
  Clock::time_point t0 = Clock::now();
  std::uint64_t snapshots = 0;
  for (const Request& r : in.ingest) {
    send(*live, r, &round, traced);
    if (live->daemon->snapshots_taken() != snapshots) {
      snapshots = live->daemon->snapshots_taken();
      round.wal_bytes += file_size(wal + ".prev");
      round.snapshot_bytes += file_size(jigsaw::service::snapshot_path(
          wal, live->daemon->snapshot_epoch()));
    }
  }
  round.ingest_s = seconds_since(t0);
  round.ingest_ops = in.ingest.size();
  round.snapshots = snapshots;

  // Drain.
  const CallCounts before = b.alloc->counts();
  b.alloc->take_times();
  t0 = Clock::now();
  const std::string drain_reply =
      send(*live, Request{Op::kDrain, "{\"op\":\"drain\"}"}, &round, traced);
  round.drain_s = seconds_since(t0);
  round.drain_counts = b.alloc->counts() - before;
  round.drain_times = b.alloc->take_times();
  JsonValue metrics;
  std::string error;
  if (!parse_drain(drain_reply, &metrics, &error)) {
    round.problems.push_back(error);
    return round;
  }
  round.metrics = deterministic_metrics(metrics);
  Reported& rep = round.records.reported;
  rep.steady_utilization = field(metrics, "steady_utilization");
  rep.steady_start = field(metrics, "steady_start");
  rep.steady_end = field(metrics, "steady_end");
  rep.makespan = field(metrics, "makespan");
  rep.mean_turnaround = field(metrics, "mean_turnaround_all");
  rep.p99_turnaround = field(metrics, "p99_turnaround");
  rep.completed = static_cast<std::uint64_t>(field(metrics, "completed"));
  rep.cancelled = static_cast<std::uint64_t>(field(metrics, "cancelled"));
  rep.migrations = static_cast<std::uint64_t>(field(metrics, "migrations"));
  rep.migration_node_seconds = field(metrics, "migration_node_seconds");
  round.sched_allocate_calls =
      static_cast<std::uint64_t>(field(metrics, "allocate_calls"));
  round.sched_passes = static_cast<std::uint64_t>(field(metrics, "sched_passes"));
  round.reported_sched_s_per_job = field(metrics, "mean_sched_time_per_job");
  round.migration_plans =
      static_cast<std::uint64_t>(field(metrics, "migration_plans"));
  round.migration_plans_failed =
      static_cast<std::uint64_t>(field(metrics, "migration_plans_failed"));
  round.head_unblocks = static_cast<std::uint64_t>(field(metrics, "head_unblocks"));
  round.head_unblock_failures =
      static_cast<std::uint64_t>(field(metrics, "head_unblock_failures"));
  round.records.migration_cost = kMigrationCost;

  // Read every job back.
  round.records.jobs.resize(in.trace.jobs.size());
  for (const Request& r : in.post) {
    const std::string reply = send(*live, r, &round, traced);
    if (r.op != Op::kStatus) continue;
    JsonValue root;
    if (!jigsaw::service::parse_json(reply, &root, &error)) {
      round.problems.push_back("status reply: " + error);
      return round;
    }
    const auto id = static_cast<jigsaw::JobId>(field(root, "job"));
    if (id < 0 || static_cast<std::size_t>(id) >= in.trace.jobs.size()) {
      round.problems.push_back("status for unknown job: " + reply);
      return round;
    }
    const jigsaw::Job& job = in.trace.jobs[static_cast<std::size_t>(id)];
    JobRecord& rec = round.records.jobs[static_cast<std::size_t>(id)];
    rec.id = id;
    rec.nodes = job.nodes;
    rec.arrival = job.arrival;
    rec.runtime = job.runtime;
    rec.cancelled = in.cancelled[static_cast<std::size_t>(id)];
    const JsonValue* phase = root.find("phase");
    rec.completed = phase != nullptr && phase->as_string() == "completed";
    rec.start = field(root, "start");
    rec.end = field(root, "end");
  }
  round.wal_bytes += file_size(wal);
  round.records.grants = std::move(live->grants);
  round.digest = digest(round.records);
  live.reset();  // the process "stops"; the WAL stays

  // Restart from the WAL (snapshot + tail where one exists).
  round.restarted = restart;
  if (restart) {
    t0 = Clock::now();
    std::unique_ptr<DaemonRun> again =
        open_daemon(b, in.trace.jobs.size(), wal, true);
    round.recover_s = seconds_since(t0);
    round.recovered.error = again->init_error;
    if (again->init_error.empty()) {
      round.recovered.audit_ok = again->daemon->recovery().audit_ok;
      if (b.w->service_ops && !again->daemon->recovery().used_snapshot) {
        round.problems.push_back("recovery did not start from a snapshot");
      }
      round.recovery_records = again->daemon->recovery().records;
      round.recovery_tail_records = again->daemon->recovery().tail_records;
      const std::string reply =
          send(*again, Request{Op::kDrain, "{\"op\":\"drain\"}"}, &round, traced);
      send(*again, Request{Op::kStats, "{\"op\":\"stats\"}"}, &round, traced);
      JsonValue recovered_metrics;
      if (parse_drain(reply, &recovered_metrics, &error)) {
        round.recovered.metrics = deterministic_metrics(recovered_metrics);
      } else {
        round.recovered.error = error;
      }
      round.recovered.grants = std::move(again->grants);
    }
  }
  b.alloc->set_timing(false);
  round.total_s = seconds_since(start);
  if (traced) {
    // The parser alone, on the same lines.
    round.parse_s.reserve(in.ingest.size());
    for (const Request& r : in.ingest) {
      jigsaw::service::Request req;
      jigsaw::service::ParseFailure failure;
      const Clock::time_point p0 = Clock::now();
      const bool ok = jigsaw::service::parse_request(r.line, &req, &failure);
      round.parse_s.push_back(seconds_since(p0));
      if (!ok) round.problems.push_back("parse_request refused " + r.line);
    }
  }
  remove_round_files(b.workdir);
  return round;
}

/// Every check of checks.hpp on one trace, plus their corruption
/// self-tests; returns the failures.
std::vector<std::string> verify(const Bench& b, const Part& r,
                                bool selftest) {
  std::vector<std::string> out = r.problems;
  DrainView live;  // only the restarted trace needs its grants copied
  live.metrics = r.metrics;
  if (r.restarted) live.grants = r.records.grants;
  const std::pair<const char*, std::string> verdicts[] = {
      {"isolation", check_isolation(*b.topo, r.records)},
      {"grant-size", check_grant_sizes(r.records)},
      {"conditions", check_conditions(*b.topo, r.records)},
      {"completion", check_completion(r.records)},
      {"conservation", check_conservation(r.records)},
      {"turnaround", check_turnaround(r.records)},
      {"utilization", check_utilization(*b.topo, r.records)},
      {"recovery", r.restarted ? check_same_drain(live, r.recovered)
                               : std::string()},
  };
  for (const auto& [name, verdict] : verdicts) {
    if (!verdict.empty()) out.push_back(std::string(name) + ": " + verdict);
  }
  if (!selftest) return out;
  for (const std::string& m : corruption_selftest(*b.topo, r.records, live)) {
    out.push_back("check did not trip on corrupted input: " + m);
  }
  return out;
}

/// Drops a checked trace's grants and job records, so that what a run
/// holds on to does not grow with its trace count: peak RSS then covers
/// one daemon, one trace's inputs and records, and a few figures per
/// trace. Later rounds compare against the digest.
void slim(Part& p) {
  p.records.grants = {};
  p.records.jobs = {};
  p.recovered.grants = {};
}

/// Every round of a run must make, trace by trace, identical decisions and
/// do identical work.
std::string same_outcome(const Part& a, const Part& b) {
  if (a.metrics != b.metrics) {
    return "drain metrics differ:\n  " + a.metrics + "\n  " + b.metrics;
  }
  if (a.digest != b.digest) return "grants or job lifetimes differ";
  if (!(a.drain_counts == b.drain_counts)) return "allocator work differs";
  if (a.wal_bytes != b.wal_bytes) return "WAL bytes differ";
  if (a.recovery_tail_records != b.recovery_tail_records) {
    return "recovery replay differs";
  }
  return {};
}

double median(const std::vector<double>& v) { return percentile(v, 50.0); }

/// One round's traces as one figure set: work, bytes and wall time add
/// up; utilization, p99 turnaround and makespan are means over the traces;
/// the recovery figures come from the trace that was restarted.
Part pool(const std::vector<Part>& parts) {
  Part out;
  Reported& rep = out.records.reported;
  double turnaround_sum = 0.0;
  double sched_s_sum = 0.0;
  const auto n = static_cast<double>(parts.size());
  for (const Part& p : parts) {
    const Reported& pr = p.records.reported;
    rep.steady_utilization += pr.steady_utilization / n;
    rep.p99_turnaround += pr.p99_turnaround / n;
    rep.makespan += pr.makespan / n;
    turnaround_sum += pr.mean_turnaround * static_cast<double>(pr.completed);
    sched_s_sum += p.reported_sched_s_per_job * static_cast<double>(pr.completed);
    rep.completed += pr.completed;
    rep.cancelled += pr.cancelled;
    rep.migrations += pr.migrations;
    rep.migration_node_seconds += pr.migration_node_seconds;
    out.drain_counts = out.drain_counts + p.drain_counts;
    out.sched_allocate_calls += p.sched_allocate_calls;
    out.sched_passes += p.sched_passes;
    out.migration_plans += p.migration_plans;
    out.migration_plans_failed += p.migration_plans_failed;
    out.head_unblocks += p.head_unblocks;
    out.head_unblock_failures += p.head_unblock_failures;
    out.wal_bytes += p.wal_bytes;
    out.snapshots += p.snapshots;
    out.snapshot_bytes += p.snapshot_bytes;
    out.recovery_records = std::max(out.recovery_records, p.recovery_records);
    out.recovery_tail_records =
        std::max(out.recovery_tail_records, p.recovery_tail_records);
    out.submitted += p.submitted;
    out.attempted += p.attempted;
    out.failed += p.failed;
    out.daemon_init_s += p.daemon_init_s;
    out.ingest_ops += p.ingest_ops;
    out.ingest_s += p.ingest_s;
    out.drain_s += p.drain_s;
    out.recover_s += p.recover_s;
    out.total_s += p.total_s;
    for (int k = 0; k < kOpKinds; ++k) {
      out.latency_s[k].insert(out.latency_s[k].end(), p.latency_s[k].begin(),
                              p.latency_s[k].end());
    }
    out.parse_s.insert(out.parse_s.end(), p.parse_s.begin(), p.parse_s.end());
    out.drain_times.allocate_s.insert(out.drain_times.allocate_s.end(),
                                      p.drain_times.allocate_s.begin(),
                                      p.drain_times.allocate_s.end());
    out.drain_times.quick_reject_s += p.drain_times.quick_reject_s;
    out.drain_times.diagnose_s += p.drain_times.diagnose_s;
    out.drain_times.size_unplaceable_s += p.drain_times.size_unplaceable_s;
  }
  rep.mean_turnaround = ratio(turnaround_sum, static_cast<double>(rep.completed));
  out.reported_sched_s_per_job =
      ratio(sched_s_sum, static_cast<double>(rep.completed));
  return out;
}

// -- statistics and output -----------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string result_json(bool correct, std::size_t attempted,
                        std::size_t failed, const std::vector<Metric>& ms) {
  std::string out = "{\"correct\":";
  out += correct ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(attempted);
  out += ",\"failed\":" + std::to_string(failed);
  out += ",\"metrics\":{";
  for (std::size_t k = 0; k < ms.size(); ++k) {
    if (k > 0) out += ',';
    const double v = std::isfinite(ms[k].value) ? ms[k].value : 0.0;
    out += "\"" + ms[k].name + "\":{\"value\":" + num(v) + ",\"unit\":\"" +
           ms[k].unit + "\"}";
  }
  out += "}}";
  return out;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::vector<Metric> end_to_end(const Part& r, double setup_s, double rss_mb) {
  const double jobs = static_cast<double>(r.records.reported.completed);
  const double submitted = static_cast<double>(r.submitted);
  const Reported& rep = r.records.reported;
  return {
      {"utilization_pct", 100.0 * rep.steady_utilization, "%"},
      {"mean_turnaround_s", rep.mean_turnaround, "s"},
      {"p99_turnaround_s", rep.p99_turnaround, "s"},
      {"makespan_s", rep.makespan, "s"},
      {"placement_searches_per_job",
       ratio(static_cast<double>(r.drain_counts.allocate_calls), jobs),
       "count"},
      {"search_steps_per_job",
       ratio(static_cast<double>(r.drain_counts.steps), jobs), "count"},
      {"probes_per_job", ratio(static_cast<double>(r.drain_counts.probes), jobs),
       "count"},
      {"wal_bytes_per_job", ratio(static_cast<double>(r.wal_bytes), submitted),
       "B"},
      {"recovery_replay_records",
       static_cast<double>(r.recovery_tail_records), "count"},
      {"peak_rss_mb", rss_mb, "MB"},
      {"setup_s", setup_s, "s"},
  };
}

/// Median over traced rounds of a per-round figure.
template <typename F>
double over_rounds(const std::vector<Part>& rounds, F f) {
  std::vector<double> v;
  for (const Part& r : rounds) v.push_back(f(r));
  return median(v);
}

std::vector<Metric> per_layer(const std::vector<Part>& traced,
                              const std::vector<Part>& untraced,
                              double trace_s, double daemon_init_s) {
  const Part& ref = untraced.front();
  const double jobs = static_cast<double>(ref.records.reported.completed);
  const CallCounts& c = ref.drain_counts;
  const auto us = [](double s) { return 1e6 * s; };
  const auto lat = [&](Op op, double q) {
    return over_rounds(traced, [&](const Part& r) {
      return us(percentile(r.latency_s[static_cast<int>(op)], q));
    });
  };
  const double plans =
      static_cast<double>(ref.head_unblocks + ref.head_unblock_failures);
  std::vector<Metric> m = {
      // core: the placement layer, timed around each call from outside.
      {"core.allocate_s",
       over_rounds(traced,
                   [](const Part& r) {
                     double s = 0.0;
                     for (const double x : r.drain_times.allocate_s) s += x;
                     return s;
                   }),
       "s"},
      {"core.allocate_calls", static_cast<double>(c.allocate_calls), "count"},
      {"core.allocate_ok_ratio",
       ratio(static_cast<double>(c.allocate_ok),
             static_cast<double>(c.allocate_calls)),
       "ratio"},
      {"core.allocate_p50_us",
       over_rounds(traced,
                   [&](const Part& r) {
                     return us(percentile(r.drain_times.allocate_s, 50.0));
                   }),
       "us"},
      {"core.allocate_p99_us",
       over_rounds(traced,
                   [&](const Part& r) {
                     return us(percentile(r.drain_times.allocate_s, 99.0));
                   }),
       "us"},
      {"core.steps_per_call",
       ratio(static_cast<double>(c.steps), static_cast<double>(c.allocate_calls)),
       "count"},
      {"core.probes_per_call",
       ratio(static_cast<double>(c.probes),
             static_cast<double>(c.allocate_calls)),
       "count"},
      {"core.quick_reject_calls", static_cast<double>(c.quick_reject_calls),
       "count"},
      {"core.quick_reject_s",
       over_rounds(traced,
                   [](const Part& r) { return r.drain_times.quick_reject_s; }),
       "s"},
      {"core.diagnose_calls", static_cast<double>(c.diagnose_calls), "count"},
      {"core.diagnose_s",
       over_rounds(traced,
                   [](const Part& r) { return r.drain_times.diagnose_s; }),
       "s"},
      // sim: the event loop and EASY passes around the placement layer.
      {"sim.self_s",
       over_rounds(traced,
                   [](const Part& r) {
                     return r.drain_s - r.drain_times.total_s();
                   }),
       "s"},
      {"sim.passes_per_job", ratio(static_cast<double>(ref.sched_passes), jobs),
       "count"},
      {"sim.quick_rejects_per_job",
       ratio(static_cast<double>(c.quick_rejects), jobs), "count"},
      {"sim.reported_sched_us_per_job",
       over_rounds(traced,
                   [&](const Part& r) {
                     return us(r.reported_sched_s_per_job);
                   }),
       "us"},
      // defrag: searches the planner made beyond the scheduler's own.
      {"defrag.searches",
       static_cast<double>(c.allocate_calls - ref.sched_allocate_calls),
       "count"},
      {"defrag.plans", static_cast<double>(ref.migration_plans), "count"},
      {"defrag.plans_failed", static_cast<double>(ref.migration_plans_failed),
       "count"},
      {"defrag.migrations",
       static_cast<double>(ref.records.reported.migrations), "count"},
      {"defrag.migration_node_s", ref.records.reported.migration_node_seconds,
       "s"},
      {"defrag.unblock_ratio",
       ratio(static_cast<double>(ref.head_unblocks), plans), "ratio"},
      // service: the daemon's request handling, WAL and recovery.
      {"service.submit_p50_us", lat(Op::kSubmit, 50.0), "us"},
      {"service.submit_p99_us", lat(Op::kSubmit, 99.0), "us"},
      {"service.status_p50_us", lat(Op::kStatus, 50.0), "us"},
      {"service.cancel_p50_us", lat(Op::kCancel, 50.0), "us"},
      {"service.parse_p50_us",
       over_rounds(traced,
                   [&](const Part& r) { return us(percentile(r.parse_s, 50.0)); }),
       "us"},
      {"service.ingest_ops_per_s",
       over_rounds(traced,
                   [](const Part& r) {
                     return ratio(static_cast<double>(r.ingest_ops), r.ingest_s);
                   }),
       "1/s"},
      {"service.drain_s",
       over_rounds(traced, [](const Part& r) { return r.drain_s; }), "s"},
      {"service.drain_jobs_per_s",
       over_rounds(traced,
                   [&](const Part& r) { return ratio(jobs, r.drain_s); }),
       "1/s"},
      {"service.recover_s",
       over_rounds(traced, [](const Part& r) { return r.recover_s; }), "s"},
      {"service.wal_records", static_cast<double>(ref.recovery_records),
       "count"},
      {"service.snapshots", static_cast<double>(ref.snapshots), "count"},
      {"service.snapshot_bytes", static_cast<double>(ref.snapshot_bytes), "B"},
      // obs: the metrics scrape.
      {"obs.scrape_p50_us", lat(Op::kMetrics, 50.0), "us"},
      // set-up and whole rounds; traced minus untraced is the tracing cost.
      {"setup.trace_s", trace_s, "s"},
      {"setup.daemon_init_s", daemon_init_s, "s"},
      {"run.untraced_wall_s",
       over_rounds(untraced, [](const Part& r) { return r.total_s; }), "s"},
      {"run.traced_wall_s",
       over_rounds(traced, [](const Part& r) { return r.total_s; }), "s"},
  };
  return m;
}

struct Args {
  std::string self;  ///< argv[0], to start fresh copies of the driver
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;
  bool setup_only = false;  ///< print the cold set-up time and stop
};

bool parse_args(int argc, char** argv, Args* a, std::string* error) {
  bool have_workload = false;
  bool have_workdir = false;
  a->self = argv[0];
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) {
      *error = "missing value for " + key;
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      a->workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      a->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "--seconds") {
      a->seconds = std::strtod(value.c_str(), &end);
    } else if (key == "--trace") {
      a->trace = value == "1";
      if (value != "0" && value != "1") {
        *error = "--trace takes 0 or 1";
        return false;
      }
    } else if (key == "--workdir") {
      a->workdir = value;
      have_workdir = true;
    } else if (key == "--setup-only") {
      if (value != "0" && value != "1") {
        *error = "--setup-only takes 0 or 1";
        return false;
      }
      a->setup_only = value == "1";
    } else {
      *error = "unknown flag " + key;
      return false;
    }
    if (end != nullptr && *end != '\0') {
      *error = "bad number for " + key + ": " + value;
      return false;
    }
  }
  if (!have_workload || !have_workdir) {
    *error = "--workload and --workdir are required";
    return false;
  }
  if (!(a->seconds > 0.0)) {
    *error = "--seconds must be > 0";
    return false;
  }
  return true;
}

/// Seconds between the cold set-ups an untraced run adds (see run()).
constexpr double kColdSetupEvery = 1.0;

/// One more cold set-up, made by a fresh copy of the driver started with
/// --setup-only in a directory of its own: the set-up time it reports.
double cold_setup_s(const Args& args) {
  const std::string dir = args.workdir + "/cold";
  std::vector<std::string> words = {
      args.self, "--workload", args.workload,   "--seed",
      std::to_string(args.seed), "--seconds", "1", "--trace", "0",
      "--workdir", dir, "--setup-only", "1"};
  std::vector<char*> child_argv;
  for (std::string& w : words) child_argv.push_back(w.data());
  child_argv.push_back(nullptr);
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe() failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  pid_t pid = 0;
  const int rc = posix_spawn(&pid, args.self.c_str(), &actions, nullptr,
                             child_argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  std::string out;
  int status = 0;
  if (rc == 0) {
    char buf[256];
    ssize_t n = 0;
    while ((n = read(fds[0], buf, sizeof buf)) > 0) {
      out.append(buf, static_cast<std::size_t>(n));
    }
    waitpid(pid, &status, 0);
  }
  close(fds[0]);
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  if (rc != 0 || !WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
      out.empty()) {
    throw std::runtime_error("a cold set-up in a fresh driver failed");
  }
  return std::stod(out);
}

int run(int argc, char** argv) {
  Args args;
  std::string error;
  if (!parse_args(argc, argv, &args, &error)) {
    std::cerr << "perfbench_driver: " << error << "\n";
    return 2;
  }
  Bench b;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) b.w = &w;
  }
  if (b.w == nullptr) {
    std::cerr << "perfbench_driver: unknown workload " << args.workload << "\n";
    return 2;
  }
  b.workdir = args.workdir;
  std::filesystem::create_directories(b.workdir);
  remove_round_files(b.workdir);

  // Set-up: topology, allocator, the first trace's inputs, the first
  // daemon. It is timed from the process's start, so it is a cold one.
  std::uint64_t mix = args.seed;
  for (std::size_t k = 0; k < b.w->parts; ++k) {
    b.seeds.push_back(jigsaw::splitmix64(mix));
  }
  Clock::time_point t0 = Clock::now();
  b.topo = std::make_unique<jigsaw::FatTree>(
      jigsaw::FatTree::from_radix(b.w->radix));
  b.alloc = std::make_unique<CountingAllocator>(b.scheme);
  Inputs first_inputs = make_inputs(*b.w, b.seeds.front());
  const double trace_s = seconds_since(t0);
  t0 = Clock::now();
  std::unique_ptr<DaemonRun> first = open_daemon(
      b, first_inputs.trace.jobs.size(), b.workdir + "/bench.wal", false);
  const double daemon_init_s = seconds_since(t0);
  const double setup_s = seconds_since(kProcessStart);
  if (args.setup_only) {
    std::printf("%.9g\n", setup_s);
    return 0;
  }

  // One cold set-up lasts a few ms, and this kind of host runs the same
  // code at one of two speeds for about a second at a time (README.md),
  // so one sample per run lands on either. An untraced run therefore adds
  // a cold set-up in a fresh copy of the driver about once a second,
  // between traces, and reports the trimmed mean of them all.
  std::vector<double> setups{setup_s};
  Clock::time_point last_cold = Clock::now();
  const auto maybe_cold_setup = [&]() {
    if (args.trace || seconds_since(last_cold) < kColdSetupEvery) return;
    setups.push_back(cold_setup_s(args));
    last_cold = Clock::now();
  };

  // The first round is untraced, fully checked, and the reference every
  // later round must reproduce. Only its first trace is restarted from
  // the WAL, and only that one is also fed to the corruption self-tests.
  const Clock::time_point measure = Clock::now();
  std::vector<std::string> failures;
  std::vector<Part> reference;
  for (std::size_t k = 0; k < b.seeds.size(); ++k) {
    maybe_cold_setup();
    const Inputs in =
        k == 0 ? std::move(first_inputs) : make_inputs(*b.w, b.seeds[k]);
    Part p = run_part(b, in, false, k == 0, k == 0 ? std::move(first) : nullptr,
                      k == 0 ? daemon_init_s : 0.0);
    for (const std::string& f : verify(b, p, k == 0)) {
      failures.push_back("trace " + std::to_string(k) + ": " + f);
    }
    slim(p);
    reference.push_back(std::move(p));
  }
  const double round_s = seconds_since(measure);
  // Later rounds only repeat the first, and how many fit depends on the
  // host's speed, so peak RSS is read here.
  const double rss_mb = peak_rss_mb();
  // A --trace 1 run always makes one traced round after the reference
  // round; the workloads are sized so that the two fit in the declared run
  // length (README.md). Further rounds run only while one more fits.
  std::vector<Part> untraced{pool(reference)};
  std::vector<Part> traced;
  while (failures.empty() &&
         ((args.trace && traced.empty()) ||
          seconds_since(measure) + round_s <= args.seconds)) {
    std::vector<Part> parts;
    for (std::size_t k = 0; k < b.seeds.size(); ++k) {
      maybe_cold_setup();
      Part p = run_part(b, make_inputs(*b.w, b.seeds[k]), args.trace, k == 0,
                        nullptr, 0.0);
      const std::string diff = p.problems.empty()
                                   ? same_outcome(reference[k], p)
                                   : p.problems.front();
      if (!diff.empty()) {
        failures.push_back("trace " + std::to_string(k) +
                           (args.trace ? ": traced round differs from the "
                                         "untraced one: "
                                       : ": round differs from the first: ") +
                           diff);
      }
      slim(p);
      parts.push_back(std::move(p));
    }
    (args.trace ? traced : untraced).push_back(pool(parts));
  }
  for (const std::string& f : failures) std::cerr << "FAIL " << f << "\n";

  std::size_t attempted = 0;
  std::size_t failed = 0;
  for (const auto* set : {&untraced, &traced}) {
    for (const Part& r : *set) {
      attempted += r.attempted;
      failed += r.failed;
    }
  }
  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = end_to_end(untraced.front(), trimmed_mean(setups), rss_mb);
  } else if (!traced.empty()) {
    metrics = per_layer(traced, untraced, trace_s, daemon_init_s);
  } else {
    failures.push_back("no traced round ran");
  }
  std::cout << result_json(failures.empty(), attempted, failed, metrics)
            << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << "\n";
    return 1;
  }
}
