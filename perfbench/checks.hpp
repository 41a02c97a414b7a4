// Correctness checks the benchmark applies to every run, computed from
// its own records of what the daemon did — grants seen through
// SimConfig::grant_audit, per-job lifecycle times read back with the
// `status` op, and the metrics the `drain` reply reports — rather than
// from the program's internal accounting.
//
// Every check returns an empty string when it passes and a description
// of the first violation otherwise. corruption_selftest() feeds each
// check a deliberately damaged copy of its input and reports every check
// that failed to notice.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "topology/allocation.hpp"
#include "topology/fat_tree.hpp"

namespace perfbench {

/// One placement handed out by the scheduler or by a defrag migration.
struct GrantRecord {
  double time = 0.0;
  jigsaw::Allocation alloc;
};

/// One submitted job as the benchmark sent it and `status` reported it.
struct JobRecord {
  jigsaw::JobId id = jigsaw::kNoJob;
  int nodes = 0;
  double arrival = 0.0;
  double runtime = 0.0;
  bool cancelled = false;  ///< the benchmark cancelled it while queued
  bool completed = false;  ///< `status` says "completed"
  double start = 0.0;
  double end = 0.0;
};

/// The drain reply's schedule outcome.
struct Reported {
  double steady_utilization = 0.0;  ///< fraction, not percent
  double steady_start = 0.0;
  double steady_end = 0.0;
  double makespan = 0.0;
  double mean_turnaround = 0.0;
  double p99_turnaround = 0.0;
  std::uint64_t completed = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t migrations = 0;
  double migration_node_seconds = 0.0;
};

struct RunRecords {
  std::vector<GrantRecord> grants;  ///< in grant order
  std::vector<JobRecord> jobs;      ///< indexed by job id
  Reported reported;
  double migration_cost = 0.0;  ///< simulated seconds per migration
};

/// What a daemon's drain produced, for comparing two daemons (a live one
/// and one recovered from its WAL, or an untraced and a traced pass).
struct DrainView {
  std::string metrics;  ///< drain metrics without the wall-clock fields
  std::vector<GrantRecord> grants;
  bool audit_ok = true;
  std::string error;
};

/// Linear-interpolation percentile of unsorted samples, p in [0, 100]
/// (0 for no samples).
double percentile(std::vector<double> v, double p);
/// Mean of the samples left after dropping the lowest and the highest
/// tenth (0 for no samples).
double trimmed_mean(std::vector<double> v);

/// No node, leaf wire or L2 wire held by two placements at once. A
/// placement lasts from its grant to the job's next grant (migration) or
/// end; at equal times placements end before new ones start.
std::string check_isolation(const jigsaw::FatTree& topo, const RunRecords& r);
/// Every grant names a submitted, uncancelled job and holds exactly the
/// requested number of nodes (Jigsaw never rounds).
std::string check_grant_sizes(const RunRecords& r);
/// Every grant satisfies the §3.2 full-bandwidth and high-utilization
/// conditions (core/conditions).
std::string check_conditions(const jigsaw::FatTree& topo, const RunRecords& r);
/// Every uncancelled job completed once, with arrival <= start < end and
/// as many grants as migrations + 1; cancelled jobs were never granted.
std::string check_completion(const RunRecords& r);
/// sum nodes*(end-start) == sum nodes*runtime + migration node-seconds.
std::string check_conservation(const RunRecords& r);
/// Mean and p99 turnaround and makespan recomputed from the records
/// match the reported figures.
std::string check_turnaround(const RunRecords& r);
/// The steady window and the utilization integrated over its backlogged
/// stretches, recomputed from the records, match the reported figures;
/// utilization never exceeds 100%.
std::string check_utilization(const jigsaw::FatTree& topo, const RunRecords& r);
/// The second daemon reproduced the first: audit clean, identical
/// deterministic metrics, and its grants equal the tail of the first's.
std::string check_same_drain(const DrainView& first, const DrainView& second);

/// Runs every check on a corrupted copy of `r` / `first` and returns the
/// names of the checks that did NOT trip (empty: all self-tests passed).
std::vector<std::string> corruption_selftest(const jigsaw::FatTree& topo,
                                             const RunRecords& r,
                                             const DrainView& first);

}  // namespace perfbench
