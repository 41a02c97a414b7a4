#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <unordered_map>

#include "core/conditions.hpp"

namespace perfbench {

namespace {

using jigsaw::Allocation;
using jigsaw::FatTree;
using jigsaw::JobId;

constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

/// Relative agreement for figures the program and the benchmark sum in
/// different orders.
bool close(double a, double b) {
  return std::fabs(a - b) <=
         1e-9 * std::max({1.0, std::fabs(a), std::fabs(b)});
}

std::string fmt(const char* format, double a, double b = 0.0, double c = 0.0) {
  char buf[256];
  std::snprintf(buf, sizeof buf, format, a, b, c);
  return buf;
}

const JobRecord* find_job(const RunRecords& r, JobId id) {
  if (id < 0 || static_cast<std::size_t>(id) >= r.jobs.size()) return nullptr;
  const JobRecord& j = r.jobs[static_cast<std::size_t>(id)];
  return j.id == id ? &j : nullptr;
}

bool same_grant(const GrantRecord& x, const GrantRecord& y) {
  return x.time == y.time && x.alloc.job == y.alloc.job &&
         x.alloc.requested_nodes == y.alloc.requested_nodes &&
         x.alloc.nodes == y.alloc.nodes &&
         x.alloc.leaf_wires == y.alloc.leaf_wires &&
         x.alloc.l2_wires == y.alloc.l2_wires &&
         x.alloc.bandwidth == y.alloc.bandwidth;
}

/// A grant's lifetime: until the job's next grant (a migration) or end.
struct Placement {
  std::size_t grant = 0;
  double begin = 0.0;
  double end = 0.0;
};

std::vector<Placement> placements(const RunRecords& r) {
  std::vector<std::size_t> next(r.grants.size(), kNone);
  std::unordered_map<JobId, std::size_t> later;
  for (std::size_t i = r.grants.size(); i-- > 0;) {
    const JobId job = r.grants[i].alloc.job;
    const auto it = later.find(job);
    if (it != later.end()) next[i] = it->second;
    later[job] = i;
  }
  std::vector<Placement> out;
  out.reserve(r.grants.size());
  for (std::size_t i = 0; i < r.grants.size(); ++i) {
    double end = std::numeric_limits<double>::infinity();
    if (next[i] != kNone) {
      end = r.grants[next[i]].time;
    } else if (const JobRecord* j = find_job(r, r.grants[i].alloc.job);
               j != nullptr && j->completed) {
      end = j->end;
    }
    out.push_back(Placement{i, r.grants[i].time, end});
  }
  return out;
}

/// Exclusive owners of every node, leaf wire and L2 wire.
class Owners {
 public:
  explicit Owners(const FatTree& topo)
      : topo_(topo),
        node_(static_cast<std::size_t>(topo.total_nodes()), jigsaw::kNoJob),
        leaf_wire_(static_cast<std::size_t>(topo.total_leaves()) *
                       static_cast<std::size_t>(topo.l2_per_tree()),
                   jigsaw::kNoJob),
        l2_wire_(static_cast<std::size_t>(topo.total_l2()) *
                     static_cast<std::size_t>(topo.spines_per_group()),
                 jigsaw::kNoJob) {}

  /// Claim (take) or give back every resource of `a`; "" when consistent.
  std::string update(const Allocation& a, double t, bool take) {
    for (const jigsaw::NodeId n : a.nodes) {
      if (n < 0 || n >= topo_.total_nodes()) return "node id out of range";
      std::string e = claim(node_[static_cast<std::size_t>(n)], a.job, t,
                            take, "node");
      if (!e.empty()) return e;
    }
    for (const jigsaw::LeafWire& w : a.leaf_wires) {
      if (w.leaf < 0 || w.leaf >= topo_.total_leaves() || w.l2_index < 0 ||
          w.l2_index >= topo_.l2_per_tree()) {
        return "leaf wire out of range";
      }
      const std::size_t k =
          static_cast<std::size_t>(w.leaf) *
              static_cast<std::size_t>(topo_.l2_per_tree()) +
          static_cast<std::size_t>(w.l2_index);
      std::string e = claim(leaf_wire_[k], a.job, t, take, "leaf wire");
      if (!e.empty()) return e;
    }
    for (const jigsaw::L2Wire& w : a.l2_wires) {
      if (w.tree < 0 || w.tree >= topo_.trees() || w.l2_index < 0 ||
          w.l2_index >= topo_.l2_per_tree() || w.spine_index < 0 ||
          w.spine_index >= topo_.spines_per_group()) {
        return "L2 wire out of range";
      }
      const std::size_t k =
          (static_cast<std::size_t>(w.tree) *
               static_cast<std::size_t>(topo_.l2_per_tree()) +
           static_cast<std::size_t>(w.l2_index)) *
              static_cast<std::size_t>(topo_.spines_per_group()) +
          static_cast<std::size_t>(w.spine_index);
      std::string e = claim(l2_wire_[k], a.job, t, take, "L2 wire");
      if (!e.empty()) return e;
    }
    return {};
  }

 private:
  static std::string claim(JobId& owner, JobId job, double t, bool take,
                           const char* what) {
    if (!take) {
      if (owner == job) owner = jigsaw::kNoJob;
      return {};
    }
    if (owner != jigsaw::kNoJob) {
      return std::string(what) + " held by jobs " + std::to_string(owner) +
             " and " + std::to_string(job) + fmt(" at t=%.17g", t);
    }
    owner = job;
    return {};
  }

  const FatTree& topo_;
  std::vector<JobId> node_;
  std::vector<JobId> leaf_wire_;
  std::vector<JobId> l2_wire_;
};

/// Two placements of different jobs that are alive at the same time.
bool overlapping_pair(const RunRecords& r, std::size_t* a, std::size_t* b) {
  std::vector<Placement> ps = placements(r);
  std::sort(ps.begin(), ps.end(), [](const Placement& x, const Placement& y) {
    return x.begin < y.begin;
  });
  for (std::size_t i = 0; i + 1 < ps.size(); ++i) {
    for (std::size_t k = i + 1; k < ps.size() && ps[k].begin < ps[i].end;
         ++k) {
      if (ps[k].begin < ps[k].end &&
          r.grants[ps[i].grant].alloc.job != r.grants[ps[k].grant].alloc.job) {
        *a = ps[i].grant;
        *b = ps[k].grant;
        return true;
      }
    }
  }
  return false;
}

}  // namespace

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  if (lo + 1 >= v.size()) return v.back();
  const double frac = rank - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[lo + 1] * frac;
}

double trimmed_mean(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t cut = v.size() / 10;
  double sum = 0.0;
  for (std::size_t i = cut; i < v.size() - cut; ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - 2 * cut);
}

std::string check_isolation(const FatTree& topo, const RunRecords& r) {
  struct Edge {
    double t;
    bool take;  ///< false (release) sorts before true at equal times
    std::size_t p;
  };
  const std::vector<Placement> ps = placements(r);
  std::vector<Edge> edges;
  edges.reserve(2 * ps.size());
  for (std::size_t p = 0; p < ps.size(); ++p) {
    if (!(ps[p].begin <= ps[p].end)) {
      return "placement of job " +
             std::to_string(r.grants[ps[p].grant].alloc.job) +
             " ends before it begins";
    }
    // A placement migrated away at the instant it was granted never holds
    // anything over an interval.
    if (ps[p].begin == ps[p].end) continue;
    edges.push_back(Edge{ps[p].begin, true, p});
    edges.push_back(Edge{ps[p].end, false, p});
  }
  std::sort(edges.begin(), edges.end(), [](const Edge& x, const Edge& y) {
    if (x.t != y.t) return x.t < y.t;
    if (x.take != y.take) return !x.take;
    return x.p < y.p;
  });
  Owners owners(topo);
  for (const Edge& e : edges) {
    if (std::isinf(e.t)) break;  // never released: nothing follows
    const std::string err =
        owners.update(r.grants[ps[e.p].grant].alloc, e.t, e.take);
    if (!err.empty()) return "isolation: " + err;
  }
  return {};
}

std::string check_grant_sizes(const RunRecords& r) {
  for (const GrantRecord& g : r.grants) {
    const JobRecord* j = find_job(r, g.alloc.job);
    if (j == nullptr) {
      return "grant for unknown job " + std::to_string(g.alloc.job);
    }
    if (j->cancelled) {
      return "grant for cancelled job " + std::to_string(g.alloc.job);
    }
    if (g.alloc.requested_nodes != j->nodes ||
        g.alloc.allocated_nodes() != j->nodes) {
      return "job " + std::to_string(j->id) + " asked for " +
             std::to_string(j->nodes) + " nodes, grant requests " +
             std::to_string(g.alloc.requested_nodes) + " and holds " +
             std::to_string(g.alloc.allocated_nodes());
    }
  }
  return {};
}

std::string check_conditions(const FatTree& topo, const RunRecords& r) {
  for (const GrantRecord& g : r.grants) {
    const jigsaw::ConditionReport fb = jigsaw::check_full_bandwidth(topo, g.alloc);
    if (!fb.ok) {
      return "job " + std::to_string(g.alloc.job) +
             " violates a full-bandwidth condition: " + fb.error;
    }
    const jigsaw::ConditionReport hu =
        jigsaw::check_high_utilization(topo, g.alloc);
    if (!hu.ok) {
      return "job " + std::to_string(g.alloc.job) +
             " violates a high-utilization condition: " + hu.error;
    }
  }
  return {};
}

std::string check_completion(const RunRecords& r) {
  std::vector<std::size_t> grants(r.jobs.size(), 0);
  std::vector<double> first_grant(r.jobs.size(), 0.0);
  for (const GrantRecord& g : r.grants) {
    if (find_job(r, g.alloc.job) == nullptr) {
      return "grant for unknown job " + std::to_string(g.alloc.job);
    }
    const auto k = static_cast<std::size_t>(g.alloc.job);
    if (grants[k]++ == 0) first_grant[k] = g.time;
  }
  std::uint64_t completed = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t migrations = 0;
  for (std::size_t k = 0; k < r.jobs.size(); ++k) {
    const JobRecord& j = r.jobs[k];
    const std::string who = "job " + std::to_string(j.id);
    if (j.id != static_cast<JobId>(k)) return "job records out of order";
    if (j.cancelled) {
      if (j.completed || grants[k] != 0) return who + " ran after its cancel";
      ++cancelled;
      continue;
    }
    if (!j.completed) return who + " never completed";
    if (grants[k] == 0) return who + " completed without a grant";
    if (!(j.arrival <= j.start && j.start < j.end) || !std::isfinite(j.end)) {
      return who + fmt(" has arrival %.17g, start %.17g, end %.17g",
                       j.arrival, j.start, j.end);
    }
    if (first_grant[k] != j.start) {
      return who + fmt(" started at %.17g but was first granted at %.17g",
                       j.start, first_grant[k]);
    }
    ++completed;
    migrations += grants[k] - 1;
  }
  if (completed != r.reported.completed) {
    return "records show " + std::to_string(completed) +
           " completions, the program reports " +
           std::to_string(r.reported.completed);
  }
  if (cancelled != r.reported.cancelled) {
    return "records show " + std::to_string(cancelled) +
           " cancellations, the program reports " +
           std::to_string(r.reported.cancelled);
  }
  if (migrations != r.reported.migrations) {
    return "records show " + std::to_string(migrations) +
           " migrations, the program reports " +
           std::to_string(r.reported.migrations);
  }
  return {};
}

std::string check_conservation(const RunRecords& r) {
  double held = 0.0;
  double demanded = 0.0;
  for (const JobRecord& j : r.jobs) {
    if (j.cancelled) continue;
    held += static_cast<double>(j.nodes) * (j.end - j.start);
    demanded += static_cast<double>(j.nodes) * j.runtime;
  }
  // Migration overhead from the grants themselves: every re-grant of a
  // job charges its nodes for one migration cost.
  double migrated = 0.0;
  std::unordered_map<JobId, int> seen;
  for (const GrantRecord& g : r.grants) {
    if (seen[g.alloc.job]++ > 0) {
      migrated += static_cast<double>(g.alloc.allocated_nodes()) *
                  r.migration_cost;
    }
  }
  if (!close(migrated, r.reported.migration_node_seconds)) {
    return fmt("migration node-seconds: records %.17g, program %.17g",
               migrated, r.reported.migration_node_seconds);
  }
  if (!close(held, demanded + migrated)) {
    return fmt("node-seconds held %.17g != demanded %.17g + migration %.17g",
               held, demanded, migrated);
  }
  return {};
}

std::string check_turnaround(const RunRecords& r) {
  std::vector<double> turnaround;
  double sum = 0.0;
  double first_arrival = std::numeric_limits<double>::infinity();
  double last_end = 0.0;
  for (const JobRecord& j : r.jobs) {
    if (j.cancelled || !j.completed) continue;
    turnaround.push_back(j.end - j.arrival);
    sum += j.end - j.arrival;
    first_arrival = std::min(first_arrival, j.arrival);
    last_end = std::max(last_end, j.end);
  }
  if (turnaround.empty()) return "no completed jobs";
  const double mean = sum / static_cast<double>(turnaround.size());
  const double p99 = percentile(turnaround, 99.0);
  const double makespan = last_end - first_arrival;
  if (!close(mean, r.reported.mean_turnaround)) {
    return fmt("mean turnaround: records %.17g, program %.17g", mean,
               r.reported.mean_turnaround);
  }
  if (!close(p99, r.reported.p99_turnaround)) {
    return fmt("p99 turnaround: records %.17g, program %.17g", p99,
               r.reported.p99_turnaround);
  }
  if (!close(makespan, r.reported.makespan)) {
    return fmt("makespan: records %.17g, program %.17g", makespan,
               r.reported.makespan);
  }
  return {};
}

std::string check_utilization(const FatTree& topo, const RunRecords& r) {
  if (!(r.reported.steady_utilization <= 1.0)) {
    return fmt("utilization %.17g%% exceeds 100%%",
               100.0 * r.reported.steady_utilization);
  }
  // Step functions of the number of waiting jobs and of busy nodes.
  struct Change {
    double t;
    int waiting;
    long busy;
  };
  std::vector<Change> changes;
  double first_arrival = std::numeric_limits<double>::infinity();
  double last_end = 0.0;
  for (const JobRecord& j : r.jobs) {
    if (j.cancelled || !j.completed) continue;
    changes.push_back(Change{j.arrival, 1, 0});
    changes.push_back(Change{j.start, -1, j.nodes});
    changes.push_back(Change{j.end, 0, -j.nodes});
    first_arrival = std::min(first_arrival, j.arrival);
    last_end = std::max(last_end, j.end);
  }
  std::sort(changes.begin(), changes.end(),
            [](const Change& a, const Change& b) { return a.t < b.t; });
  // Collapse to one level per distinct time: the state after every event
  // at that time, which is what the scheduling pass leaves behind.
  std::vector<Change> level;
  int waiting = 0;
  long busy = 0;
  for (std::size_t i = 0; i < changes.size(); ++i) {
    waiting += changes[i].waiting;
    busy += changes[i].busy;
    if (i + 1 == changes.size() || changes[i + 1].t != changes[i].t) {
      level.push_back(Change{changes[i].t, waiting, busy});
    }
  }
  double area = 0.0;
  double backlogged = 0.0;
  double all_area = 0.0;
  for (std::size_t i = 0; i + 1 < level.size(); ++i) {
    const double dt = level[i + 1].t - level[i].t;
    all_area += static_cast<double>(level[i].busy) * dt;
    if (level[i].waiting > 0) {
      area += static_cast<double>(level[i].busy) * dt;
      backlogged += dt;
    }
  }
  const auto waiting_at = [&](double t) {
    const auto it = std::upper_bound(
        level.begin(), level.end(), t,
        [](double x, const Change& c) { return x < c.t; });
    return it == level.begin() ? 0 : std::prev(it)->waiting;
  };
  // Every instant the engine runs a scheduling pass: the times above plus
  // cancelled jobs' arrivals, migrations (a plan is made only while the
  // head waits), migration ends, and the stale completions migrations
  // leave behind.
  double steady_start = std::numeric_limits<double>::infinity();
  double steady_end = -std::numeric_limits<double>::infinity();
  for (const Change& c : level) {
    if (c.waiting > 0) {
      steady_start = std::min(steady_start, c.t);
      steady_end = std::max(steady_end, c.t);
    }
  }
  std::unordered_map<JobId, int> grants_seen;
  for (const GrantRecord& g : r.grants) {
    if (grants_seen[g.alloc.job]++ == 0) continue;
    steady_start = std::min(steady_start, g.time);
    steady_end = std::max(steady_end, g.time);
    if (waiting_at(g.time + r.migration_cost) > 0) {
      steady_end = std::max(steady_end, g.time + r.migration_cost);
    }
  }
  for (const JobRecord& j : r.jobs) {
    if (j.cancelled) {
      if (waiting_at(j.arrival) > 0) {
        steady_end = std::max(steady_end, j.arrival);
      }
      continue;
    }
    const auto it = grants_seen.find(j.id);
    const int moves = it == grants_seen.end() ? 0 : it->second - 1;
    double stale = j.start + j.runtime;
    for (int m = 0; m < moves; ++m) {
      if (waiting_at(stale) > 0) steady_end = std::max(steady_end, stale);
      stale += r.migration_cost;
    }
  }
  const double capacity = static_cast<double>(topo.total_nodes());
  double utilization = 0.0;
  if (backlogged > 0.0) {
    utilization = area / (capacity * backlogged);
    if (steady_start != r.reported.steady_start ||
        steady_end != r.reported.steady_end) {
      return fmt("steady window: records [%.17g, %.17g], program", steady_start,
                 steady_end) +
             fmt(" [%.17g, %.17g]", r.reported.steady_start,
                 r.reported.steady_end);
    }
  } else {
    utilization = all_area / (capacity * (last_end - first_arrival));
  }
  if (!close(utilization, r.reported.steady_utilization)) {
    return fmt("steady utilization: records %.17g, program %.17g",
               utilization, r.reported.steady_utilization);
  }
  return {};
}

std::string check_same_drain(const DrainView& first, const DrainView& second) {
  if (!second.error.empty()) return "second daemon failed: " + second.error;
  if (!second.audit_ok) return "second daemon's grant audit failed";
  if (second.metrics != first.metrics) {
    return "drain metrics differ:\n  " + first.metrics + "\n  " +
           second.metrics;
  }
  if (second.grants.size() > first.grants.size() ||
      (second.grants.empty() && !first.grants.empty()) ||
      !std::equal(second.grants.begin(), second.grants.end(),
                  first.grants.end() -
                      static_cast<std::ptrdiff_t>(second.grants.size()),
                  same_grant)) {
    return "grants differ (" + std::to_string(first.grants.size()) + " vs " +
           std::to_string(second.grants.size()) + ")";
  }
  return {};
}

std::vector<std::string> corruption_selftest(const FatTree& topo,
                                             const RunRecords& r,
                                             const DrainView& first) {
  std::vector<std::string> missed;
  const auto expect_trip = [&](const char* name, const std::string& verdict) {
    if (verdict.empty()) missed.push_back(name);
  };

  std::size_t a = 0;
  std::size_t b = 0;
  if (overlapping_pair(r, &a, &b)) {
    RunRecords c = r;
    c.grants[b].alloc.nodes[0] = c.grants[a].alloc.nodes[0];
    expect_trip("isolation/shared-node", check_isolation(topo, c));
    c = r;
    c.grants[a].alloc.leaf_wires.push_back(jigsaw::LeafWire{0, 0});
    c.grants[b].alloc.leaf_wires.push_back(jigsaw::LeafWire{0, 0});
    expect_trip("isolation/shared-leaf-wire", check_isolation(topo, c));
    c = r;
    c.grants[a].alloc.l2_wires.push_back(jigsaw::L2Wire{0, 0, 0});
    c.grants[b].alloc.l2_wires.push_back(jigsaw::L2Wire{0, 0, 0});
    expect_trip("isolation/shared-l2-wire", check_isolation(topo, c));
  } else {
    missed.push_back("isolation (no two placements overlap in time)");
  }

  {
    RunRecords c = r;
    c.grants.front().alloc.nodes.pop_back();
    expect_trip("grant-size", check_grant_sizes(c));
  }
  {
    // Drop one uplink of a multi-leaf placement: the node count stays
    // right, the link conditions do not.
    RunRecords c = r;
    const auto it = std::find_if(c.grants.begin(), c.grants.end(),
                                 [](const GrantRecord& g) {
                                   return g.alloc.leaf_wires.size() >= 2;
                                 });
    if (it == c.grants.end()) {
      missed.push_back("conditions (no multi-leaf grant)");
    } else {
      it->alloc.leaf_wires.pop_back();
      expect_trip("conditions", check_conditions(topo, c));
    }
  }

  // Damage the first completed job's times.
  const auto done = std::find_if(r.jobs.begin(), r.jobs.end(),
                                 [](const JobRecord& j) {
                                   return !j.cancelled && j.completed;
                                 });
  if (done == r.jobs.end()) {
    missed.push_back("totals (no completed job)");
  } else {
    const auto k = static_cast<std::size_t>(done - r.jobs.begin());
    RunRecords c = r;
    c.jobs[k].start = c.jobs[k].arrival - 1.0;
    expect_trip("completion/start-before-arrival", check_completion(c));
    c = r;
    c.jobs[k].completed = false;
    expect_trip("completion/never-completed", check_completion(c));
    c = r;
    c.jobs[k].end += 1.0;
    expect_trip("conservation/end-shifted", check_conservation(c));
    expect_trip("turnaround/end-shifted", check_turnaround(c));
  }
  {
    // One more node on a job running while another waits: the stretch
    // after the waiting job's arrival is backlogged, so its busy area grows.
    RunRecords c = r;
    const auto waiter = std::find_if(r.jobs.begin(), r.jobs.end(),
                                     [](const JobRecord& j) {
                                       return !j.cancelled && j.completed &&
                                              j.start > j.arrival;
                                     });
    const double t = waiter == r.jobs.end() ? 0.0 : waiter->arrival;
    const auto it = std::find_if(c.jobs.begin(), c.jobs.end(),
                                 [&](const JobRecord& j) {
                                   return waiter != r.jobs.end() &&
                                          j.id != waiter->id && !j.cancelled &&
                                          j.completed && j.start <= t &&
                                          j.end > t;
                                 });
    if (it == c.jobs.end()) {
      missed.push_back("utilization (no job running while another waits)");
    } else {
      ++it->nodes;
      expect_trip("utilization/extra-node", check_utilization(topo, c));
    }
    c = r;
    c.reported.steady_utilization = 1.0 + 1e-6;
    expect_trip("utilization/over-100", check_utilization(topo, c));
  }

  {
    DrainView c = first;
    c.audit_ok = false;
    expect_trip("same-drain/audit", check_same_drain(first, c));
    c = first;
    c.metrics += " ";
    expect_trip("same-drain/metrics", check_same_drain(first, c));
    c = first;
    if (c.grants.empty()) {
      missed.push_back("same-drain/grants (no grants)");
    } else {
      c.grants.back().time += 1.0;
      expect_trip("same-drain/grants", check_same_drain(first, c));
    }
  }
  return missed;
}

}  // namespace perfbench
