// Allocator wrapper that counts (and, in the traced pass, times) every
// call the simulator, the EASY scheduler and the defrag planner make into
// the placement layer. It forwards each virtual method to the wrapped
// scheme unchanged, so decisions are those of the wrapped allocator.

#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/allocator.hpp"

namespace perfbench {

/// Work the placement layer did, as seen from outside it.
struct CallCounts {
  std::uint64_t allocate_calls = 0;
  std::uint64_t allocate_ok = 0;
  std::uint64_t steps = 0;
  std::uint64_t probes = 0;
  std::uint64_t quick_reject_calls = 0;
  std::uint64_t quick_rejects = 0;  ///< quick_reject() returned true
  std::uint64_t diagnose_calls = 0;

  CallCounts operator+(const CallCounts& o) const {
    return CallCounts{allocate_calls + o.allocate_calls,
                      allocate_ok + o.allocate_ok,
                      steps + o.steps,
                      probes + o.probes,
                      quick_reject_calls + o.quick_reject_calls,
                      quick_rejects + o.quick_rejects,
                      diagnose_calls + o.diagnose_calls};
  }
  CallCounts operator-(const CallCounts& o) const {
    return CallCounts{allocate_calls - o.allocate_calls,
                      allocate_ok - o.allocate_ok,
                      steps - o.steps,
                      probes - o.probes,
                      quick_reject_calls - o.quick_reject_calls,
                      quick_rejects - o.quick_rejects,
                      diagnose_calls - o.diagnose_calls};
  }
  friend bool operator==(const CallCounts&, const CallCounts&) = default;
};

/// Per-call wall times, filled only while timing is on.
struct CallTimes {
  std::vector<double> allocate_s;  ///< one sample per allocate() call
  double quick_reject_s = 0.0;
  double diagnose_s = 0.0;
  double size_unplaceable_s = 0.0;

  double total_s() const {
    double sum = quick_reject_s + diagnose_s + size_unplaceable_s;
    for (const double s : allocate_s) sum += s;
    return sum;
  }
};

class CountingAllocator final : public jigsaw::Allocator {
 public:
  explicit CountingAllocator(const jigsaw::Allocator& inner) : inner_(inner) {}

  std::string name() const override { return inner_.name(); }
  bool isolating() const override { return inner_.isolating(); }

  using Allocator::allocate;
  std::optional<jigsaw::Allocation> allocate(
      const jigsaw::ClusterState& state, const jigsaw::JobRequest& request,
      const jigsaw::AllocBudget& budget,
      jigsaw::SearchStats* stats) const override {
    // Callers that pass no stats (the defrag planner) still get their
    // search effort counted.
    jigsaw::SearchStats own;
    jigsaw::SearchStats* s = stats != nullptr ? stats : &own;
    const std::uint64_t steps0 = s->steps;
    const std::uint64_t probes0 = s->probes;
    const Clock::time_point t0 = timing_ ? Clock::now() : Clock::time_point{};
    std::optional<jigsaw::Allocation> result =
        inner_.allocate(state, request, budget, s);
    if (timing_) times_.allocate_s.push_back(seconds_since(t0));
    ++counts_.allocate_calls;
    if (result.has_value()) ++counts_.allocate_ok;
    counts_.steps += s->steps - steps0;
    counts_.probes += s->probes - probes0;
    return result;
  }

  bool quick_reject(const jigsaw::ClusterState& state,
                    const jigsaw::JobRequest& request) const override {
    const Clock::time_point t0 = timing_ ? Clock::now() : Clock::time_point{};
    const bool rejected = inner_.quick_reject(state, request);
    if (timing_) times_.quick_reject_s += seconds_since(t0);
    ++counts_.quick_reject_calls;
    if (rejected) ++counts_.quick_rejects;
    return rejected;
  }

  bool size_unplaceable(const jigsaw::FatTree& topo, int nodes) const override {
    const Clock::time_point t0 = timing_ ? Clock::now() : Clock::time_point{};
    const bool unplaceable = inner_.size_unplaceable(topo, nodes);
    if (timing_) times_.size_unplaceable_s += seconds_since(t0);
    return unplaceable;
  }

  jigsaw::BlockedReason diagnose(
      const jigsaw::ClusterState& state,
      const jigsaw::JobRequest& request) const override {
    const Clock::time_point t0 = timing_ ? Clock::now() : Clock::time_point{};
    const jigsaw::BlockedReason reason = inner_.diagnose(state, request);
    if (timing_) times_.diagnose_s += seconds_since(t0);
    ++counts_.diagnose_calls;
    return reason;
  }

  void set_timing(bool on) { timing_ = on; }
  const CallCounts& counts() const { return counts_; }
  /// Hand over the samples gathered so far and start a fresh set.
  CallTimes take_times() {
    CallTimes out = std::move(times_);
    times_ = CallTimes{};
    return out;
  }

 private:
  using Clock = std::chrono::steady_clock;
  static double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
  }

  const jigsaw::Allocator& inner_;
  bool timing_ = false;
  mutable CallCounts counts_;
  mutable CallTimes times_;
};

}  // namespace perfbench
