// Shared harness of the two simulated-cluster workloads (fig8_rw and
// skew_churn): nine closed-loop clients on the paper testbed, timed in
// wall-clock time from the benchmark's own step() loop.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/sedna_cluster.h"
#include "common.h"

namespace perfbench {

struct ClusterOp {
  std::uint32_t key = 0;    // index into ClusterPlan::keys
  std::uint32_t value = 0;  // index into ClusterPlan::values (writes)
  bool write = false;
};

/// Every input of a cluster workload, generated from the seed before any
/// clock starts.
struct ClusterPlan {
  std::vector<std::string> keys;
  std::vector<std::string> values;
  /// Value id → id of the key it is written for.
  std::vector<std::uint32_t> value_key;
  /// true: a read of key k must return values[k] exactly. false: it must
  /// return some value that was written for k (value ids are embedded at
  /// kValueIdOffset, see skew_churn).
  bool exact_reads = true;
  /// Value ids written during set-up (spread over the clients).
  std::vector<std::uint32_t> preload;
  /// [phase][client][i]; one closed-loop client per inner list. A phase
  /// starts when every client finished the previous one.
  std::vector<std::vector<std::vector<ClusterOp>>> phases;

  [[nodiscard]] std::uint64_t ops() const;
};

/// Where a non-exact value carries its value id (9 decimal digits after a
/// '#' that follows the 20-byte key).
constexpr std::size_t kValueIdOffset = 21;

struct ClusterScenario {
  /// With persistence on, each copy and repetition gets its own directory
  /// under Options::tmp_dir.
  sedna::cluster::SednaClusterConfig config;
  bool monitor = false;
  /// Crash data node `churn_node` at `crash_at` and restart it at
  /// `restart_at` (simulated time since the measured phase began);
  /// crash_at == 0 disables.
  std::size_t churn_node = 0;
  sedna::SimDuration crash_at = 0;
  sedna::SimDuration restart_at = 0;
};

Outcome run_cluster_workload(const Options& opt, const ClusterPlan& plan,
                             const ClusterScenario& scenario, SpanLog& spans,
                             Report& report);

}  // namespace perfbench
