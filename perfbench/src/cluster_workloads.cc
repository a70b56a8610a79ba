// The two simulated-cluster workloads. Both build their whole plan (keys,
// values, op sequences, zipf draws) from the seed before any clock starts.
#include <algorithm>
#include <cstdio>
#include <numeric>

#include "cluster_bench.h"
#include "common/hash.h"
#include "common/rng.h"
#include "fig_common.h"
#include "wal/persistence.h"

namespace perfbench {

namespace {

using namespace sedna;

constexpr std::uint32_t kClients = 9;

// fig8_rw: each client writes then reads its own keys (Section VI.A).
constexpr std::uint32_t kFig8OpsPerClient = 6000;

// skew_churn: YCSB-A over zipf-0.99 keys with a crash and restart.
constexpr std::uint32_t kChurnRecords = 50000;
constexpr std::uint32_t kChurnOpsPerClient = 20000;
constexpr std::size_t kChurnValueBytes = 100;
constexpr double kZipfExponent = 0.99;

/// 20-byte value derived from the key, so a read can be checked exactly.
std::string fig8_value(const std::string& key) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "v%019llu",
                static_cast<unsigned long long>(mix64(fnv1a64(key)) %
                                                10000000000000000000ULL));
  return buf;
}

/// 100-byte value: key, '#', 9-digit value id, id-derived padding.
std::string churn_value(const std::string& key, std::uint32_t id) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "#%09u", id);
  std::string v = key + buf;
  v.resize(kChurnValueBytes, static_cast<char>('a' + id % 26));
  return v;
}

}  // namespace

Outcome run_fig8_rw(const Options& opt, SpanLog& spans, Report& report) {
  ClusterPlan plan;
  plan.exact_reads = true;
  plan.phases.assign(2, std::vector<std::vector<ClusterOp>>(kClients));
  for (std::uint32_t c = 0; c < kClients; ++c) {
    for (std::uint32_t i = 0; i < kFig8OpsPerClient; ++i) {
      const auto k = static_cast<std::uint32_t>(plan.keys.size());
      plan.keys.push_back(make_key(opt.seed, k));
      plan.values.push_back(fig8_value(plan.keys.back()));
      plan.value_key.push_back(k);
      plan.phases[0][c].push_back(ClusterOp{k, k, true});
      plan.phases[1][c].push_back(ClusterOp{k, k, false});
    }
  }

  ClusterScenario sc;
  sc.config = bench::paper_cluster_config();
  sc.config.seed = opt.seed;
  return run_cluster_workload(opt, plan, sc, spans, report);
}

Outcome run_skew_churn(const Options& opt, SpanLog& spans, Report& report) {
  ClusterPlan plan;
  plan.exact_reads = false;
  for (std::uint32_t k = 0; k < kChurnRecords; ++k) {
    plan.keys.push_back(make_key(opt.seed, k));
    plan.values.push_back(churn_value(plan.keys.back(), k));
    plan.value_key.push_back(k);
    plan.preload.push_back(k);
  }
  // Zipf rank → key id through a seeded permutation, so the hot keys are
  // spread over the ring instead of sitting at the lowest ids.
  std::vector<std::uint32_t> perm(kChurnRecords);
  std::iota(perm.begin(), perm.end(), 0);
  Rng shuffle(opt.seed ^ 0x5ca1ab1eULL);
  for (std::size_t i = perm.size() - 1; i > 0; --i) {
    std::swap(perm[i], perm[shuffle.next_below(i + 1)]);
  }
  plan.phases.assign(1, std::vector<std::vector<ClusterOp>>(kClients));
  for (std::uint32_t c = 0; c < kClients; ++c) {
    ZipfGenerator zipf(kChurnRecords, kZipfExponent, opt.seed * 31 + c);
    Rng mix(opt.seed * 131 + c);
    for (std::uint32_t i = 0; i < kChurnOpsPerClient; ++i) {
      const std::uint32_t k = perm[zipf.next()];
      if (mix.next_double() < 0.5) {
        plan.phases[0][c].push_back(ClusterOp{k, 0, false});
      } else {
        const auto v = static_cast<std::uint32_t>(plan.values.size());
        plan.values.push_back(churn_value(plan.keys[k], v));
        plan.value_key.push_back(k);
        plan.phases[0][c].push_back(ClusterOp{k, v, true});
      }
    }
  }

  ClusterScenario sc;
  sc.config = bench::paper_cluster_config();
  sc.config.seed = opt.seed;
  auto& node = sc.config.node_template;
  node.persistence.mode = wal::PersistMode::kWal;
  node.persistence.sync_each_write = true;
  node.load_report_interval = sim_ms(500);
  node.traffic_rebalance_interval = sim_sec(2);
  node.traffic_rebalance.cv_trigger = 0.2;
  node.traffic_rebalance.vnode_cooldown = sim_sec(4);
  node.traffic_rebalance.max_moves_per_round = 8;
  sc.monitor = true;
  sc.churn_node = 2;
  sc.crash_at = sim_sec(3);
  sc.restart_at = sim_sec(6);
  return run_cluster_workload(opt, plan, sc, spans, report);
}

}  // namespace perfbench
