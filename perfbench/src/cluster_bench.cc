#include "cluster_bench.h"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <thread>

#include "cluster/protocol.h"
#include "store/local_store.h"

namespace perfbench {

namespace {

using namespace sedna;
namespace fs = std::filesystem;

using Counters = std::map<std::string, std::uint64_t>;

/// Calls replayed per batch span in the layer replays.
constexpr std::size_t kReplayBatch = 1024;
/// Simulated-time guard on one phase (a wedged run fails, never hangs).
constexpr SimDuration kPhaseGuard = sim_sec(600);

/// Copies of the cluster that run side by side, one thread each, in every
/// repetition. A lone simulation thread is at the mercy of one core's
/// speed, which drifts on a shared machine; four copies of the same plan
/// average that out. Their deterministic outputs must agree.
constexpr int kCopies = 4;

/// Everything one repetition (set-up + measured phases) of one copy
/// produced.
struct RepStats {
  RepWall wall;
  std::vector<double> read_us, write_us;  // per-op wall latencies
  double restart_s = 0;
  std::uint64_t attempted = 0, failed = 0, wrong = 0;
  /// Per-layer figures of this repetition; all deterministic.
  Metrics layer;
  Fingerprint fp;
};

Counters sum_counters(cluster::SednaCluster& c) {
  Counters out;
  auto add = [&out](const MetricRegistry& reg) {
    for (const auto& [name, counter] : reg.counters()) {
      out[name] += counter.value();
    }
  };
  for (std::size_t i = 0; i < c.data_node_count(); ++i) {
    add(c.node(i).metrics());
  }
  for (std::size_t i = 0; i < c.client_count(); ++i) {
    add(c.client(i).metrics());
  }
  return out;
}

std::uint64_t delta(const Counters& before, const Counters& after,
                    const std::string& name) {
  const auto a = after.find(name);
  const auto b = before.find(name);
  return (a == after.end() ? 0 : a->second) -
         (b == before.end() ? 0 : b->second);
}

std::uint64_t zk_commits(cluster::SednaCluster& c) {
  std::uint64_t best = 0;
  for (std::size_t i = 0; i < c.zk_ids().size(); ++i) {
    best = std::max(best, c.zk_member(i).commits_applied());
  }
  return best;
}

std::uint64_t dir_bytes(const std::string& dir) {
  std::uint64_t total = 0;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

/// Ends the process at once; other copies may still be running.
[[noreturn]] void fatal(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::fflush(stderr);
  std::_Exit(1);
}

/// Runs one repetition: builds and boots a fresh cluster, preloads, then
/// drives the measured phases from the benchmark's own step() loop.
class Repetition {
 public:
  Repetition(const Options& opt, const ClusterPlan& plan,
             const ClusterScenario& sc, SpanLog& spans, int index)
      : opt_(opt), plan_(plan), sc_(sc), spans_(spans), index_(index) {}

  RepStats run(bool layer_replays) {
    const std::uint32_t rep_span = spans_.begin("rep");
    cluster::SednaClusterConfig cfg = sc_.config;
    const bool persistent =
        cfg.node_template.persistence.mode != wal::PersistMode::kNone;
    if (persistent) {
      wal_dir_ = opt_.tmp_dir + "/wal-" + std::to_string(index_);
      fs::remove_all(wal_dir_);
      cfg.node_template.persistence.dir = wal_dir_;
    }

    // ---- set-up: construct, boot, clients, preload ----------------------
    const std::int64_t setup_t0 = now_ns();
    const std::uint32_t setup_span = spans_.begin("setup", rep_span);
    cl_ = std::make_unique<cluster::SednaCluster>(cfg);
    {
      Scoped s(spans_, "cluster.boot", setup_span);
      const Status st = cl_->boot();
      if (!st.ok()) fatal("cluster boot failed: " + st.to_string());
    }
    const std::uint64_t boot_commits = zk_commits(*cl_);
    if (sc_.monitor) {
      Scoped s(spans_, "cluster.enable_monitor", setup_span);
      cl_->enable_monitor();
    }
    const std::size_t clients = plan_.phases.front().size();
    for (std::size_t c = 0; c < clients; ++c) {
      Scoped s(spans_, "cluster.make_client", setup_span);
      clients_.push_back(&cl_->make_client());
    }
    if (!plan_.preload.empty()) {
      std::vector<std::vector<ClusterOp>> per_client(clients);
      for (std::size_t i = 0; i < plan_.preload.size(); ++i) {
        const std::uint32_t v = plan_.preload[i];
        per_client[i % clients].push_back(
            ClusterOp{plan_.value_key[v], v, true});
      }
      const std::uint32_t span = spans_.begin("preload", setup_span);
      if (!run_ops(per_client, false, span)) fatal("preload did not finish");
      spans_.end(span, plan_.preload.size());
    }
    spans_.end(setup_span);
    stats_.wall.setup_s = ns_to_s(now_ns() - setup_t0);

    // ---- measured phases -------------------------------------------------
    sim::Network& net = cl_->network();
    const Counters c0 = sum_counters(*cl_);
    const std::uint64_t msgs0 = net.messages_sent();
    const std::uint64_t bytes0 = net.bytes_sent();
    const std::uint64_t dropped0 = net.messages_dropped();
    const std::uint64_t commits0 = zk_commits(*cl_);
    const SimTime sim0 = cl_->sim().now();
    phase_sim_start_ = sim0;

    const std::uint32_t phase_span = spans_.begin("phase", rep_span);
    const std::int64_t phase_t0 = now_ns();
    for (const auto& per_client : plan_.phases) {
      if (!run_ops(per_client, true, phase_span)) {
        fatal("measured phase did not finish");
      }
    }
    stats_.wall.phase_s = ns_to_s(now_ns() - phase_t0);
    spans_.end(phase_span, ops_);
    const SimTime sim_phase = cl_->sim().now() - sim0;

    set_latencies(stats_.wall, stats_.read_us, stats_.write_us);

    // ---- per-layer figures (all deterministic) ---------------------------
    const Counters c1 = sum_counters(*cl_);
    auto d = [&](const char* name) {
      return static_cast<double>(delta(c0, c1, name));
    };
    auto count = [](std::uint64_t n) { return static_cast<double>(n); };
    const double ops = count(ops_);
    std::uint64_t items = 0;
    for (std::size_t i = 0; i < cl_->data_node_count(); ++i) {
      items += cl_->node(i).local_store().size();
    }
    const double wal_bytes = persistent ? count(dir_bytes(wal_dir_)) : 0;
    stats_.layer = {
        {"sim.events_per_op", {ratio(count(events_), ops), "events/op"}},
        {"sim.pending_hwm", {count(pending_hwm_), "events"}},
        {"sim.msgs_per_op",
         {ratio(count(net.messages_sent() - msgs0), ops), "msgs/op"}},
        {"sim.bytes_per_op",
         {ratio(count(net.bytes_sent() - bytes0), ops), "B/op"}},
        {"sim.dropped", {count(net.messages_dropped() - dropped0), "msgs"}},
        {"cluster.replica_ops_per_op",
         {ratio(d("replica.writes") + d("replica.reads"), ops), "ops/op"}},
        {"cluster.client_retries",
         {d("client.read_retries") + d("client.write_retries"), "count"}},
        {"cluster.read_repairs_per_read",
         {ratio(d("coordinator.read_repairs"), count(reads_)), "ratio"}},
        {"cluster.recoveries", {d("failure.recoveries_completed"), "count"}},
        {"cluster.migrations_completed",
         {d("rebalance.migrations_completed"), "count"}},
        {"cluster.migration_success",
         {ratio(d("rebalance.migrations_completed"),
                d("rebalance.migrations_started")),
          "ratio"}},
        {"cluster.items_transferred", {d("transfer.items_received"), "count"}},
        {"cluster.hints_delivered",
         {d("coordinator.hints_delivered"), "count"}},
        {"cluster.vnodes_hydrated", {d("restart.vnodes_hydrated"), "count"}},
        {"cluster.outdated_writes", {count(outdated_), "count"}},
        {"cluster.sim_ops_per_s",
         {ratio(ops, static_cast<double>(sim_phase) * 1e-6), "ops/s"}},
        {"cluster.sim_read_p50_us", {quantile(sim_read_us_, 0.50), "us"}},
        {"cluster.sim_read_p99_us", {quantile(sim_read_us_, 0.99), "us"}},
        {"cluster.sim_write_p50_us", {quantile(sim_write_us_, 0.50), "us"}},
        {"cluster.sim_write_p99_us", {quantile(sim_write_us_, 0.99), "us"}},
        {"zk.commits_boot", {count(boot_commits), "count"}},
        {"zk.commits_run", {count(zk_commits(*cl_) - commits0), "count"}},
        {"zk.znodes", {count(cl_->zk_member(0).tree().node_count()), "count"}},
        {"store.items", {count(items), "count"}},
        {"wal.bytes_per_user_byte", {ratio(wal_bytes, count(acked_bytes_)),
                                     "ratio"}},
        {"wal.recovered_records",
         {d("persistence.recovered_records"), "count"}},
        {"wal.snapshots", {d("persistence.snapshots"), "count"}},
    };
    for (const auto& [name, m] : stats_.layer) stats_.fp.set(name, m.value);
    stats_.fp.set("events", count(events_));
    stats_.fp.set("sim_phase_us", static_cast<double>(sim_phase));
    stats_.fp.set("failed_ops", count(stats_.failed));
    stats_.fp.set("wrong_values", count(stats_.wrong));

    if (layer_replays) replay_layers(rep_span);
    spans_.end(rep_span);

    cl_.reset();
    if (persistent) fs::remove_all(wal_dir_);
    return std::move(stats_);
  }

 private:
  struct Slot {
    std::size_t next = 0;
    std::int64_t t0 = 0;
    SimTime s0 = 0;
    std::uint32_t op_span = 0;
  };

  [[nodiscard]] bool read_is_right(const ClusterOp& op,
                                   const std::string& got) const {
    if (plan_.exact_reads) return got == plan_.values[op.key];
    if (got.size() < kValueIdOffset + 9 || got[kValueIdOffset - 1] != '#') {
      return false;
    }
    const std::uint64_t id =
        std::strtoull(got.substr(kValueIdOffset, 9).c_str(), nullptr, 10);
    return id < plan_.values.size() && plan_.value_key[id] == op.key &&
           plan_.values[id] == got;
  }

  /// Closed loop: each client sends its next op from the completion
  /// callback of the previous one; the benchmark's step() loop runs the
  /// simulation until every client is done (and the churn schedule, if
  /// any, has completed).
  bool run_ops(const std::vector<std::vector<ClusterOp>>& per_client,
               bool measured, std::uint32_t parent) {
    std::vector<Slot> slots(per_client.size());
    std::size_t finished = 0;
    std::uint32_t call_parent = parent;
    sim::Simulation& sim = cl_->sim();

    std::function<void(std::size_t)> start_next;
    auto complete = [&](std::size_t c, bool ok, bool right, bool outdated) {
      Slot& sl = slots[c];
      const ClusterOp& op = per_client[c][sl.next];
      spans_.end(sl.op_span);
      ++stats_.attempted;
      if (!ok) ++stats_.failed;
      if (ok && !right) ++stats_.wrong;
      if (outdated) ++outdated_;
      if (op.write && ok && !outdated) {
        acked_bytes_ +=
            plan_.keys[op.key].size() + plan_.values[op.value].size();
      }
      if (measured) {
        const double wall_us = ns_to_us(now_ns() - sl.t0);
        const auto sim_us = static_cast<double>(sim.now() - sl.s0);
        (op.write ? stats_.write_us : stats_.read_us).push_back(wall_us);
        (op.write ? sim_write_us_ : sim_read_us_).push_back(sim_us);
        ++ops_;
        if (!op.write) ++reads_;
      }
      ++sl.next;
      start_next(c);
    };
    start_next = [&](std::size_t c) {
      Slot& sl = slots[c];
      if (sl.next >= per_client[c].size()) {
        ++finished;
        return;
      }
      const ClusterOp& op = per_client[c][sl.next];
      const std::string& key = plan_.keys[op.key];
      const std::uint64_t op_id = ++op_ids_;
      sl.t0 = now_ns();
      sl.s0 = sim.now();
      // Per-op spans only in the measured phases; set-up keeps its one
      // aggregate span.
      sl.op_span = measured ? spans_.begin(op.write ? "op.write" : "op.read",
                                           parent, op_id)
                            : 0;
      Scoped call(measured ? spans_ : quiet_,
                  op.write ? "client.write_latest" : "client.read_latest",
                  call_parent, op_id);
      if (op.write) {
        clients_[c]->write_latest(
            key, plan_.values[op.value],
            [&complete, c](const Status& st) {
              // kOutdated is LWW's defined answer to a write that lost a
              // race with a newer concurrent write: a correct outcome.
              complete(c, st.ok() || st.is(StatusCode::kOutdated), true,
                       st.is(StatusCode::kOutdated));
            });
      } else {
        clients_[c]->read_latest(
            key, [this, &complete, &per_client, &slots,
                  c](const Result<store::VersionedValue>& r) {
              const ClusterOp& rop = per_client[c][slots[c].next];
              complete(c, r.ok(), r.ok() && read_is_right(rop, r.value().value),
                       false);
            });
      }
    };

    for (std::size_t c = 0; c < per_client.size(); ++c) start_next(c);
    const std::uint32_t run_span =
        spans_.begin(measured ? "sim.run" : "sim.run_setup", parent);
    call_parent = run_span;
    std::uint64_t events = 0;
    const SimTime guard = sim.now() + kPhaseGuard;
    while (finished < per_client.size() || (measured && churn_pending())) {
      if (!sim.step() || sim.now() > guard) break;
      ++events;
      if (measured) {
        pending_hwm_ = std::max(pending_hwm_, sim.pending_events());
        churn(run_span);
      }
    }
    spans_.end(run_span, events);
    if (measured) events_ += events;
    return finished == per_client.size() && !(measured && churn_pending());
  }

  [[nodiscard]] bool churn_pending() const {
    return sc_.crash_at > 0 && !restart_done_;
  }

  /// Crash/restart schedule, checked after every event.
  void churn(std::uint32_t parent) {
    if (sc_.crash_at == 0) return;
    cluster::SednaNode& node = cl_->node(sc_.churn_node);
    const SimTime t = cl_->sim().now() - phase_sim_start_;
    if (!crashed_ && t >= sc_.crash_at) {
      crashed_ = true;
      Scoped s(spans_, "node.crash", parent);
      node.crash();
    }
    if (crashed_ && !restarted_ && t >= sc_.restart_at) {
      restarted_ = true;
      const std::int64_t t0 = now_ns();
      const std::uint32_t span = spans_.begin("cluster.restart", parent);
      {
        Scoped s(spans_, "node.restart", span);
        node.restart();
      }
      Scoped s(spans_, "node.start", span);
      node.start([this, t0, span](const Status& st) {
        if (!st.ok()) fatal("restarted node failed to start");
        stats_.restart_s = ns_to_s(now_ns() - t0);
        spans_.end(span);
        restart_done_ = true;
      });
    }
  }

  /// Replays the measured ops' keys against single layers, in batch spans
  /// of kReplayBatch calls: ring lookup, the four request/reply codecs,
  /// and the store's read/write path.
  void replay_layers(std::uint32_t parent) {
    std::vector<const ClusterOp*> seq;
    for (const auto& phase : plan_.phases) {
      for (const auto& ops : phase) {
        for (const auto& op : ops) seq.push_back(&op);
      }
    }
    const std::uint32_t top = spans_.begin("layer_replays", parent);
    std::uint64_t sink = 0;
    // `prepare(i)` builds the input of call i outside the timed span;
    // `call(input)` is timed.
    auto batched = [&](const char* name, auto prepare, auto call) {
      using Input = decltype(prepare(std::size_t{0}));
      std::vector<Input> inputs;
      for (std::size_t i = 0; i < seq.size(); i += kReplayBatch) {
        const std::size_t n = std::min(kReplayBatch, seq.size() - i);
        inputs.clear();
        for (std::size_t j = 0; j < n; ++j) inputs.push_back(prepare(i + j));
        const std::uint32_t s = spans_.begin(name, top);
        for (const auto& in : inputs) sink += call(in);
        spans_.end(s, n);
      }
    };
    auto key_of = [&](std::size_t i) -> const std::string& {
      return plan_.keys[seq[i]->key];
    };
    // Every key's first value has the key's own id (see the plans).
    auto value_of = [&](std::size_t i) -> const std::string& {
      return plan_.values[seq[i]->write ? seq[i]->value : seq[i]->key];
    };

    const ring::VnodeTable& table = cl_->node(0).metadata().table();
    batched("ring.replicas_for_key",
            [&](std::size_t i) { return &key_of(i); },
            [&](const std::string* k) {
              return table.replicas_for_key(*k).size();
            });
    batched("codec.write_req",
            [&](std::size_t i) {
              cluster::WriteRequest req;
              req.key = key_of(i);
              req.value = value_of(i);
              req.ts = i + 1;
              return req;
            },
            [](const cluster::WriteRequest& req) {
              auto back = cluster::WriteRequest::decode(req.encode());
              return back.ok() ? back.value().value.size() : 0;
            });
    batched("codec.write_reply",
            [](std::size_t) { return cluster::WriteReply{}; },
            [](const cluster::WriteReply& rep) {
              auto back = cluster::WriteReply::decode(rep.encode());
              return back.ok() ? 1 : 0;
            });
    batched("codec.read_req",
            [&](std::size_t i) {
              cluster::ReadRequest req;
              req.key = key_of(i);
              return req;
            },
            [](const cluster::ReadRequest& req) {
              auto back = cluster::ReadRequest::decode(req.encode());
              return back.ok() ? back.value().key.size() : 0;
            });
    batched("codec.read_reply",
            [&](std::size_t i) {
              cluster::ReadReply rep;
              rep.has_latest = true;
              rep.latest.value = value_of(i);
              rep.latest.ts = i + 1;
              return rep;
            },
            [](const cluster::ReadReply& rep) {
              auto back = cluster::ReadReply::decode(rep.encode());
              return back.ok() ? back.value().latest.value.size() : 0;
            });
    store::LocalStore& node_store = cl_->node(0).local_store();
    batched("store.read_latest",
            [&](std::size_t i) { return &key_of(i); },
            [&](const std::string* k) {
              return node_store.read_latest(*k).ok() ? 1 : 0;
            });
    // A node-configured scratch store takes the writes, so the cluster's
    // own state is left as the run produced it.
    store::LocalStore scratch(sc_.config.node_template.store);
    scratch.enable_digests(sc_.config.cluster.total_vnodes,
                           sc_.config.node_template.digest_buckets);
    Timestamp ts = 0;
    using KeyValue = std::pair<const std::string*, const std::string*>;
    batched("store.write_latest",
            [&](std::size_t i) { return KeyValue(&key_of(i), &value_of(i)); },
            [&](const KeyValue& kv) {
              const Status st =
                  scratch.write_latest(*kv.first, *kv.second, ++ts);
              return st.ok() ? 1 : 0;
            });
    g_sink = g_sink + sink;
    spans_.end(top);
  }

  const Options& opt_;
  const ClusterPlan& plan_;
  const ClusterScenario& sc_;
  SpanLog& spans_;
  const int index_;

  std::unique_ptr<cluster::SednaCluster> cl_;
  std::vector<cluster::SednaClient*> clients_;
  std::string wal_dir_;
  RepStats stats_;
  std::vector<double> sim_read_us_, sim_write_us_;
  std::uint64_t ops_ = 0, reads_ = 0, events_ = 0, op_ids_ = 0;
  std::uint64_t acked_bytes_ = 0;
  std::uint64_t outdated_ = 0;
  SpanLog quiet_;  // disabled: swallows spans that are not recorded
  std::size_t pending_hwm_ = 0;
  SimTime phase_sim_start_ = 0;
  bool crashed_ = false, restarted_ = false, restart_done_ = false;
};

}  // namespace

std::uint64_t ClusterPlan::ops() const {
  std::uint64_t n = 0;
  for (const auto& phase : phases) {
    for (const auto& ops : phase) n += ops.size();
  }
  return n;
}

Outcome run_cluster_workload(const Options& opt, const ClusterPlan& plan,
                             const ClusterScenario& scenario, SpanLog& spans,
                             Report& report) {
  Outcome out;
  // Per repetition: the copies' combined walls, and copy 0's own (the
  // only traced copy, so trace.overhead_frac compares copy 0's phases).
  std::vector<RepWall> plain, plain0, traced0;
  std::vector<double> restarts;
  Metrics layer;
  Fingerprint first;
  int rep = 0;
  run_schedule(opt, [&](bool tracing) {
    std::vector<RepStats> copies(kCopies);
    SpanLog quiet;
    spans.set_enabled(tracing);
    std::vector<std::thread> pool;
    for (int i = 0; i < kCopies; ++i) {
      pool.emplace_back([&, i] {
        copies[i] = Repetition(opt, plan, scenario, i == 0 ? spans : quiet,
                               rep * kCopies + i)
                        .run(tracing && i == 0);
      });
    }
    for (auto& th : pool) th.join();
    spans.set_enabled(false);

    RepWall all;
    std::vector<double> read_us, write_us;
    double restart_s = 0;
    for (int i = 0; i < kCopies; ++i) {
      RepStats& st = copies[i];
      if (rep == 0 && i == 0) {
        first = st.fp;
      } else if (!st.fp.same_as(first, rep)) {
        out.deterministic = false;
      }
      out.attempted += st.attempted;
      out.failed += st.failed;
      out.wrong += st.wrong;
      all.setup_s += st.wall.setup_s / kCopies;
      all.phase_s += st.wall.phase_s / kCopies;
      restart_s += st.restart_s / kCopies;
      read_us.insert(read_us.end(), st.read_us.begin(), st.read_us.end());
      write_us.insert(write_us.end(), st.write_us.begin(), st.write_us.end());
    }
    set_latencies(all, read_us, write_us);
    // Every copy completes the same ops: throughput is per copy.
    all.reads = copies[0].wall.reads;
    all.writes = copies[0].wall.writes;
    if (tracing) {
      traced0.push_back(copies[0].wall);
      layer = copies[0].layer;
    } else {
      plain.push_back(all);
      plain0.push_back(copies[0].wall);
      restarts.push_back(restart_s);
    }
    ++rep;
  });

  report.info("copies_per_repetition", std::to_string(kCopies));
  report.info("ops_per_repetition_per_copy", std::to_string(plan.ops()));
  if (scenario.crash_at > 0) {
    report.info("restart_s_median", std::to_string(median(restarts)));
  }
  if (opt.trace) {
    report_walls(opt, out, plain0, traced0, report);
    report.add(layer);  // deterministic: any traced copy will do
  } else {
    report_walls(opt, out, plain, traced0, report);
  }
  return out;
}

}  // namespace perfbench
