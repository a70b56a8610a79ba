// store_mt: the LocalStore driven directly by four threads in a closed
// loop, bypassing the simulator. 90 % read_latest / 10 % write_latest over
// zipf-0.99 keys on a store configured as a node runs it (8 shards, Merkle
// digests at 1024 x 16) whose memory budget is half the working set, so
// eviction runs throughout.
#include <algorithm>
#include <cstring>
#include <numeric>
#include <thread>

#include "common.h"
#include "common/rng.h"
#include "store/local_store.h"

namespace perfbench {

namespace {

using namespace sedna;

constexpr std::uint32_t kKeys = 1000000;
constexpr std::size_t kKeyBytes = 20;
constexpr std::size_t kValueBytes = 100;
constexpr std::uint32_t kThreads = 4;
constexpr std::uint32_t kOpsPerThread = 500000;
constexpr double kReadFraction = 0.9;
constexpr double kZipfExponent = 0.99;
constexpr std::uint32_t kDigestVnodes = 1024;
constexpr std::uint32_t kDigestBuckets = 16;
/// Calls per batch span (per-thread spans in the traced mode).
constexpr std::size_t kSpanBatch = 4096;
constexpr std::uint32_t kWriteBit = 0x80000000U;
/// Timestamps of measured writes start above every preload timestamp.
constexpr Timestamp kPhaseTsBase = Timestamp{1} << 32;

/// All inputs, generated from the seed before any clock starts. Value i
/// begins with key i, so one arena holds both and a hit can be checked.
struct Inputs {
  std::vector<char> arena;  // kKeys x kValueBytes
  /// Per thread: key id | kWriteBit for writes. A thread only writes keys
  /// congruent to its index mod kThreads, so every key has one writer and
  /// LWW never rejects a measured write.
  std::vector<std::vector<std::uint32_t>> ops;

  [[nodiscard]] std::string_view key(std::uint32_t i) const {
    return {arena.data() + static_cast<std::size_t>(i) * kValueBytes,
            kKeyBytes};
  }
  [[nodiscard]] std::string_view value(std::uint32_t i) const {
    return {arena.data() + static_cast<std::size_t>(i) * kValueBytes,
            kValueBytes};
  }
};

Inputs make_inputs(std::uint64_t seed) {
  Inputs in;
  in.arena.resize(static_cast<std::size_t>(kKeys) * kValueBytes);
  for (std::uint32_t i = 0; i < kKeys; ++i) {
    char* v = in.arena.data() + static_cast<std::size_t>(i) * kValueBytes;
    const std::string k = make_key(seed, i);
    std::memcpy(v, k.data(), kKeyBytes);
    Rng pad(seed ^ (i * 0x9e3779b97f4a7c15ULL));
    for (std::size_t j = kKeyBytes; j < kValueBytes; ++j) {
      v[j] = static_cast<char>('a' + pad.next_below(26));
    }
  }
  // Zipf rank → key id through a seeded permutation.
  std::vector<std::uint32_t> perm(kKeys);
  std::iota(perm.begin(), perm.end(), 0);
  Rng shuffle(seed ^ 0x5ca1ab1eULL);
  for (std::size_t i = perm.size() - 1; i > 0; --i) {
    std::swap(perm[i], perm[shuffle.next_below(i + 1)]);
  }
  ZipfGenerator zipf(kKeys, kZipfExponent, seed * 31);
  Rng mix(seed * 131);
  in.ops.resize(kThreads);
  for (std::uint32_t t = 0; t < kThreads; ++t) {
    in.ops[t].reserve(kOpsPerThread);
    for (std::uint32_t i = 0; i < kOpsPerThread; ++i) {
      std::uint32_t k = perm[zipf.next()];
      if (mix.next_double() < kReadFraction) {
        in.ops[t].push_back(k);
      } else {
        k = k - k % kThreads + t;  // this thread's residue class
        in.ops[t].push_back(k | kWriteBit);
      }
    }
  }
  return in;
}

store::LocalStoreConfig store_config() {
  store::LocalStoreConfig cfg;  // 8 shards, as SednaNode runs it
  // Half the working set, in the store's own accounting.
  cfg.memory_budget_bytes =
      static_cast<std::size_t>(kKeys) *
      (sizeof(store::Item) + kKeyBytes + kValueBytes) / 2;
  return cfg;
}

/// What one thread did in one phase.
struct ThreadResult {
  std::vector<std::uint32_t> read_ns, write_ns;
  std::uint64_t hits = 0, misses = 0, writes = 0, failed = 0, wrong = 0;
  std::int64_t start_ns = 0, end_ns = 0;
  SpanLog spans;
};

void run_thread(store::LocalStore& st, const Inputs& in,
                const std::vector<std::uint32_t>& ops, std::uint32_t t,
                Timestamp ts_base, bool traced, ThreadResult& r) {
  r.read_ns.reserve(ops.size());
  r.write_ns.reserve(ops.size() / 4);
  r.spans.set_enabled(traced);
  Timestamp ts = ts_base + t;
  r.start_ns = now_ns();
  std::uint32_t batch = r.spans.begin("store.ops", 0);
  std::size_t in_batch = 0;
  for (const std::uint32_t op : ops) {
    const std::uint32_t k = op & ~kWriteBit;
    if ((op & kWriteBit) != 0) {
      ts += kThreads;
      const std::int64_t t0 = now_ns();
      const Status s = st.write_latest(in.key(k), in.value(k), ts);
      r.write_ns.push_back(static_cast<std::uint32_t>(now_ns() - t0));
      ++r.writes;
      if (!s.ok()) ++r.failed;
    } else {
      const std::int64_t t0 = now_ns();
      const auto got = st.read_latest(in.key(k));
      r.read_ns.push_back(static_cast<std::uint32_t>(now_ns() - t0));
      if (got.ok()) {
        ++r.hits;
        if (got.value().value != in.value(k)) ++r.wrong;
      } else if (got.status().is(StatusCode::kNotFound)) {
        ++r.misses;  // evicted: a cache miss, not a failure
      } else {
        ++r.failed;
      }
    }
    if (++in_batch == kSpanBatch) {
      r.spans.end(batch, in_batch);
      batch = r.spans.begin("store.ops", 0);
      in_batch = 0;
    }
  }
  r.spans.end(batch, in_batch);
  r.end_ns = now_ns();
}

/// Runs `threads` threads over the first `threads` op lists; returns the
/// phase wall time in seconds.
double run_phase(store::LocalStore& st, const Inputs& in,
                 std::uint32_t threads, Timestamp ts_base, SpanLog& spans,
                 std::uint32_t parent, std::vector<ThreadResult>& results) {
  results.clear();
  results.resize(threads);
  std::vector<std::thread> pool;
  for (std::uint32_t t = 0; t < threads; ++t) {
    pool.emplace_back(run_thread, std::ref(st), std::cref(in),
                      std::cref(in.ops[t]), t, ts_base, spans.enabled(),
                      std::ref(results[t]));
  }
  for (auto& th : pool) th.join();
  std::int64_t start = results[0].start_ns, end = results[0].end_ns;
  for (auto& r : results) {
    start = std::min(start, r.start_ns);
    end = std::max(end, r.end_ns);
    spans.merge(r.spans, parent);
  }
  return ns_to_s(end - start);
}

/// Preloads every key, kThreads writers in parallel.
void preload(store::LocalStore& st, const Inputs& in) {
  std::vector<std::thread> pool;
  for (std::uint32_t t = 0; t < kThreads; ++t) {
    pool.emplace_back([&st, &in, t] {
      for (std::uint32_t k = t; k < kKeys; k += kThreads) {
        (void)st.write_latest(in.key(k), in.value(k), Timestamp{k} + 1);
      }
    });
  }
  for (auto& th : pool) th.join();
}

struct RepStats {
  RepWall wall;
  std::uint64_t attempted = 0, failed = 0, wrong = 0;
  Metrics layer;
};

RepStats run_rep(const Inputs& in, SpanLog& spans, bool traced) {
  RepStats rs;
  const std::uint32_t rep_span = spans.begin("rep");
  const std::int64_t setup_t0 = now_ns();
  const std::uint32_t setup_span = spans.begin("setup", rep_span);
  auto st = std::make_unique<store::LocalStore>(store_config());
  st->enable_digests(kDigestVnodes, kDigestBuckets);
  {
    Scoped s(spans, "store.preload", setup_span);
    s.set_count(kKeys);
    preload(*st, in);
  }
  spans.end(setup_span);
  rs.wall.setup_s = ns_to_s(now_ns() - setup_t0);

  const store::StoreStats s0 = st->stats();
  const std::int64_t cpu0 = process_cpu_ns();
  std::vector<ThreadResult> res;
  const std::uint32_t phase_span = spans.begin("phase", rep_span);
  rs.wall.phase_s =
      run_phase(*st, in, kThreads, kPhaseTsBase, spans, phase_span, res);
  const std::int64_t cpu_ns = process_cpu_ns() - cpu0;
  const store::StoreStats s1 = st->stats();

  std::vector<double> read_us, write_us;
  std::uint64_t hits = 0;
  for (auto& r : res) {
    for (std::uint32_t ns : r.read_ns) read_us.push_back(ns * 1e-3);
    for (std::uint32_t ns : r.write_ns) write_us.push_back(ns * 1e-3);
    hits += r.hits;
    rs.failed += r.failed;
    rs.wrong += r.wrong;
  }
  set_latencies(rs.wall, read_us, write_us);
  rs.attempted = rs.wall.reads + rs.wall.writes;
  spans.end(phase_span, rs.attempted);
  const double ops = static_cast<double>(rs.attempted);
  const double ops_per_s = ops / rs.wall.phase_s;

  const double user_bytes =
      static_cast<double>(s1.bytes) -
      static_cast<double>(st->size() * sizeof(store::Item));
  rs.layer = {
      {"store.hit_ratio",
       {ratio(static_cast<double>(hits), static_cast<double>(rs.wall.reads)),
        "ratio"}},
      {"store.evictions_per_write",
       {ratio(static_cast<double>(s1.evictions - s0.evictions),
              static_cast<double>(rs.wall.writes)),
        "ratio"}},
      {"store.bytes_per_user_byte",
       {ratio(static_cast<double>(st->slab_charged_bytes()), user_bytes),
        "ratio"}},
      {"store.cpu_ns_per_op", {static_cast<double>(cpu_ns) / ops, "ns"}},
      {"store.items", {static_cast<double>(st->size()), "count"}},
  };

  if (traced) {
    // Single-thread baseline for the scaling figure: thread 0's ops on
    // the same (warm) store.
    const std::uint32_t one_span = spans.begin("phase.one_thread", rep_span);
    const double one_s =
        run_phase(*st, in, 1, kPhaseTsBase * 2, spans, one_span, res);
    spans.end(one_span, in.ops[0].size());
    const double one_ops_per_s = static_cast<double>(in.ops[0].size()) / one_s;
    rs.layer["store.mt_efficiency"] = {
        ops_per_s / (kThreads * one_ops_per_s), "ratio"};

    // Per-call store cost, batch-timed over thread 0's key sequence.
    const std::uint32_t top = spans.begin("layer_replays", rep_span);
    std::uint64_t sink = 0;
    const auto& seq = in.ops[0];
    Timestamp ts = kPhaseTsBase * 3;
    for (std::size_t i = 0; i < seq.size(); i += kSpanBatch) {
      const std::size_t n = std::min(kSpanBatch, seq.size() - i);
      Scoped s(spans, "store.read_latest", top);
      s.set_count(n);
      for (std::size_t j = i; j < i + n; ++j) {
        sink += st->read_latest(in.key(seq[j] & ~kWriteBit)).ok() ? 1 : 0;
      }
    }
    for (std::size_t i = 0; i < seq.size(); i += kSpanBatch) {
      const std::size_t n = std::min(kSpanBatch, seq.size() - i);
      Scoped s(spans, "store.write_latest", top);
      s.set_count(n);
      for (std::size_t j = i; j < i + n; ++j) {
        const std::uint32_t k = seq[j] & ~kWriteBit;
        sink += st->write_latest(in.key(k), in.value(k), ++ts).ok() ? 1 : 0;
      }
    }
    g_sink = g_sink + sink;
    spans.end(top);
  }
  spans.end(rep_span);
  return rs;
}

}  // namespace

Outcome run_store_mt(const Options& opt, SpanLog& spans, Report& report) {
  const Inputs in = make_inputs(opt.seed);

  Outcome out;
  std::vector<RepStats> plain, traced;
  run_schedule(opt, [&](bool tracing) {
    spans.set_enabled(tracing);
    RepStats rs = run_rep(in, spans, tracing);
    spans.set_enabled(false);
    out.attempted += rs.attempted;
    out.failed += rs.failed;
    out.wrong += rs.wrong;
    (tracing ? traced : plain).push_back(std::move(rs));
  });

  std::vector<RepWall> plain_walls, traced_walls;
  for (const auto& r : plain) plain_walls.push_back(r.wall);
  for (const auto& r : traced) traced_walls.push_back(r.wall);
  report.info("ops_per_repetition",
              std::to_string(std::uint64_t{kThreads} * kOpsPerThread));
  report_walls(opt, out, plain_walls, traced_walls, report);
  if (opt.trace) {
    // Hit ratio, evictions and CPU depend on the thread interleaving:
    // report the median over the traced repetitions.
    Metrics layer = traced.front().layer;
    for (auto& [name, m] : layer) {
      std::vector<double> v;
      for (const auto& r : traced) v.push_back(r.layer.at(name).value);
      m.value = median(std::move(v));
    }
    report.add(layer);
  }
  return out;
}

}  // namespace perfbench
