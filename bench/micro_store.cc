// Microbenchmarks (google-benchmark, real threads, wall-clock): the
// LocalStore engine, ring lookups, codec and checksum primitives. These
// are the per-operation costs underneath every simulated service time.
#include <benchmark/benchmark.h>

#include <string>
#include <thread>
#include <vector>

#include "common/codec.h"
#include "common/crc32.h"
#include "ring/rebalancer.h"
#include "ring/vnode_table.h"
#include "store/local_store.h"
#include "workload/kv_workload.h"

namespace {

using sedna::store::LocalStore;
using sedna::store::LocalStoreConfig;
using sedna::workload::KvWorkload;

// Keys of the set/get benchmarks, formatted before any timed loop so the
// figures measure the store rather than KvWorkload::key().
constexpr std::size_t kStoreKeys = 100000;

std::vector<std::string> store_keys(const KvWorkload& wl) {
  std::vector<std::string> keys;
  keys.reserve(kStoreKeys);
  for (std::size_t i = 0; i < kStoreKeys; ++i) keys.push_back(wl.key(i));
  return keys;
}

void BM_StoreSet(benchmark::State& state) {
  LocalStore store;
  KvWorkload wl;
  const std::vector<std::string> keys = store_keys(wl);
  std::uint64_t i = 0;
  for (auto _ : state) {
    store.set(keys[i % kStoreKeys], wl.value());
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(i));
}
BENCHMARK(BM_StoreSet);

void BM_StoreGetHit(benchmark::State& state) {
  LocalStore store;
  KvWorkload wl;
  const std::vector<std::string> keys = store_keys(wl);
  for (const std::string& key : keys) store.set(key, wl.value());
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.get(keys[i % kStoreKeys]));
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(i));
}
BENCHMARK(BM_StoreGetHit);

void BM_StoreGetMiss(benchmark::State& state) {
  LocalStore store;
  KvWorkload wl;
  const std::vector<std::string> keys = store_keys(wl);
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.get(keys[i % kStoreKeys]));
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(i));
}
BENCHMARK(BM_StoreGetMiss);

void BM_StoreWriteLatestLww(benchmark::State& state) {
  LocalStore store;
  KvWorkload wl;
  std::uint64_t ts = 1;
  for (auto _ : state) {
    store.write_latest(wl.key(ts % 4096), wl.value(), ts);
    ++ts;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(ts));
}
BENCHMARK(BM_StoreWriteLatestLww);

void BM_StoreWriteAll(benchmark::State& state) {
  LocalStore store;
  KvWorkload wl;
  std::uint64_t ts = 1;
  for (auto _ : state) {
    store.write_all(wl.key(ts % 4096), ts % 9, wl.value(), ts);
    ++ts;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(ts));
}
BENCHMARK(BM_StoreWriteAll);

void BM_StoreCas(benchmark::State& state) {
  LocalStore store;
  store.set("k", "v0");
  for (auto _ : state) {
    auto got = store.gets("k");
    benchmark::DoNotOptimize(store.cas("k", "v1", got->second));
  }
}
BENCHMARK(BM_StoreCas);

void BM_StoreSetWithChangeCapture(benchmark::State& state) {
  LocalStoreConfig cfg;
  cfg.track_changes = true;
  LocalStore store(cfg);
  KvWorkload wl;
  std::uint64_t i = 0;
  for (auto _ : state) {
    store.set(wl.key(i % 4096), wl.value());
    if ((++i & 0x3ff) == 0) {
      benchmark::DoNotOptimize(store.drain_changes());
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(i));
}
BENCHMARK(BM_StoreSetWithChangeCapture);

void BM_StoreEvictionUnderBudget(benchmark::State& state) {
  LocalStoreConfig cfg;
  cfg.memory_budget_bytes = 1 << 20;  // 1 MiB forces steady-state eviction
  LocalStore store(cfg);
  KvWorkload wl;
  std::uint64_t i = 0;
  for (auto _ : state) {
    store.set(wl.key(i), wl.value());
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(i));
  state.counters["evictions"] =
      static_cast<double>(store.stats().evictions);
}
BENCHMARK(BM_StoreEvictionUnderBudget);

void BM_StoreConcurrentSet(benchmark::State& state) {
  static LocalStore* store = nullptr;
  if (state.thread_index() == 0) {
    LocalStoreConfig cfg;
    cfg.shards = 16;
    store = new LocalStore(cfg);
  }
  KvWorkload wl{{14, 20, static_cast<std::uint64_t>(state.thread_index())}};
  std::uint64_t i = 0;
  for (auto _ : state) {
    store->set(wl.key(i % 65536), wl.value());
    ++i;
  }
  if (state.thread_index() == 0) {
    delete store;
    store = nullptr;
  }
}
BENCHMARK(BM_StoreConcurrentSet)->Threads(1)->Threads(2)->Threads(4);

void BM_RingLookup(benchmark::State& state) {
  std::vector<sedna::NodeId> nodes;
  for (sedna::NodeId n = 0; n < 16; ++n) nodes.push_back(n);
  const auto table = sedna::ring::Rebalancer::initial_assignment(
      static_cast<std::uint32_t>(state.range(0)), 3, nodes);
  KvWorkload wl;
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.replicas_for_key(wl.key(i++ % 10000)));
  }
}
BENCHMARK(BM_RingLookup)->Arg(1024)->Arg(8192)->Arg(100000);

void BM_CodecRoundTrip(benchmark::State& state) {
  KvWorkload wl;
  for (auto _ : state) {
    sedna::BinaryWriter w;
    w.put_u8(1);
    w.put_string(wl.key(7));
    w.put_string(wl.value());
    w.put_u64(123456789);
    const std::string buf = std::move(w).take();
    sedna::BinaryReader r(buf);
    benchmark::DoNotOptimize(r.get_u8());
    benchmark::DoNotOptimize(r.get_string());
    benchmark::DoNotOptimize(r.get_string());
    benchmark::DoNotOptimize(r.get_u64());
  }
}
BENCHMARK(BM_CodecRoundTrip);

void BM_Crc32(benchmark::State& state) {
  const std::string data(static_cast<std::size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(sedna::crc32(data));
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() * data.size()));
}
BENCHMARK(BM_Crc32)->Arg(64)->Arg(4096);

}  // namespace

BENCHMARK_MAIN();
