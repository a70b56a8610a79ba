// Shared plumbing for the wall-clock benchmark: clocks, the in-memory span
// log, sample statistics, the metric report and the determinism check.
//
// Everything here lives on the benchmark side. The program under test is
// only ever called through its public headers; spans are recorded around
// those calls, never inside them.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic wall clock in nanoseconds.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double ns_to_s(std::int64_t ns) {
  return static_cast<double>(ns) * 1e-9;
}
inline double ns_to_us(std::int64_t ns) {
  return static_cast<double>(ns) * 1e-3;
}
/// num / den, 0 when den is 0.
inline double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// 20-byte key "test-" + 15 pseudo-random digits. Distinct for distinct
/// i (an affine bijection modulo 10^15), so keys never collide by accident.
std::string make_key(std::uint64_t seed, std::uint64_t i);

/// Process CPU time (user + system) in nanoseconds.
std::int64_t process_cpu_ns();
/// Peak resident set size of this process in MB.
double peak_rss_mb();

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Span file written at exit when tracing.
  std::string spans_path;
  /// Scratch directory for files the workload writes (WAL).
  std::string tmp_dir;
};

/// One recorded span. `count` is the number of calls a span aggregates
/// (1 for a single call; a batch span around k calls carries k).
struct Span {
  const char* name = "";
  std::uint32_t parent = 0;  // span id (index + 1); 0 = root
  std::uint64_t op = 0;      // request id shared by one op's spans; 0 = none
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t count = 1;
};

/// In-memory span collector. Disabled → every call is a no-op returning
/// span id 0. Not thread-safe: multi-threaded workloads keep one per
/// thread and merge() afterwards.
class SpanLog {
 public:
  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  std::uint32_t begin(const char* name, std::uint32_t parent = 0,
                      std::uint64_t op = 0) {
    if (!enabled_) return 0;
    spans_.push_back(Span{name, parent, op, now_ns(), 0, 1});
    return static_cast<std::uint32_t>(spans_.size());
  }
  void end(std::uint32_t id, std::uint64_t count = 1) {
    if (id == 0) return;
    Span& s = spans_[id - 1];
    s.end_ns = now_ns();
    s.count = count;
  }
  /// Appends `other`'s spans, re-basing their ids; spans of `other`
  /// without a parent get `parent`.
  void merge(const SpanLog& other, std::uint32_t parent);

  /// Writes one CSV line per span: id,parent,op,name,start_ns,end_ns,count.
  bool write(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
};

/// RAII span.
class Scoped {
 public:
  Scoped(SpanLog& log, const char* name, std::uint32_t parent = 0,
         std::uint64_t op = 0)
      : log_(log), id_(log.begin(name, parent, op)) {}
  ~Scoped() { log_.end(id_, count_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  void set_count(std::uint64_t n) { count_ = n; }

 private:
  SpanLog& log_;
  std::uint32_t id_;
  std::uint64_t count_ = 1;
};

/// Replays add their results here so the compiler cannot drop the calls.
inline volatile std::uint64_t g_sink = 0;

/// q-quantile (0..1) by nearest rank; reorders `v`. 0 for an empty set.
double quantile(std::vector<double>& v, double q);
double median(std::vector<double> v);

/// A metric value with its unit.
struct Metric {
  double value = 0;
  const char* unit = "";
};
using Metrics = std::map<std::string, Metric>;

/// Metrics printed as `name value unit` lines.
class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  void add(const Metrics& metrics);
  void info(const std::string& key, const std::string& value);
  void print() const;

 private:
  std::vector<std::string> lines_;
};

/// Deterministic outputs of one repetition. Every repetition of a seed
/// must produce the same fingerprint; a mismatch fails the run.
class Fingerprint {
 public:
  void set(const std::string& name, double value) { values_[name] = value; }
  /// Returns false (after printing the differences) on any mismatch.
  bool same_as(const Fingerprint& first, int rep) const;

 private:
  std::map<std::string, double> values_;
};

/// Pass/fail totals of the whole run.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  // non-ok status
  std::uint64_t wrong = 0;   // ok status but wrong value
  bool deterministic = true;
};

/// Wall-clock results of one repetition.
struct RepWall {
  double setup_s = 0;
  double phase_s = 0;
  std::uint64_t reads = 0, writes = 0;
  double read_p50_us = 0, read_p99_us = 0;
  double write_p50_us = 0, write_p99_us = 0;
};

/// Sets the percentiles of `w` from per-op latency samples (microseconds);
/// reorders the samples.
void set_latencies(RepWall& w, std::vector<double>& read_us,
                   std::vector<double>& write_us);

/// Prints what every workload reports: context lines, then either the
/// end-to-end metrics (medians over the untraced repetitions) or
/// trace.overhead_frac (traced[i] ran right after plain[i]), and
/// failed_frac.
void report_walls(const Options& opt, const Outcome& out,
                  const std::vector<RepWall>& plain,
                  const std::vector<RepWall>& traced, Report& report);

/// Repetition schedule shared by the workloads: `one(traced)` runs one
/// repetition, and repetitions continue until --seconds have passed.
/// Untraced mode: at least kMinReps untraced repetitions. Traced mode:
/// kTracedReps pairs of an untraced repetition followed by a traced one,
/// so trace.overhead_frac compares neighbours; untraced after that.
constexpr int kMinReps = 3;
constexpr int kTracedReps = 2;

template <class Fn>
void run_schedule(const Options& opt, Fn&& one) {
  const std::int64_t t0 = now_ns();
  int plain = 0, traced = 0;
  const int min_plain = opt.trace ? kTracedReps : kMinReps;
  while (plain < min_plain || (opt.trace && traced < kTracedReps) ||
         ns_to_s(now_ns() - t0) < opt.seconds) {
    const bool tracing = opt.trace && traced < kTracedReps && plain > traced;
    one(tracing);
    ++(tracing ? traced : plain);
  }
}

/// Workload entry points. Each fills `report` with the metrics of its
/// mode (end-to-end untraced, per-layer traced) and returns the totals.
Outcome run_fig8_rw(const Options& opt, SpanLog& spans, Report& report);
Outcome run_skew_churn(const Options& opt, SpanLog& spans, Report& report);
Outcome run_store_mt(const Options& opt, SpanLog& spans, Report& report);

}  // namespace perfbench
