#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>

#include "common/hash.h"

namespace perfbench {

std::string make_key(std::uint64_t seed, std::uint64_t i) {
  constexpr std::uint64_t kSpace = 1000000000000000ULL;  // 10^15
  // Odd and not a multiple of 5, so coprime to 10^15: i ↦ a·i + b is a
  // bijection on [0, 10^15).
  constexpr std::uint64_t kA = 614889782588491ULL;
  const std::uint64_t b = sedna::mix64(seed) % kSpace;
  const auto v = static_cast<std::uint64_t>(
      (static_cast<unsigned __int128>(kA) * i + b) % kSpace);
  char buf[32];
  std::snprintf(buf, sizeof buf, "test-%015llu",
                static_cast<unsigned long long>(v));
  return buf;
}

std::int64_t process_cpu_ns() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto tv_ns = [](const timeval& tv) {
    return static_cast<std::int64_t>(tv.tv_sec) * 1000000000LL +
           static_cast<std::int64_t>(tv.tv_usec) * 1000LL;
  };
  return tv_ns(ru.ru_utime) + tv_ns(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void SpanLog::merge(const SpanLog& other, std::uint32_t parent) {
  if (!enabled_) return;
  const auto base = static_cast<std::uint32_t>(spans_.size());
  for (Span s : other.spans_) {
    s.parent = s.parent == 0 ? parent : s.parent + base;
    spans_.push_back(s);
  }
}

bool SpanLog::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id,parent,op,name,start_ns,end_ns,count\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%zu,%u,%llu,%s,%lld,%lld,%llu\n", i + 1, s.parent,
                 static_cast<unsigned long long>(s.op), s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<unsigned long long>(s.count));
  }
  return std::fclose(f) == 0;
}

double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0;
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const auto idx = static_cast<std::size_t>(
      std::clamp(rank, 1.0, static_cast<double>(v.size()))) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx),
                   v.end());
  return v[idx];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void Report::add(const std::string& name, double value,
                 const std::string& unit) {
  char buf[256];
  std::snprintf(buf, sizeof buf, "%s %.10g %s", name.c_str(), value,
                unit.c_str());
  lines_.emplace_back(buf);
}

void Report::add(const Metrics& metrics) {
  for (const auto& [name, m] : metrics) add(name, m.value, m.unit);
}

void Report::info(const std::string& key, const std::string& value) {
  lines_.push_back("# " + key + ": " + value);
}

void Report::print() const {
  for (const auto& line : lines_) std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

void set_latencies(RepWall& w, std::vector<double>& read_us,
                   std::vector<double>& write_us) {
  w.reads = read_us.size();
  w.writes = write_us.size();
  w.read_p50_us = quantile(read_us, 0.50);
  w.read_p99_us = quantile(read_us, 0.99);
  w.write_p50_us = quantile(write_us, 0.50);
  w.write_p99_us = quantile(write_us, 0.99);
}

void report_walls(const Options& opt, const Outcome& out,
                  const std::vector<RepWall>& plain,
                  const std::vector<RepWall>& traced, Report& report) {
  auto med = [&plain](double RepWall::*field) {
    std::vector<double> v;
    for (const auto& r : plain) v.push_back(r.*field);
    return median(std::move(v));
  };
  std::string walls;
  for (const auto* reps : {&plain, &traced}) {
    for (const auto& r : *reps) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%s%.3f/%.3f", walls.empty() ? "" : " ",
                    r.setup_s, r.phase_s);
      walls += buf;
    }
  }
  report.info("repetitions", std::to_string(plain.size()) + " untraced, " +
                                 std::to_string(traced.size()) + " traced");
  report.info("setup_s/phase_s_by_repetition", walls);
  report.info("read_samples_per_repetition",
              std::to_string(plain.front().reads));
  report.info("write_samples_per_repetition",
              std::to_string(plain.front().writes));

  if (!opt.trace) {
    std::vector<double> ops_per_s;
    for (const auto& r : plain) {
      ops_per_s.push_back(static_cast<double>(r.reads + r.writes) / r.phase_s);
    }
    report.add("ops_per_s", median(ops_per_s), "ops/s");
    report.add("read_p50_us", med(&RepWall::read_p50_us), "us");
    report.add("read_p99_us", med(&RepWall::read_p99_us), "us");
    report.add("write_p50_us", med(&RepWall::write_p50_us), "us");
    report.add("write_p99_us", med(&RepWall::write_p99_us), "us");
    report.add("setup_s", med(&RepWall::setup_s), "s");
  } else {
    std::vector<double> overhead;
    for (std::size_t i = 0; i < traced.size(); ++i) {
      overhead.push_back(traced[i].phase_s / plain[i].phase_s - 1);
    }
    report.add("trace.overhead_frac", median(overhead), "ratio");
  }
  report.add("failed_frac",
             ratio(static_cast<double>(out.failed + out.wrong),
                   static_cast<double>(out.attempted)),
             "ratio");
}

bool Fingerprint::same_as(const Fingerprint& first, int rep) const {
  bool same = values_ == first.values_;
  if (!same) {
    for (const auto& [name, v] : values_) {
      const auto it = first.values_.find(name);
      const double f = it == first.values_.end() ? NAN : it->second;
      if (!(f == v)) {
        std::fprintf(stderr,
                     "determinism check FAILED: %s = %.17g on repetition %d, "
                     "%.17g on repetition 0\n",
                     name.c_str(), v, rep, f);
      }
    }
  }
  return same;
}

}  // namespace perfbench
