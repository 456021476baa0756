#include <malloc.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <stdexcept>

#include "campaign_bench/src/bench.h"
#include "src/util/thread_pool.h"

namespace cb {

double Now() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - origin).count();
}

uint64_t DeriveSeed(uint64_t seed, uint64_t salt) {
  // splitmix64 finalizer over the pair.
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + salt * 0xBF58476D1CE4E5B9ULL + 0x5EEDULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

void Report::Add(const std::string& name, double value, const std::string& unit) {
  metrics_[name] = {value, unit};
}

void Report::Operation(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::cerr << "campaign_bench: FAILED: " << what << "\n";
  }
}

namespace {

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void Report::Print() const {
  for (const auto& [name, e] : metrics_) {
    std::printf("  %-32s %14.6g %s\n", name.c_str(), e.value, e.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += ok() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, e] : metrics_) {
    if (!first) json += ", ";
    first = false;
    json += "\"" + name + "\": {\"value\": " + JsonNumber(e.value) + ", \"unit\": \"" +
            e.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

Tracer& Tracer::Off() {
  static Tracer off(false);
  return off;
}

int Tracer::Begin(const std::string& name, int parent) {
  if (!enabled_) {
    return -1;
  }
  const double t = Now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, t, t, parent});
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::End(int id) {
  if (id < 0) {
    return;
  }
  const double t = Now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end = t;
}

void Tracer::Record(const std::string& name, double start, double end, int parent) {
  if (!enabled_) {
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, start, end, parent});
}

double Tracer::Total(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  double total = 0.0;
  for (const Span& s : spans_) {
    if (s.name == name) total += s.end - s.start;
  }
  return total;
}

double Tracer::Mean(const std::string& name) const {
  int64_t count = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    count = std::count_if(spans_.begin(), spans_.end(),
                          [&](const Span& s) { return s.name == name; });
  }
  return count == 0 ? 0.0 : Total(name) / static_cast<double>(count);
}

void Tracer::Write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\": " << i << ", \"name\": \"" << s.name << "\", \"start\": "
        << JsonNumber(s.start) << ", \"end\": " << JsonNumber(s.end)
        << ", \"parent\": " << s.parent << "}\n";
  }
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(values.size() - 1, lo + 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double Median(const std::vector<double>& values) { return Quantile(values, 0.5); }

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // Reported in kB.
    }
  }
  return 0.0;
}

void ResetPeakRss() { std::ofstream("/proc/self/clear_refs") << "5"; }

std::string RunInChild(const std::function<std::string()>& fn) {
  int fds[2];
  if (pipe(fds) != 0) {
    throw std::runtime_error("pipe failed");
  }
  Now();  // Fixes the clock origin, so the child's times are comparable.
  std::fflush(stdout);
  const pid_t pid = fork();
  if (pid < 0) {
    throw std::runtime_error("fork failed");
  }
  if (pid == 0) {
    close(fds[0]);
    int code = 0;
    try {
      const std::string out = fn();
      for (size_t done = 0; done < out.size();) {
        const ssize_t n = write(fds[1], out.data() + done, out.size() - done);
        if (n <= 0) {
          code = 1;
          break;
        }
        done += static_cast<size_t>(n);
      }
    } catch (const std::exception& e) {
      std::cerr << "campaign_bench: child process: " << e.what() << "\n";
      code = 1;
    }
    std::fflush(stdout);
    _exit(code);
  }
  close(fds[1]);
  std::string out;
  char buf[4096];
  for (ssize_t n; (n = read(fds[0], buf, sizeof(buf))) != 0;) {
    if (n > 0) {
      out.append(buf, static_cast<size_t>(n));
    } else if (errno != EINTR) {
      break;
    }
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("child process failed");
  }
  return out;
}

void Digest::Bytes(const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h_ ^= p[i];
    h_ *= 0x100000001b3ULL;
  }
}

void Digest::Stats(const dx::RunStats& stats) {
  for (const dx::GeneratedTest& t : stats.tests) {
    Bytes(t.input.data(), static_cast<size_t>(t.input.numel()) * sizeof(float));
    Bytes(t.labels.data(), t.labels.size() * sizeof(int));
    Bytes(t.outputs.data(), t.outputs.size() * sizeof(float));
    Pod(t.seed_index);
    Pod(t.iterations);
    Pod(t.deviating_model);
    Pod(t.task_ordinal);
  }
  Pod(stats.tests.size());
  Pod(stats.seeds_tried);
  Pod(stats.seeds_skipped);
  Pod(stats.total_iterations);
  Pod(stats.forward_passes);
  Pod(stats.mean_coverage);
}

namespace {

// Cross-run determinism check: the first run of a (benchmark build, workload,
// seed, leg kind) records its result digest under work_dir/digests/, and
// every later run of the same build and seed must reproduce it. Counts one
// operation in `report`.
void CheckRecordedDigest(const Args& args, const std::string& leg, uint64_t digest,
                         Report& report) {
  // The build is identified by the bytes of this executable.
  static const uint64_t build = [] {
    std::ifstream exe("/proc/self/exe", std::ios::binary);
    Digest d;
    char buf[1 << 16];
    while (exe.read(buf, sizeof(buf)) || exe.gcount() > 0) {
      d.Bytes(buf, static_cast<size_t>(exe.gcount()));
    }
    return d.value();
  }();
  char name[128];
  std::snprintf(name, sizeof(name), "%016llx-%s-%llu-%s", static_cast<unsigned long long>(build),
                args.workload.c_str(), static_cast<unsigned long long>(args.seed), leg.c_str());
  const std::filesystem::path dir = std::filesystem::path(args.work_dir) / "digests";
  std::filesystem::create_directories(dir);
  const std::filesystem::path path = dir / name;
  uint64_t recorded = 0;
  std::ifstream in(path);
  if (in >> std::hex >> recorded) {
    report.Operation(recorded == digest, leg + " result digest differs from an earlier run of "
                                               "seed " + std::to_string(args.seed));
    return;
  }
  std::ofstream(path) << std::hex << digest << "\n";
  report.Operation(true);
}

}  // namespace

void MeasureEndToEnd(const Args& args, const EndToEndPlan& plan, Report& report) {
  const double start = Now();
  std::vector<double> setups;
  for (int i = 0; i < plan.setups; ++i) {
    setups.push_back(plan.setup());
  }
  std::vector<double> tests_per_s, latency_ms, leg_seconds, peak_rss;
  std::vector<LegOutcome> firsts;  // The first leg of each variant.
  while (static_cast<int>(leg_seconds.size()) < plan.min_legs ||
         Now() - start + Median(leg_seconds) <= args.seconds) {
    const double leg_start = Now();
    const int index = static_cast<int>(leg_seconds.size());
    // Each leg's peak RSS, from a trimmed heap: free memory the allocator
    // kept from earlier legs or the warm-up does not count. A whole-run peak
    // varied by several MiB between runs of one seed, so the median over
    // legs is reported.
    malloc_trim(0);
    ResetPeakRss();
    LegOutcome leg = plan.leg(index);
    peak_rss.push_back(PeakRssMb());
    tests_per_s.push_back(static_cast<double>(leg.tests) / leg.wall);
    latency_ms.insert(latency_ms.end(), leg.latency_ms.begin(), leg.latency_ms.end());
    const int variant = index % plan.variants;
    if (index < plan.variants) {
      report.Operation(leg.tests > 0, "the first leg of a variant found no test");
      CheckRecordedDigest(args, "full" + std::to_string(variant), leg.digest, report);
      firsts.push_back(std::move(leg));
    } else {
      report.Operation(leg.digest == firsts[static_cast<size_t>(variant)].digest,
                       "timed leg " + std::to_string(index + 1) +
                           ": result digest differs from the first leg of its variant");
    }
    leg_seconds.push_back(Now() - leg_start);
  }
  // Search quality over one leg of each variant (exact for a seed).
  int tests = 0, seeds_tried = 0;
  double coverage = 0.0;
  for (const LegOutcome& leg : firsts) {
    tests += leg.tests;
    seeds_tried += leg.seeds_tried;
    coverage += leg.final_coverage / static_cast<double>(firsts.size());
  }
  std::printf("setups=%zu legs=%zu variants=%zu tests=%d (first leg of each variant) "
              "latency samples=%zu (%zu beyond p90) digest=%016llx\n",
              setups.size(), leg_seconds.size(), firsts.size(), tests, latency_ms.size(),
              latency_ms.size() / 10, static_cast<unsigned long long>(firsts[0].digest));
  report.Add("tests_per_s", Median(tests_per_s), "1/s");
  report.Add("test_latency_ms_p50", Quantile(latency_ms, 0.5), "ms");
  report.Add("test_latency_ms_p90", Quantile(latency_ms, 0.9), "ms");
  report.Add("setup_s", Median(setups), "s");
  report.Add("peak_rss_mb", Median(peak_rss), "MiB");
  report.Add("diff_rate", static_cast<double>(tests) / std::max(1, seeds_tried), "ratio");
  report.Add("final_coverage", coverage, "ratio");
}

void MeasureTraceOverhead(const Args& args, const std::string& registry_leg,
                          const std::function<LegOutcome(bool)>& leg,
                          const std::function<uint64_t()>& invariance_leg, Report& report) {
  std::vector<double> walls[2];
  uint64_t digest = 0;
  for (const bool traced : {false, true, true, false}) {
    const LegOutcome l = leg(traced);
    if (walls[0].empty() && walls[1].empty()) {
      digest = l.digest;
      CheckRecordedDigest(args, registry_leg, digest, report);
    } else {
      report.Operation(l.digest == digest, "traced-run leg: result digest differs");
    }
    walls[traced].push_back(l.wall);
  }
  report.Operation(invariance_leg() == digest,
                   "invariance leg (another worker count and chunk width): result digest "
                   "differs");
  report.Add("trace.overhead_frac", Median(walls[1]) / Median(walls[0]) - 1.0, "ratio");
}

void RunAsWorker(const std::function<void()>& fn) {
  // A two-index loop on a one-thread pool: the caller runs index 0 inside
  // the pool's region (ThreadPool::InParallelRegion() is true there), the
  // worker gets the empty index 1.
  dx::ThreadPool pool(1);
  pool.ParallelFor(2, [&](int64_t i) {
    if (i == 0) fn();
  });
}

}  // namespace cb
