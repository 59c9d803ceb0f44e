// perfbench: the repository's benchmark program.
//
//   perfbench --workload aerofoil-report|sprayer-run|compile-sweep
//             --seed N --seconds S --trace 0|1 [--root DIR]
//             [--spans-out FILE]
//
// Sets the workload up several times (median -> setup_s), then runs
// whole passes over its jobs, each pass in a seed-shuffled order, until
// S seconds have passed. Host times are calibrated against a fixed
// kernel timed between jobs (calibrate.hpp). Every job checks its
// outputs. Prints a table of every metric with its unit, then, as the
// last line, one JSON object: the end-to-end metrics with --trace 0,
// the per-layer metrics (from spans around each layer call) with
// --trace 1. See README.md.
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "autocfd/mp/machine.hpp"
#include "calibrate.hpp"
#include "jobs.hpp"
#include "spans.hpp"

namespace perfbench {
namespace {

// Set-up runs at least kSetupMinReps times and until kSetupMinSeconds
// have passed, at most kSetupMaxReps times.
constexpr int kSetupMinReps = 5;
constexpr int kSetupMaxReps = 41;
constexpr double kSetupMinSeconds = 1.5;
// Seconds of jobs between two samples of the calibration kernel.
constexpr double kCalibrateEvery = 0.2;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string root = ".";
  std::string spans_out;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  // base of a ratio, "computed", sample count, ...
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile of a sample (q in (0, 1]).
double percentile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::max<std::size_t>(rank, 1) - 1];
}

std::string number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

/// FNV-1a over the deterministic outputs of every job, so runs with
/// different seeds can be compared at a glance.
struct Fingerprint {
  std::uint64_t h = 1469598103934665603ULL;
  void add(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 1099511628211ULL;
    }
  }
  void add(const std::string& s) { add(s.data(), s.size()); }
  void add(double d) { add(&d, sizeof d); }
};

bool same_outputs(const JobResult& a, const JobResult& b) {
  return a.rejected == b.rejected && a.v_par == b.v_par &&
         a.v_seq == b.v_seq && a.exact == b.exact;
}

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        args.workload = v;
      } else if (a == "--seed") {
        args.seed = std::stoull(v);
      } else if (a == "--seconds") {
        args.seconds = std::stod(v);
      } else if (a == "--trace") {
        if (v != "0" && v != "1") return false;
        args.trace = v == "1";
      } else if (a == "--root") {
        args.root = v;
      } else if (a == "--spans-out") {
        args.spans_out = v;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return !args.workload.empty() && args.seconds > 0.0;
}

// Span names whose summed duration each host-time metric reports.
struct HostMetric {
  const char* metric;
  const char* source;  // span name or JobResult::host key
  double scale;        // seconds -> unit
  const char* unit;
};
constexpr HostMetric kHostMetrics[] = {
    {"core.parallelize_ms", "core.parallelize", 1e3, "ms"},
    {"fortran.parse_ms", "fortran.parse", 1e3, "ms"},
    {"fortran.print_ms", "fortran.print", 1e3, "ms"},
    {"ir.classify_ms", "ir.classify", 1e3, "ms"},
    {"depend.analyze_ms", "depend.analyze", 1e3, "ms"},
    {"sync.plan_ms", "sync.plan", 1e3, "ms"},
    {"codegen.restructure_ms", "codegen.restructure", 1e3, "ms"},
    {"interp.image_build_ms", "interp.image_build", 1e3, "ms"},
    {"interp.seq_s", "interp.seq", 1.0, "s"},
    {"codegen.run_spmd_s", "codegen.run_spmd", 1.0, "s"},
    {"codegen.run_spmd_cpu_s", "codegen.run_spmd_cpu_s", 1.0, "s"},
    {"prof.report_ms", "prof.report", 1e3, "ms"},
};

// Deterministic counts reported as summed over the workload's jobs.
struct CountMetric {
  const char* metric;
  const char* unit;
  const char* note;
};
constexpr CountMetric kCountMetrics[] = {
    {"fortran.emitted_kb", "KiB", ""},
    {"fortran.reparse_keyword_calls", "count",
     "known defect: keyword-argument pipeline calls the parser rejects"},
    {"ir.field_loops", "count", ""},
    {"depend.edges_tested", "count", ""},
    {"depend.pairs_admitted", "count", ""},
    {"sync.points_before", "count", ""},
    {"sync.points_after", "count", ""},
    {"interp.bytecode.compile_rejects", "count", ""},
    {"interp.bytecode.walks_reduced", "count", ""},
    {"codegen.pipelined_loops", "count", ""},
    {"codegen.pipeline.messages", "count", ""},
    {"codegen.pipeline.bytes", "B", ""},
    {"codegen.pipeline.latency_vs", "vs", "computed: messages x alpha"},
    {"codegen.pipeline.wait_vs", "vs", "summed over ranks"},
    {"mp.messages", "count", ""},
    {"mp.bytes", "B", ""},
    {"mp.collectives", "count", "rank entries"},
    {"mp.collective.latency_vs", "vs",
     "computed: entries x log_cost x ceil(log2 P) x alpha"},
    {"mp.compute_vs.max", "vs", "slowest rank, summed over jobs"},
    {"mp.wait_vs", "vs", "summed over ranks"},
    {"sync.halo.messages", "count", ""},
    {"sync.halo.bytes", "B", ""},
    {"sync.halo.latency_vs", "vs", "computed: messages x alpha"},
    {"sync.halo.bytes_vs", "vs", "computed: bytes x beta"},
    {"sync.halo.wait_vs", "vs", "summed over ranks"},
    {"sync.halo.zero_byte_sites", "count", ""},
    {"prof.report_kb", "KiB", ""},
    {"trace.events", "count", ""},
};

// Facts about the emitted programs that were found by hand (ROADMAP
// items 1 and 2), with the values recorded when this benchmark was
// defined; the traced run prints them. A change that removes the dead
// allreduces or the empty exchanges changes them by design, so a
// mismatch is flagged, not counted as a failure.
struct RecordedFact {
  const char* job;
  const char* counter;
  double value;
};
constexpr RecordedFact kRecordedFacts[] = {
    {"aerofoil 2x2x1 min", "mp.collective.sites", 98},
    {"aerofoil 2x2x1 min", "mp.collectives", 784},
    {"aerofoil 2x2x1 min", "sync.halo.zero_byte_sites", 4},
    {"aerofoil 2x2x1 min", "codegen.pipeline.messages", 4264},
    {"sprayer 2x2 min", "codegen.pipeline.messages", 0},
    {"sprayer 2x2 min", "sync.halo.zero_byte_sites", 3},
};

int run(const Args& args) {
  const auto kind = parse_workload(args.workload);
  if (!kind) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
#ifndef NDEBUG
  std::fprintf(stderr,
               "perfbench: refusing to report host metrics from a build "
               "without NDEBUG (build type %s)\n",
               PERFBENCH_BUILD_TYPE);
  return 3;
#endif
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::printf("build: type=%s compiler=%s ndebug=1 nproc=%u\n",
              PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER,
              std::thread::hardware_concurrency());

  // ---- set-up: sources, directives, one warm-up job; median of reps,
  // with the calibration kernel timed before each rep and after the last.
  using Clock = std::chrono::steady_clock;
  Calibrator cal;
  std::vector<double> setup_s;
  std::vector<double> generate_s;
  Workload workload;
  const auto setup_start = Clock::now();
  for (int rep = 0;
       rep < kSetupMinReps ||
       (rep < kSetupMaxReps &&
        std::chrono::duration<double>(Clock::now() - setup_start).count() <
            kSetupMinSeconds);
       ++rep) {
    (void)cal.sample();
    const auto t0 = Clock::now();
    double gen = 0.0;
    workload = make_workload(*kind, args.root, &gen);
    Runner warmup(workload, nullptr);
    (void)warmup.run(workload.jobs.front());
    setup_s.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
    generate_s.push_back(gen);
  }
  (void)cal.sample();
  const double setup_slowdown = cal.slowdown();

  // ---- measurement: whole seed-shuffled passes for >= seconds.
  SpanRecorder spans;
  Runner runner(workload, args.trace ? &spans : nullptr);
  if (args.trace) {
    for (const auto& job : workload.jobs) (void)runner.reference_source(job);
  }
  std::mt19937_64 rng(args.seed);
  std::vector<const Job*> order;
  for (const auto& j : workload.jobs) order.push_back(&j);
  const std::size_t njobs = workload.jobs.size();
  std::vector<std::vector<JobResult>> results(njobs);
  std::vector<double> job_s;
  std::vector<std::vector<double>> job_times(njobs);
  long long attempted = 0, failed = 0;
  std::vector<std::string> failure_lines;
  std::vector<double> pass_s;
  // Per execution: its job and the last calibration sample before it.
  std::vector<std::pair<std::size_t, std::size_t>> execs;
  const std::size_t run_cal_from = cal.samples();
  (void)cal.sample();
  auto last_cal = Clock::now();
  const auto start = Clock::now();
  double elapsed = 0.0;
  int passes = 0;
  while (passes == 0 || elapsed < args.seconds) {
    const auto pass_start = Clock::now();
    std::shuffle(order.begin(), order.end(), rng);
    for (const Job* job : order) {
      const auto t0 = Clock::now();
      JobResult r;
      try {
        r = runner.run(*job);
      } catch (const std::exception& e) {
        r.failures.push_back(std::string("threw: ") + e.what());
      }
      job_s.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
      job_times[static_cast<std::size_t>(job->id)].push_back(job_s.back());
      execs.emplace_back(static_cast<std::size_t>(job->id), cal.samples() - 1);
      auto& seen = results[static_cast<std::size_t>(job->id)];
      if (!seen.empty() && !same_outputs(seen.front(), r)) {
        r.failures.push_back("outputs differ from the job's first pass");
      }
      ++attempted;
      if (!r.failures.empty()) {
        ++failed;
        for (const auto& f : r.failures) {
          failure_lines.push_back(job->key() + ": " + f);
        }
      }
      seen.push_back(std::move(r));
      if (std::chrono::duration<double>(Clock::now() - last_cal).count() >=
          kCalibrateEvery) {
        (void)cal.sample();
        last_cal = Clock::now();
      }
    }
    ++passes;
    pass_s.push_back(
        std::chrono::duration<double>(Clock::now() - pass_start).count());
    elapsed = std::chrono::duration<double>(Clock::now() - start).count();
  }
  (void)cal.sample();

  // ---- calibration: every host time below is in reference seconds,
  // the raw time divided by the host's slowdown, taken from the kernel
  // runs just before and after it.
  const double run_slowdown = cal.slowdown(run_cal_from);
  const double raw_setup_s = median(setup_s);
  const double raw_job_p50 = median(job_s);
  double raw_pass_s = 0.0;
  for (const auto& times : job_times) raw_pass_s += median(times);
  for (std::size_t i = 0; i < setup_s.size(); ++i) {
    setup_s[i] /= cal.slowdown(i, i + 2);
    generate_s[i] /= cal.slowdown(i, i + 2);
  }
  std::vector<std::size_t> nth(njobs, 0);
  for (std::size_t e = 0; e < execs.size(); ++e) {
    const auto [job, sample] = execs[e];
    const double slowdown = cal.slowdown(sample, sample + 2);
    const std::size_t k = nth[job]++;
    job_s[e] /= slowdown;
    job_times[job][k] /= slowdown;
    for (auto& [name, v] : results[job][k].host) v /= slowdown;
  }

  // ---- aggregation over canonical jobs (first pass for exact values,
  // per-job median over passes for host times).
  std::map<std::string, double> exact;
  std::map<std::string, double> host;
  double velapsed = 0.0, log_speedup = 0.0;
  int runs = 0;
  Fingerprint fp;
  for (std::size_t i = 0; i < njobs; ++i) {
    const auto& first = results[i].front();
    fp.add(workload.jobs[i].key());
    fp.add(first.rejected ? 1.0 : 0.0);
    fp.add(first.v_par);
    fp.add(first.v_seq);
    for (const auto& [k, v] : first.exact) {
      exact[k] += v;
      fp.add(k);
      fp.add(v);
    }
    if (first.v_par > 0.0) {
      velapsed += first.v_par;
      log_speedup += std::log(first.v_seq / first.v_par);
      ++runs;
    }
    std::map<std::string, std::vector<double>> per_key;
    for (const auto& r : results[i]) {
      for (const auto& [k, v] : r.host) per_key[k].push_back(v);
    }
    for (const auto& [k, v] : per_key) host[k] += median(v);
  }
  const auto ratio = [](double num, double den) {
    return den != 0.0 ? num / den : 0.0;
  };
  // Throughput of a typical pass: each job's median time over the
  // passes, summed. Robust to jobs slowed by a transient host load.
  double typical_pass_s = 0.0;
  for (const auto& times : job_times) typical_pass_s += median(times);
  const double jobs_per_s = static_cast<double>(njobs) / typical_pass_s;
  const double failed_frac =
      static_cast<double>(failed) / static_cast<double>(attempted);
  const double vspeedup = runs > 0 ? std::exp(log_speedup / runs) : 0.0;
  const std::string over_runs = " over " + std::to_string(runs) + " jobs";
  const auto m = autocfd::mp::MachineConfig::pentium_ethernet_1999();

  std::vector<Metric> e2e = {
      {"setup_s", median(setup_s), "s",
       "median of " + std::to_string(setup_s.size()) + " set-ups"},
      {"jobs_per_s", jobs_per_s, "1/s",
       std::to_string(njobs) + " jobs over " + number(typical_pass_s) +
           " s: per-job median of " + std::to_string(passes) + " passes"},
      {"job_s.p50", median(job_s), "s",
       std::to_string(job_s.size()) + " samples"},
      {"peak_rss_mb", peak_rss_mb(), "MiB", ""},
      {"syncs_after", exact["sync.points_after"], "count",
       "summed over " + std::to_string(njobs) + " jobs"},
  };
  // Reported only where they are defined; printed, not in the JSON.
  std::vector<Metric> extra = {
      {"failed_frac", failed_frac, "ratio",
       std::to_string(failed) + " of " + std::to_string(attempted) +
           " jobs"},
  };
  if (job_s.size() >= 100) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(0.9 * static_cast<double>(job_s.size())));
    extra.push_back({"job_s.p90", percentile(job_s, 0.9), "s",
                     std::to_string(job_s.size()) + " samples, " +
                         std::to_string(job_s.size() - rank) + " beyond"});
  }
  const Metric v_metrics[] = {
      {"velapsed_s", velapsed, "vs", "virtual seconds summed" + over_runs},
      {"vspeedup.geomean", vspeedup, "x",
       "geomean of virtual T_seq/T_par" + over_runs},
  };
  if (runs > 0) extra.insert(extra.end(), v_metrics, v_metrics + 2);

  std::vector<Metric> layers;
  layers.push_back({"cfd.generate_ms", 1e3 * median(generate_s), "ms",
                    "median of " + std::to_string(setup_s.size()) + " set-ups"});
  for (const auto& h : kHostMetrics) {
    layers.push_back({h.metric, h.scale * host[h.source], h.unit,
                      "per-job median over passes, summed over jobs"});
  }
  for (const auto& c : kCountMetrics) {
    layers.push_back({c.metric, exact[c.metric], c.unit, c.note});
  }
  const double interp_s = host["interp.seq"] + host["codegen.run_spmd"];
  const double flops = exact["interp.flops"] + exact["interp.seq_flops"];
  layers.push_back({"interp.mflops_per_s", ratio(flops / 1e6, interp_s),
                    "Mflop/s",
                    "of " + number(flops / 1e6) + " Mflop over " +
                        number(interp_s) + " host s"});
  layers.push_back(
      {"interp.bytecode.cache_hit_ratio",
       ratio(exact["interp.bytecode.cache_hits"],
             exact["interp.bytecode.cache_lookups"]),
       "ratio",
       "of " + number(exact["interp.bytecode.cache_lookups"]) +
           " kernel lookups (hits + compiles)"});
  layers.push_back({"codegen.host_par_eff",
                    ratio(host["codegen.run_spmd_cpu_s"],
                          host["codegen.run_spmd_rank_s"]),
                    "ratio",
                    "CPU s over wall s x ranks = " +
                        number(host["codegen.run_spmd_rank_s"]) + " s"});
  layers.push_back({"mp.bytes_per_msg",
                    ratio(exact["mp.bytes"], exact["mp.messages"]), "B",
                    "of " + number(exact["mp.messages"]) + " messages"});
  layers.push_back({"mp.imbalance",
                    ratio(exact["mp.compute_vs.max"],
                          exact["mp.compute_vs.mean"]),
                    "ratio",
                    "max over mean rank compute, base " +
                        number(exact["mp.compute_vs.mean"]) + " vs"});
  layers.push_back({"mp.comm_share",
                    ratio(exact["mp.comm_vs"], exact["mp.rank_vs"]), "ratio",
                    "comm over compute + comm, base " +
                        number(exact["mp.rank_vs"]) + " rank-vs"});
  layers.insert(layers.end(), v_metrics, v_metrics + 2);
  layers.push_back({"bench.traced_jobs_per_s", jobs_per_s, "1/s",
                    "traced; overhead = untraced jobs_per_s minus this"});
  layers.push_back({"bench.calibration_ms", 1e3 * cal.median_s(run_cal_from),
                    "ms",
                    "raw median of " +
                        std::to_string(cal.samples() - run_cal_from) +
                        " kernel runs; reference " +
                        number(1e3 * Calibrator::kReferenceSeconds) + " ms"});

  // ---- report.
  std::printf("machine: alpha=%g s/msg beta=%g s/B log_cost=%d (%s)\n",
              m.net_latency, m.net_byte_time, m.collective_log_cost,
              "pentium_ethernet_1999");
  std::printf("jobs: %zu per pass, %d passes, %lld attempted, %lld failed\n",
              njobs, passes, attempted, failed);
  std::printf(
      "host speed: calibration kernel median %.3f ms over %zu runs "
      "(reference %.3f ms): slowdown %.4f in the run, %.4f in set-up\n",
      1e3 * cal.median_s(run_cal_from), cal.samples() - run_cal_from,
      1e3 * Calibrator::kReferenceSeconds, run_slowdown, setup_slowdown);
  std::printf(
      "raw host times: setup_s %s s, job_s.p50 %s s, jobs_per_s %s 1/s\n",
      number(raw_setup_s).c_str(), number(raw_job_p50).c_str(),
      number(static_cast<double>(njobs) / raw_pass_s).c_str());
  std::printf("pass seconds (raw):");
  for (const double s : pass_s) std::printf(" %.3f", s);
  std::printf("\nset-up seconds (reference):");
  for (const double s : setup_s) std::printf(" %.3f", s);
  std::printf("\n");
  for (std::size_t i = 0; i < failure_lines.size() && i < 20; ++i) {
    std::printf("FAILED %s\n", failure_lines[i].c_str());
  }
  if (exact["fortran.reparse_keyword_calls"] > 0) {
    std::printf(
        "KNOWN DEFECT: %s emitted pipeline calls use keyword arguments "
        "that fortran::parse_source rejects; the re-parse check rewrites "
        "them to positional arguments (see README.md)\n",
        number(exact["fortran.reparse_keyword_calls"]).c_str());
  }
  std::printf("virtual fingerprint: %016llx\n",
              static_cast<unsigned long long>(fp.h));
  if (args.trace) {
    for (const auto& f : kRecordedFacts) {
      for (std::size_t i = 0; i < njobs; ++i) {
        if (workload.jobs[i].key() != f.job) continue;
        const auto& ex = results[i].front().exact;
        const auto it = ex.find(f.counter);
        const double got = it == ex.end() ? 0.0 : it->second;
        std::printf("fact %s %s = %s (recorded %s)%s\n", f.job, f.counter,
                    number(got).c_str(), number(f.value).c_str(),
                    got == f.value ? "" : "  <- differs from the record");
      }
    }
  }
  const auto print = [](const char* title, const std::vector<Metric>& ms) {
    std::printf("%s\n", title);
    for (const auto& x : ms) {
      std::printf("  %-34s %18s %-8s %s\n", x.name.c_str(),
                  number(x.value).c_str(), x.unit.c_str(), x.note.c_str());
    }
  };
  print("end-to-end:", e2e);
  print("end-to-end (printed only):", extra);
  if (args.trace) print("per-layer (traced run):", layers);

  if (args.trace && !args.spans_out.empty()) {
    std::ofstream out(args.spans_out);
    spans.write_json(out, {{"workload", args.workload},
                           {"seed", std::to_string(args.seed)},
                           {"build_type", PERFBENCH_BUILD_TYPE},
                           {"compiler", PERFBENCH_COMPILER},
                           {"nproc", std::to_string(
                                         std::thread::hardware_concurrency())}});
    if (!out) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   args.spans_out.c_str());
      return 1;
    }
  }

  const auto& out = args.trace ? layers : e2e;
  std::string json = "{\"correct\": " + std::string(failed == 0 ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < out.size(); ++i) {
    json += (i > 0 ? ", \"" : "\"") + out[i].name + "\": {\"value\": " +
            number(out[i].value) + ", \"unit\": \"" + out[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--root DIR] [--spans-out FILE]\n");
    return 2;
  }
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
