// The benchmark's workloads and jobs.
//
// A workload is a fixed list of jobs. A job is one compile
// (compile-sweep) or one compile + SPMD run + sequential reference +
// bit-exact validation (aerofoil-report, sprayer-run). Every job checks
// its own outputs; a failed check is recorded in JobResult::failures
// and counts in failed_frac.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "autocfd/core/directives.hpp"
#include "autocfd/partition/grid.hpp"
#include "autocfd/sync/sync_plan.hpp"
#include "spans.hpp"

namespace perfbench {

enum class WorkloadKind { AerofoilReport, SprayerRun, CompileSweep };

[[nodiscard]] std::optional<WorkloadKind> parse_workload(std::string_view name);

/// One input program of a workload, with its directives extracted once.
struct Program {
  std::string name;
  std::string source;
  autocfd::core::Directives dirs;
};

struct Job {
  int id = 0;  // canonical index within the workload
  const Program* program = nullptr;
  autocfd::partition::PartitionSpec spec;
  autocfd::sync::CombineStrategy strategy = autocfd::sync::CombineStrategy::Min;

  [[nodiscard]] std::string key() const;  // "aerofoil.f 2x2x1 min"
};

struct Workload {
  WorkloadKind kind = WorkloadKind::CompileSweep;
  std::vector<std::unique_ptr<Program>> programs;
  std::vector<Job> jobs;
};

/// Builds the workload's sources and job list. `generate_s` receives
/// the seconds spent in the cfd source generators (0 for compile-sweep,
/// whose inputs are the committed examples read from `root`).
[[nodiscard]] Workload make_workload(WorkloadKind kind,
                                     const std::string& root,
                                     double* generate_s);

struct JobResult {
  /// The compiler refused the partition (compile-sweep only; expected
  /// for the recorded set of partitions, a failure otherwise).
  bool rejected = false;
  /// Output checks that did not hold; empty for a correct job.
  std::vector<std::string> failures;
  /// Virtual (simulated 1999 cluster) seconds of the SPMD run and of
  /// the sequential reference; 0 for compile-only jobs.
  double v_par = 0.0;
  double v_seq = 0.0;
  /// Deterministic outputs: virtual-time splits and counts. They must
  /// repeat exactly across passes and seeds.
  std::map<std::string, double> exact;
  /// Host seconds per layer, from the spans of the traced run.
  std::map<std::string, double> host;
};

/// Runs jobs. With a span recorder (the traced run) the compile is
/// split into its public calls, each under a span, and the printed
/// source is checked against core::parallelize's (drift guard).
class Runner {
 public:
  Runner(const Workload& workload, SpanRecorder* spans)
      : workload_(workload), spans_(spans) {}

  [[nodiscard]] JobResult run(const Job& job);

  /// core::parallelize's printed source for `job`, or nullopt when it
  /// rejects the job; computed once per job and kept for the drift
  /// guard of the traced run.
  const std::optional<std::string>& reference_source(const Job& job);

 private:
  JobResult run_compile(const Job& job);
  JobResult run_runtime(const Job& job);

  const Workload& workload_;
  SpanRecorder* spans_;
  std::map<int, std::optional<std::string>> reference_;
};

}  // namespace perfbench
