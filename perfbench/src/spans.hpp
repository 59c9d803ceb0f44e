// In-memory span recorder for the benchmark's traced run.
//
// A span is one timed call into a layer of the program (or one job of
// the benchmark), recorded from the benchmark's own files around the
// public call. Spans nest: each span names its parent, and every span
// of one job carries the job's execution index, so a layer's self time
// is its duration minus the part its child spans cover. Spans stay in
// memory until the run ends, then are written out as one JSON file.
#pragma once

#include <chrono>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

class SpanRecorder {
 public:
  struct Span {
    int parent = -1;  // index of the enclosing span, -1 for a root
    int exec = -1;    // job execution index (all spans of one job share it)
    std::string name;
    double t0 = 0.0;  // seconds since the recorder was created
    double t1 = 0.0;
  };

  /// RAII span: opens on construction, closes on destruction. A scope
  /// made from a null recorder records nothing, so untraced code paths
  /// run the same calls without a branch at every site.
  class Scope {
   public:
    Scope(SpanRecorder* rec, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* rec_;
    int index_ = -1;
  };

  SpanRecorder() : origin_(std::chrono::steady_clock::now()) {}

  /// Starts a new job execution; later spans are tagged with its index.
  void begin_exec() { ++exec_; }
  [[nodiscard]] std::size_t size() const { return spans_.size(); }

  /// Inclusive duration (seconds) per span name over spans[from, end).
  [[nodiscard]] std::map<std::string, double> totals_since(
      std::size_t from) const;

  /// Per-name call count, inclusive and self seconds over all spans.
  struct NameTotals {
    long long calls = 0;
    double inclusive_s = 0.0;
    double self_s = 0.0;
  };
  [[nodiscard]] std::map<std::string, NameTotals> name_totals() const;

  /// Writes {"meta": ..., "by_name": ..., "spans": [...]}.
  void write_json(std::ostream& os,
                  const std::map<std::string, std::string>& meta) const;

 private:
  [[nodiscard]] double now() const;

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
  int exec_ = -1;
};

}  // namespace perfbench
