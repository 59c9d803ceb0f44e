// Host-speed calibration.
//
// The benchmark's host times are reported at a fixed reference speed.
// On a shared virtual machine the vCPU speed itself drifts by tens of
// percent over minutes, which would put every host-time metric at the
// mercy of when it ran. So a fixed reference kernel, part of the
// benchmark and independent of the program under test, is timed
// between jobs. The ratio of its time to kReferenceSeconds measures how
// fast the host ran at that moment, and every host time is divided by
// the median ratio of the kernel runs just before and after it. A
// change to the program cannot move the kernel, so it moves the
// calibrated times as it moves the raw ones. The raw figures and the
// kernel's median are printed beside them.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class Calibrator {
 public:
  /// What the kernel takes at the reference speed, in seconds.
  static constexpr double kReferenceSeconds = 0.004;

  /// Builds the kernel's data and runs it once, untimed.
  Calibrator();

  /// Times one run of the kernel and records it; returns its seconds.
  double sample();

  /// Median kernel time over samples [from, to), in seconds.
  [[nodiscard]] double median_s(std::size_t from = 0,
                                std::size_t to = SIZE_MAX) const;
  /// Host slowdown over samples [from, to): median / reference. A host
  /// time divided by it is in reference seconds.
  [[nodiscard]] double slowdown(std::size_t from = 0,
                                std::size_t to = SIZE_MAX) const {
    return median_s(from, to) / kReferenceSeconds;
  }
  [[nodiscard]] std::size_t samples() const { return times_.size(); }

 private:
  void kernel();

  std::map<std::string, int> table_;
  std::vector<std::string> keys_;
  std::vector<double> values_;
  std::vector<double> scratch_;
  std::vector<double> times_;
  long long sink_ = 0;
};

}  // namespace perfbench
