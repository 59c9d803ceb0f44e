#include "calibrate.hpp"

#include <algorithm>
#include <chrono>
#include <random>

namespace perfbench {

namespace {

constexpr int kKeys = 4096;
constexpr int kValues = 8192;
constexpr int kLookupPasses = 4;

double median_of(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

}  // namespace

Calibrator::Calibrator() {
  // Fixed data: the kernel does the same work in every run and build.
  std::mt19937_64 rng(20260101);
  for (int i = 0; i < kKeys; ++i) {
    std::string key = std::to_string(rng() % 1000000);
    key += '_';
    key += std::to_string(i);
    table_[key] = i;
    keys_.push_back(std::move(key));
  }
  for (int i = 0; i < kValues; ++i) {
    values_.push_back(static_cast<double>(rng() % 1000003));
  }
  scratch_.resize(values_.size());
  kernel();
}

// Tree lookups keyed by strings and a sort: pointer chasing, string
// compares and branchy arithmetic, like the compiler's own work. No
// allocation, so the program's heap does not reach it.
void Calibrator::kernel() {
  long long sum = 0;
  for (int pass = 0; pass < kLookupPasses; ++pass) {
    for (const auto& key : keys_) sum += table_.find(key)->second;
  }
  std::copy(values_.begin(), values_.end(), scratch_.begin());
  std::sort(scratch_.begin(), scratch_.end());
  sink_ += sum + static_cast<long long>(scratch_[scratch_.size() / 2]);
}

double Calibrator::sample() {
  // An untimed run first brings the kernel's data (about 0.5 MB) back
  // into cache, so the timed run does not depend on what the job before
  // it left there.
  kernel();
  const auto t0 = std::chrono::steady_clock::now();
  kernel();
  const double s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  times_.push_back(s);
  return s;
}

double Calibrator::median_s(std::size_t from, std::size_t to) const {
  to = std::min(to, times_.size());
  from = std::min(from, to);
  return median_of(std::vector<double>(
      times_.begin() + static_cast<std::ptrdiff_t>(from),
      times_.begin() + static_cast<std::ptrdiff_t>(to)));
}

}  // namespace perfbench
