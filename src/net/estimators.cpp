#include "net/estimators.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace bba::net {

void LastSampleEstimator::add_sample(double throughput_bps,
                                     double /*duration_s*/) {
  BBA_ASSERT(throughput_bps >= 0.0, "throughput must be >= 0");
  last_bps_ = throughput_bps;
  has_ = true;
}

double LastSampleEstimator::estimate_bps() const {
  BBA_ASSERT(has_, "estimate_bps() before any sample");
  return last_bps_;
}

SlidingMeanEstimator::SlidingMeanEstimator(std::size_t window)
    : samples_(window) {
  BBA_ASSERT(window >= 1, "window must be >= 1");
}

void SlidingMeanEstimator::add_sample(double throughput_bps,
                                      double /*duration_s*/) {
  BBA_ASSERT(throughput_bps >= 0.0, "throughput must be >= 0");
  samples_.push(throughput_bps);
}

double SlidingMeanEstimator::estimate_bps() const {
  BBA_ASSERT(!samples_.empty(), "estimate_bps() before any sample");
  double sum = 0.0;
  samples_.for_each([&sum](double v) { sum += v; });
  return sum / static_cast<double>(samples_.size());
}

EwmaEstimator::EwmaEstimator(double alpha) : alpha_(alpha) {
  BBA_ASSERT(alpha_ > 0.0 && alpha_ <= 1.0, "alpha must be in (0, 1]");
}

void EwmaEstimator::add_sample(double throughput_bps, double /*duration_s*/) {
  BBA_ASSERT(throughput_bps >= 0.0, "throughput must be >= 0");
  if (!has_) {
    value_bps_ = throughput_bps;
    has_ = true;
  } else {
    value_bps_ = alpha_ * throughput_bps + (1.0 - alpha_) * value_bps_;
  }
}

double EwmaEstimator::estimate_bps() const {
  BBA_ASSERT(has_, "estimate_bps() before any sample");
  return value_bps_;
}

HarmonicMeanEstimator::HarmonicMeanEstimator(std::size_t window)
    : samples_(window) {
  BBA_ASSERT(window >= 1, "window must be >= 1");
}

void HarmonicMeanEstimator::add_sample(double throughput_bps,
                                       double /*duration_s*/) {
  BBA_ASSERT(throughput_bps >= 0.0, "throughput must be >= 0");
  samples_.push(throughput_bps);
}

double HarmonicMeanEstimator::estimate_bps() const {
  BBA_ASSERT(!samples_.empty(), "estimate_bps() before any sample");
  double sum_inv = 0.0;
  samples_.for_each([&sum_inv](double v) {
    // An outage chunk reports ~0 throughput; treating it as exactly zero
    // would pin the estimate at 0 forever (1/0 = inf), so zero samples
    // enter the mean floored at kMinHarmonicSampleBps. The estimate then
    // collapses toward the floor while outage samples are in the window
    // and recovers as they age out. Positive samples are untouched.
    sum_inv += 1.0 / std::max(v, kMinHarmonicSampleBps);
  });
  return static_cast<double>(samples_.size()) / sum_inv;
}

}  // namespace bba::net
