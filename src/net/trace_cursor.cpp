#include "net/trace_cursor.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"

namespace bba::net {

double TraceCursor::rate_at_bps(double t_s) {
  BBA_ASSERT(t_s >= 0.0, "time must be >= 0");
  const double cycle = trace_->cycle_duration_s();
  if (t_s >= cycle) {
    if (!trace_->loops()) return 0.0;
    t_s = std::fmod(t_s, cycle);
  }
  return trace_->segments()[seek(t_s)].rate_bps;
}

double TraceCursor::bits_between(double t0_s, double t1_s) {
  BBA_ASSERT(t0_s >= 0.0 && t1_s >= t0_s, "require 0 <= t0 <= t1");
  const double cycle = trace_->cycle_duration_s();
  if (!trace_->loops()) {
    // Evaluate t0 first so the in-between queries stay monotone.
    const double at0 = bits_prefix(std::min(t0_s, cycle));
    const double at1 = bits_prefix(std::min(t1_s, cycle));
    return at1 - at0;
  }
  auto bits_to = [this, cycle](double t) {
    const double cycles = std::floor(t / cycle);
    return cycles * trace_->cycle_bits() + bits_prefix(t - cycles * cycle);
  };
  // Evaluate t0 first so the hint only ever moves forward.
  const double at0 = bits_to(t0_s);
  const double at1 = bits_to(t1_s);
  return at1 - at0;
}

double TraceCursor::average_bps(double t0_s, double t1_s) {
  if (t1_s <= t0_s) return 0.0;
  return bits_between(t0_s, t1_s) / (t1_s - t0_s);
}

}  // namespace bba::net
