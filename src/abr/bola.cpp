#include "abr/bola.hpp"

#include <cmath>

#include "util/assert.hpp"

namespace bba::abr {

BolaAbr::BolaAbr(BolaConfig cfg) : cfg_(cfg) {
  BBA_ASSERT(cfg_.min_threshold_s > 0.0 &&
                 cfg_.max_threshold_s > cfg_.min_threshold_s,
             "BOLA thresholds must satisfy 0 < min < max");
}

void BolaAbr::reset() { title_ = nullptr; }

void BolaAbr::load_title(const media::Video& video) const {
  if (&video == title_) return;
  const auto& chunks = video.chunks();
  const std::size_t n = video.ladder().size();
  const double s0 = chunks.mean_size_bits(0);
  rungs_.resize(n);
  // Normalized utility: 1 + ln(S_m / S_0), so the lowest rendition has
  // utility exactly 1 (the dash.js BOLA convention).
  for (std::size_t m = 0; m < n; ++m) {
    rungs_[m].size_bits = chunks.mean_size_bits(m);
    rungs_[m].utility = 1.0 + std::log(rungs_[m].size_bits / s0);
  }
  const double u_top = rungs_[n - 1].utility;
  // dash.js parameterization: gp fixes the spread of the per-rendition
  // buffer bands; Vp scales them so the lowest band starts at the minimum
  // threshold.
  gp_ = u_top > 1.0
            ? (u_top - 1.0) /
                  (cfg_.max_threshold_s / cfg_.min_threshold_s - 1.0)
            : 1.0;
  vp_ = cfg_.min_threshold_s / gp_;
  title_ = &video;
}

double BolaAbr::objective(const Observation& obs, std::size_t m) const {
  BBA_ASSERT(obs.video != nullptr, "observation must carry the video");
  BBA_ASSERT(m < obs.video->ladder().size(), "rate index out of range");
  load_title(*obs.video);
  return value(m, obs.buffer_s);
}

std::size_t BolaAbr::choose_rate(const Observation& obs) {
  BBA_ASSERT(obs.video != nullptr, "observation must carry the video");
  load_title(*obs.video);
  std::size_t best = 0;
  double best_value = value(0, obs.buffer_s);
  for (std::size_t m = 1; m < rungs_.size(); ++m) {
    const double value_m = value(m, obs.buffer_s);
    if (value_m > best_value) {
      best_value = value_m;
      best = m;
    }
  }
  return best;
}

}  // namespace bba::abr
