// BOLA: a later buffer-based algorithm, included as a forward-looking
// comparison point.
//
// Spiteri, Urgaonkar, Sitaraman, "BOLA: Near-Optimal Bitrate Adaptation
// for Online Videos" (INFOCOM 2016) formalized the buffer-based idea this
// paper pioneered as Lyapunov drift-plus-penalty optimization: each chunk,
// pick the rendition m maximizing
//
//     (V * (utility_m + gamma*p) - Q) / S_m
//
// where Q is the buffer in chunks, S_m the chunk size, utility_m =
// ln(S_m / S_min), and V, gamma*p are derived from the buffer target. The
// result is again a monotone buffer-to-rate map -- independent support for
// the paper's thesis. This is BOLA-BASIC on nominal chunk sizes.
//
// Everything in the objective except Q depends only on the title, so the
// utilities, S_m, V and gamma*p are computed once per title and each
// decision is a few multiply-adds and a divide per rendition.
#pragma once

#include <vector>

#include "abr/abr.hpp"

namespace bba::abr {

/// BOLA-BASIC tuning.
struct BolaConfig {
  /// Buffer level (seconds) at which the top rendition becomes optimal.
  /// Together with `min_threshold_s` this determines V and gamma*p.
  double max_threshold_s = 216.0;

  /// Buffer level at which the lowest rendition is chosen.
  double min_threshold_s = 12.0;
};

class BolaAbr final : public RateAdaptation {
 public:
  explicit BolaAbr(BolaConfig cfg = {});

  std::size_t choose_rate(const Observation& obs) override;
  /// Drops the per-title constants; the next decision recomputes them.
  void reset() override;
  std::string name() const override { return "bola"; }

  /// The drift-plus-penalty objective for rendition `m` at buffer level
  /// `buffer_s` (exposed for tests): higher is better; negative for every
  /// m means "do not download yet" and maps to holding at R_min here.
  /// Fills the per-title cache like choose_rate(), so one instance must
  /// not be queried from two threads at once.
  double objective(const Observation& obs, std::size_t m) const;

 private:
  struct Rung {
    double utility = 0.0;    ///< 1 + ln(S_m / S_0)
    double size_bits = 0.0;  ///< S_m, the rendition's mean chunk size
  };

  /// Makes the cached constants describe `video`: recomputed on the first
  /// call after construction or reset(), and whenever the title changes.
  /// Keyed on the title's address, so a title rebuilt at the address of a
  /// freed one is only seen after reset() -- which the player issues at
  /// every session start.
  void load_title(const media::Video& video) const;

  /// The objective of cached rung `m` at buffer level `buffer_s`.
  double value(std::size_t m, double buffer_s) const {
    return (vp_ * (rungs_[m].utility + gp_) - buffer_s) / rungs_[m].size_bits;
  }

  BolaConfig cfg_;

  // Per-title constants. Mutable because the const objective() shares the
  // cache; the storage is reused, so steady-state decisions never allocate.
  mutable const media::Video* title_ = nullptr;
  mutable std::vector<Rung> rungs_;
  mutable double gp_ = 0.0;
  mutable double vp_ = 0.0;
};

}  // namespace bba::abr
