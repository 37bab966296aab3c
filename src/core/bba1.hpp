// BBA-1: the VBR-aware buffer-based algorithm (Sec. 5).
//
// Two changes over BBA-0: (1) the reservoir is recomputed every chunk from
// the upcoming R_min chunk sizes (Fig. 12) instead of a fixed 90 s; (2) the
// rate map becomes a chunk map (Fig. 13), and Algorithm 1 generalizes to
// compare the map's allowable size against the size of the *next upcoming
// chunk* at the neighbouring rates. Optionally accrues outage protection
// (Sec. 7.1) by right-shifting the map.
#pragma once

#include "abr/abr.hpp"
#include "core/chunk_map.hpp"
#include "core/reservoir.hpp"

namespace bba::core {

/// Configuration shared by BBA-1 and its derivatives.
struct Bba1Config {
  ReservoirConfig reservoir;

  /// Buffer fraction where the chunk map first allows Chunk_max (the map
  /// reaches the top "when the buffer is 90% full").
  double upper_knee_fraction = 0.9;

  /// Rate index used as "previous" for the very first chunk.
  std::size_t start_index = 0;

  /// BBA-Others: the chunk map may shift right but never left (the
  /// reservoir expands but never shrinks, Sec. 7.2).
  bool monotone_reservoir = false;

  /// Sec. 7.1 outage protection: accrue `outage_accrual_s` of extra
  /// reservoir per downloaded chunk while the buffer is increasing and
  /// below `outage_accrue_below_fraction` of capacity, up to
  /// `outage_cap_s`. On by default: the paper's deployed BBA-1
  /// implementation accumulated 400 ms per chunk (Sec. 7.1).
  bool outage_protection = true;
  double outage_accrual_s = 0.4;
  double outage_cap_s = 80.0;
  double outage_accrue_below_fraction = 0.75;

  /// Keep at least this much cushion between the effective reservoir and
  /// the upper knee (the dynamic reservoir plus outage protection could
  /// otherwise swallow the whole map).
  double min_cushion_s = 60.0;
};

/// The BBA-1 algorithm.
class Bba1 : public abr::RateAdaptation {
 public:
  explicit Bba1(Bba1Config cfg = {});

  std::size_t choose_rate(const abr::Observation& obs) override;
  void reset() override;
  std::string name() const override { return "bba1"; }

  /// Exports the config for the batch's table decision -- only when the
  /// dynamic type is exactly Bba1 (a derived class may override decisions
  /// the table knows nothing about).
  bool batch_profile(abr::BatchDecisionProfile* out) const override;

  /// Effective reservoir currently in force (dynamic + outage protection,
  /// after monotonicity). Exposed for tests and Fig. 12.
  double effective_reservoir_s() const { return effective_reservoir_s_; }
  double outage_protection_s() const { return outage_s_; }

 protected:
  /// Recomputes the reservoir/outage state for this decision. Called once
  /// per choose_rate by this class and by derived classes.
  void update_state(const abr::Observation& obs);

  /// The chunk map in force for this decision (valid after update_state).
  ChunkMap current_map(const abr::Observation& obs) const;

  /// Generalized Algorithm 1 over the chunk map (valid after update_state).
  std::size_t steady_choice(const abr::Observation& obs);

  /// What the chunk map alone suggests, ignoring the hysteresis barriers:
  /// the highest rate whose next chunk fits under the map (used by BBA-2's
  /// startup-exit test).
  std::size_t map_suggestion(const abr::Observation& obs) const;

  /// Hook for BBA-Others: given the Algorithm-1 up-switch candidate, return
  /// the (possibly smoothed) rate to use. Default: accept the candidate.
  virtual std::size_t filter_up_switch(const abr::Observation& obs,
                                       std::size_t candidate,
                                       std::size_t prev, double map_bits);

  /// Previous rate for this decision (start_index for the first chunk).
  std::size_t prev_index(const abr::Observation& obs) const;

  /// Derived classes may gate outage accrual (BBA-2 accrues only after the
  /// startup phase exits).
  bool outage_accrual_enabled_ = true;

  Bba1Config cfg_;

 private:
  double effective_reservoir_s_ = 8.0;
  double outage_s_ = 0.0;
  double prev_buffer_s_ = 0.0;
  bool has_prev_buffer_ = false;
};

}  // namespace bba::core
