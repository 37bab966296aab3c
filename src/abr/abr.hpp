// The ABR algorithm interface.
//
// The simulated player calls `choose_rate()` once per chunk request, exactly
// as the Netflix browser player invokes its downloaded ABR module: rates can
// only change on chunk boundaries ("we can only pick a new rate when a chunk
// finishes arriving"), and the algorithm sees the playback buffer, the
// previous chunk's throughput, and the manifest (per-chunk sizes at every
// rate).
#pragma once

#include <cstddef>
#include <string>

#include "media/video.hpp"

namespace bba::abr {

/// Everything an ABR algorithm may observe when selecting the rate for the
/// next chunk. Produced by the player before each request.
struct Observation {
  /// Index of the chunk about to be requested (0-based).
  std::size_t chunk_index = 0;

  /// Current playback buffer level, in seconds of video.
  double buffer_s = 0.0;

  /// Player buffer capacity (B_max), seconds. 240 s in the paper's player.
  double buffer_max_s = 240.0;

  /// Wall-clock session time, seconds since the first request.
  double now_s = 0.0;

  /// Ladder index used for the previous chunk. Meaningless when
  /// `chunk_index == 0` (use the algorithm's own starting rate).
  std::size_t prev_rate_index = 0;

  /// Average throughput of the last completed chunk download (bits/s);
  /// 0 before the first chunk completes.
  double last_throughput_bps = 0.0;

  /// Wall-clock duration of the last chunk download, seconds.
  double last_download_s = 0.0;

  /// Buffer change over the last chunk: Delta-B = V - download_time while
  /// playing (the signal BBA-2's startup uses). 0 before the first chunk.
  double delta_buffer_s = 0.0;

  /// True once playback has started (false while prebuffering).
  bool playing = false;

  /// The title being streamed: ladder + chunk size table.
  const media::Video* video = nullptr;
};

/// A flattened, plain-data description of a BBA decision policy, consumed
/// by batched sessions' table decision (sim/batch_player.cpp). The session
/// loop inlines that decision -- reservoir, chunk map, hysteresis
/// barriers, BBA-2's startup ramp -- instead of calling through the
/// virtual choose_rate() interface; an algorithm that is exactly one of
/// the supported policies exports its configuration here and the table
/// decision reproduces its decisions bit for bit (enforced by
/// tests/test_sim_batch). Plain fields only: abr must not depend on core.
struct BatchDecisionProfile {
  /// True: BBA-2 (startup ramp active from chunk 0, outage accrual gated
  /// on startup exit). False: BBA-1 (steady-state algorithm throughout).
  bool startup = false;
  /// BBA-2 startup Delta-B thresholds (fractions of V); unused for BBA-1.
  double threshold_at_empty = 0.875;
  double threshold_at_knee = 0.5;

  // core::Bba1Config / ReservoirConfig mirror.
  double lookahead_s = 480.0;
  double reservoir_min_s = 8.0;
  double reservoir_max_s = 140.0;
  bool cache_window_sums = true;
  double upper_knee_fraction = 0.9;
  std::size_t start_index = 0;
  bool monotone_reservoir = false;
  bool outage_protection = true;
  double outage_accrual_s = 0.4;
  double outage_cap_s = 80.0;
  double outage_accrue_below_fraction = 0.75;
  double min_cushion_s = 60.0;
};

/// Base class for rate-adaptation algorithms. Implementations are
/// single-session state machines; call `reset()` (or construct fresh) per
/// session.
class RateAdaptation {
 public:
  virtual ~RateAdaptation() = default;

  /// Returns the ladder index to request for `obs.chunk_index`.
  /// Must return a valid index for `obs.video->ladder()`.
  virtual std::size_t choose_rate(const Observation& obs) = 0;

  /// Clears per-session state (new session or seek).
  virtual void reset() {}

  /// Short algorithm name for reports ("control", "bba0", ...).
  virtual std::string name() const = 0;

  /// Fills `out` with an exact plain-data description of this algorithm's
  /// decision policy and returns true, or returns false when no such
  /// description exists (the default). Overriders must guarantee the
  /// table decision driven by `out` chooses the identical rate sequence as
  /// choose_rate() on every input -- which is why core::Bba1/Bba2 only
  /// answer for their exact dynamic type, never for derived classes.
  virtual bool batch_profile(BatchDecisionProfile* out) const {
    (void)out;
    return false;
  }
};

}  // namespace bba::abr
