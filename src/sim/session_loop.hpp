// The scalar session loop, compiled against the concrete sink it feeds and
// the trace reader it downloads through.
//
// simulate_session (sim/player.hpp) takes its sink through the virtual
// SessionSink base. Hot callers that know their sink's type -- the A/B
// harness's untraced sessions and the batched kernel's scalar fallback,
// both feeding a StreamingMetricsSink -- call simulate_session_into
// instead: with a final sink class every per-chunk sink call is a direct
// call the compiler can inline. There is one copy of the loop;
// simulate_session is its instantiation on SessionSink, so every sink type
// sees the identical event sequence, obs registry events and results.
//
// The loop reads capacity through one of two readers. CapacityTraceReader
// reads a materialized CapacityTrace (TraceCursor, the TCP model, or the
// trace's own binary search). TraceStreamReader reads a lazily generated
// net::TraceStream through net::LaneCursor, the batched kernel's trace
// layer: bit-identical finish times and cursor tallies on the same trace,
// while only the prefix the session reaches is ever generated.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "abr/abr.hpp"
#include "media/video.hpp"
#include "net/capacity_trace.hpp"
#include "net/fault_inject.hpp"
#include "net/tcp_model.hpp"
#include "net/trace_cursor.hpp"
#include "net/trace_stream.hpp"
#include "obs/metrics.hpp"
#include "sim/player.hpp"
#include "sim/session_sink.hpp"
#include "util/assert.hpp"

namespace bba::sim {

namespace detail {

/// Downloads over a materialized CapacityTrace: through the incremental
/// TraceCursor, or the trace's own binary search with use_trace_cursor off,
/// and through the TCP model when the config carries one.
class CapacityTraceReader {
 public:
  CapacityTraceReader(const net::CapacityTrace& trace,
                      const PlayerConfig& config)
      : trace_(trace),
        cursor_(trace),
        tcp_(config.tcp ? std::optional<net::TcpDownloadModel>(*config.tcp)
                        : std::nullopt),
        use_cursor_(config.use_trace_cursor) {}

  double finish_time_s(double start_s, double bits, double idle_s) {
    return use_cursor_
               ? (tcp_ ? tcp_->finish_time_s(cursor_, start_s, bits, idle_s)
                       : cursor_.finish_time_s(start_s, bits))
               : (tcp_ ? tcp_->finish_time_s(trace_, start_s, bits, idle_s)
                       : trace_.finish_time_s(start_s, bits));
  }

  /// Did [t0, t1] overlap an injected fault window in any cycle?
  bool fault_overlaps(const std::vector<net::InjectedFault>& faults,
                      double t0, double t1) const {
    return net::fault_overlaps(faults, trace_.cycle_duration_s(),
                               trace_.loops(), t0, t1);
  }

  std::uint64_t queries() const { return cursor_.queries(); }
  std::uint64_t rewinds() const { return cursor_.rewinds(); }

 private:
  const net::CapacityTrace& trace_;
  net::TraceCursor cursor_;
  const std::optional<net::TcpDownloadModel> tcp_;
  const bool use_cursor_;
};

/// Downloads over a lazily generated TraceStream through net::LaneCursor.
/// Several sessions may share one stream: each generates only as far as
/// its own downloads reach. Faults are injected into a materialized trace,
/// and the TCP model and the cursor-less path read one, so the config must
/// use none of them.
class TraceStreamReader {
 public:
  TraceStreamReader(net::TraceStream& stream, const PlayerConfig& config)
      : src_{&stream} {
    BBA_ASSERT(config.faults == nullptr && !config.tcp &&
                   config.use_trace_cursor,
               "a streamed trace takes no faults, no TCP model and needs "
               "the trace cursor");
  }

  double finish_time_s(double start_s, double bits, double /*idle_s*/) {
    return cursor_.finish_time_s(src_, start_s, bits);
  }

  /// Never called: the config carries no faults.
  bool fault_overlaps(const std::vector<net::InjectedFault>&, double,
                      double) const {
    return false;
  }

  std::uint64_t queries() const { return cursor_.queries; }
  std::uint64_t rewinds() const { return cursor_.rewinds; }

 private:
  net::StreamSource src_;
  net::LaneCursor cursor_;
};

/// The one session loop: `Reader` (constructed from `trace` and the
/// config) answers every download, `Sink` receives every event.
template <class Reader, class Trace, class Sink>
void session_loop(const media::Video& video, Trace& trace,
                  abr::RateAdaptation& abr, const PlayerConfig& config,
                  Sink& sink) {
  BBA_ASSERT(config.buffer_capacity_s >= video.chunk_duration_s(),
             "buffer must hold at least one chunk");
  BBA_ASSERT(config.play_threshold_s > 0.0 && config.resume_threshold_s > 0.0,
             "playback thresholds must be > 0");
  abr.reset();

  const auto& chunks = video.chunks();
  const auto& ladder = video.ladder();
  const double V = chunks.chunk_duration_s();
  const std::size_t n = chunks.num_chunks();
  BBA_ASSERT(config.start_chunk < n, "start chunk beyond the video");
  const double remaining_s =
      V * static_cast<double>(n - config.start_chunk);
  const double watch_limit =
      std::min(config.watch_duration_s, remaining_s);

  sink.on_session_start(V);
  SessionSummary sum;
  sum.chunk_duration_s = V;

  // Session time is (nearly) monotone, so all trace integration runs
  // through one incremental cursor: O(1) amortized per query instead of a
  // binary search each time.
  Reader reader(trace, config);

  // Per-chunk obs counters batch in locals (plain adds) and flush once at
  // session end -- per-chunk thread-local touches are too expensive here.
  std::uint32_t obs_chunks = 0;
  std::uint32_t obs_offs = 0;
  std::uint32_t obs_switches = 0;

  double t = config.start_wall_s;  // wall clock
  double buffer = 0.0;  // seconds of video buffered
  double played = 0.0;  // seconds of video played
  bool playing = false;
  double stall_start = -1.0;  // >= 0 while stalled after playback started
  std::size_t stall_chunk = 0;
  double last_tp = 0.0;
  double last_dl = 0.0;
  double prev_finish_s = -1.0;  // end of the previous download (TCP idle)
  std::size_t prev_rate = 0;

  // Attribution: did the stall interval overlap an injected fault window?
  // Only evaluated when faults are attached, so fault-free sessions pay
  // nothing.
  auto stall_during_fault = [&](double t0, double t1) {
    return config.faults != nullptr &&
           reader.fault_overlaps(*config.faults, t0, t1);
  };

  auto close_stall = [&](double resume_t) {
    if (stall_start >= 0.0) {
      obs::count(obs::Counter::kRebuffers);
      obs::observe(obs::Hist::kStallSeconds, resume_t - stall_start);
      sink.on_rebuffer({stall_start, resume_t - stall_start, stall_chunk,
                        stall_during_fault(stall_start, resume_t)});
      stall_start = -1.0;
    }
  };

  for (std::size_t k = config.start_chunk; k < n; ++k) {
    if (played >= watch_limit) break;
    if (t > config.max_wall_s) {
      sum.abandoned = true;
      break;
    }

    // ON-OFF: if the buffer cannot accept another chunk, idle until it can.
    // The buffer can only be full while playing.
    double off_wait = 0.0;
    if (buffer + V > config.buffer_capacity_s) {
      off_wait = buffer + V - config.buffer_capacity_s;
      const double need = watch_limit - played;
      if (need <= off_wait) {
        t += need;
        buffer -= need;
        played = watch_limit;
        break;
      }
      t += off_wait;
      buffer -= off_wait;
      played += off_wait;
    }

    abr::Observation obs;
    obs.chunk_index = k;
    obs.buffer_s = buffer;
    obs.buffer_max_s = config.buffer_capacity_s;
    obs.now_s = t;
    obs.prev_rate_index = prev_rate;
    obs.last_throughput_bps = last_tp;
    obs.last_download_s = last_dl;
    obs.delta_buffer_s = last_dl > 0.0 ? V - last_dl : 0.0;
    obs.playing = playing;
    obs.video = &video;

    const std::size_t r = abr.choose_rate(obs);
    BBA_ASSERT(r < ladder.size(), "ABR returned an out-of-range rate index");

    const double size = chunks.size_bits(r, k);
    const double req_t = t;
    const double idle_s = prev_finish_s < 0.0
                              ? std::numeric_limits<double>::infinity()
                              : req_t - prev_finish_s;
    const double finish = reader.finish_time_s(t, size, idle_s);
    if (!std::isfinite(finish)) {
      // The link is dead for the rest of time: play out and abandon.
      if (playing) {
        const double drain = std::min(buffer, watch_limit - played);
        played += drain;
        t += drain;
        buffer -= drain;
      }
      sum.abandoned = true;
      break;
    }
    const double dl = finish - req_t;

    if (playing) {
      const double need = watch_limit - played;
      if (need <= std::min(dl, buffer)) {
        // The user finishes their session while this chunk is in flight.
        t += need;
        buffer -= need;
        played = watch_limit;
        break;
      }
      if (dl > buffer) {
        // Buffer runs dry mid-download: stall until (at least) the chunk
        // lands. The buffer is not updated during rebuffering (Fig. 4 note).
        stall_start = t + buffer;
        stall_chunk = k;
        played += buffer;
        buffer = 0.0;
        playing = false;
        if (stall_start + config.give_up_stall_s < finish) {
          // The stall will outlast the viewer's patience: they walk out
          // mid-stall (engagement studies tie long rebuffers to abandons).
          obs::count(obs::Counter::kRebuffers);
          obs::observe(obs::Hist::kStallSeconds, config.give_up_stall_s);
          sink.on_rebuffer(
              {stall_start, config.give_up_stall_s, k,
               stall_during_fault(stall_start,
                                  stall_start + config.give_up_stall_s)});
          sum.abandoned = true;
          sum.played_s = played;
          sum.wall_s = stall_start + config.give_up_stall_s;
          obs::count(obs::Counter::kSessions);
          obs::count(obs::Counter::kSessionsAbandoned);
          obs::count(obs::Counter::kChunksDownloaded, obs_chunks);
          obs::count(obs::Counter::kOffPeriods, obs_offs);
          obs::count(obs::Counter::kRateSwitches, obs_switches);
          obs::count(obs::Counter::kCursorQueries, reader.queries());
          obs::count(obs::Counter::kCursorRewinds, reader.rewinds());
          sink.on_session_end(sum);
          return;
        }
      } else {
        buffer -= dl;
        played += dl;
      }
    }

    buffer += V;
    t = finish;
    prev_finish_s = finish;

    if (!playing) {
      const double threshold =
          sum.started ? config.resume_threshold_s : config.play_threshold_s;
      // The last chunk always releases playback: there is nothing more to
      // wait for.
      if (buffer >= threshold || k + 1 == n) {
        playing = true;
        if (!sum.started) {
          sum.started = true;
          sum.join_s = t;
        } else {
          close_stall(t);
        }
      }
    }

    last_dl = dl;
    last_tp = dl > 0.0 ? size / dl : 0.0;
    ++obs_chunks;
    obs::observe(obs::Hist::kDownloadSeconds, dl);
    if (off_wait > 0.0) {
      ++obs_offs;
      obs::observe(obs::Hist::kOffWaitSeconds, off_wait);
    }
    if (k > config.start_chunk && r != prev_rate) ++obs_switches;
    const double position_s =
        config.position_offset_s +
        V * static_cast<double>(k - config.start_chunk);
    sink.on_chunk({k, r, ladder.rate_bps(r), size, req_t, finish, dl,
                   last_tp, buffer, off_wait, position_s},
                  played);
    prev_rate = r;
  }

  // Downloads are done (or the session was cut); play out the buffer.
  if (!sum.started && buffer > 0.0) {
    sum.started = true;
    sum.join_s = t;
    playing = true;
  }
  if (playing || buffer > 0.0) {
    close_stall(t);
    const double drain = std::min(buffer, std::max(0.0, watch_limit - played));
    played += drain;
    t += drain;
    buffer -= drain;
  }
  close_stall(t);  // session ended while stalled: close at session end

  sum.played_s = played;
  sum.wall_s = t;
  obs::count(obs::Counter::kSessions);
  if (sum.abandoned) obs::count(obs::Counter::kSessionsAbandoned);
  obs::count(obs::Counter::kChunksDownloaded, obs_chunks);
  obs::count(obs::Counter::kOffPeriods, obs_offs);
  obs::count(obs::Counter::kRateSwitches, obs_switches);
  obs::count(obs::Counter::kCursorQueries, reader.queries());
  obs::count(obs::Counter::kCursorRewinds, reader.rewinds());
  sink.on_session_end(sum);
}

}  // namespace detail

/// simulate_session with the sink's static type kept: `Sink` is
/// SessionSink or one of its subclasses.
template <class Sink>
void simulate_session_into(const media::Video& video,
                           const net::CapacityTrace& trace,
                           abr::RateAdaptation& abr,
                           const PlayerConfig& config, Sink& sink) {
  detail::session_loop<detail::CapacityTraceReader>(video, trace, abr, config,
                                                    sink);
}

/// The same session over a lazily generated trace: bit-identical results
/// and registry events to running it over the materialized trace the
/// stream would produce (a looping Markov trace without outages).
template <class Sink>
void simulate_session_into(const media::Video& video,
                           net::TraceStream& stream,
                           abr::RateAdaptation& abr,
                           const PlayerConfig& config, Sink& sink) {
  detail::session_loop<detail::TraceStreamReader>(video, stream, abr, config,
                                                  sink);
}

}  // namespace bba::sim
