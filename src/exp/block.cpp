#include "exp/block.hpp"

#include <cstdint>
#include <string>

#include "exp/population.hpp"
#include "exp/session_key.hpp"
#include "exp/workload.hpp"
#include "net/capacity_trace.hpp"
#include "net/trace_gen.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "runtime/session_executor.hpp"
#include "sim/batch_player.hpp"
#include "sim/player.hpp"
#include "sim/session_loop.hpp"
#include "sim/session_sink.hpp"
#include "util/assert.hpp"

namespace bba::exp {

struct SessionBlockRunner::Impl {
  // Per-thread scratch, indexed by the executor slot: the trace is rebuilt
  // in place (CapacityTrace::assign ping-pongs storage with the generation
  // buffers), metrics stream through a StreamingMetricsSink (bit-identical
  // to compute_metrics over a recording), and ABR instances are reused
  // across sessions where the group allows. Steady state does zero heap
  // allocation per session. None of this affects the produced values, so
  // the determinism contract holds.
  struct SessionScratch {
    net::TraceScratch trace_scratch;
    net::FaultScratch fault_scratch;
    net::CapacityTrace trace = net::CapacityTrace::constant(1.0);
    sim::StreamingMetricsSink sink;
    // Created by the collector (make_sink), so the scratch serializes in
    // whatever format the run selected -- JSONL lines or btrace blocks.
    std::unique_ptr<obs::SessionTraceSink> trace_sink;
    std::vector<std::unique_ptr<abr::RateAdaptation>> abrs;
    // Batched-kernel state: lanes for one key's group set, the kernel's
    // scratch (decision tables, lazy trace streams, pending ring), and the
    // per-session instances of groups that opt out of reuse.
    sim::BatchScratch batch;
    std::vector<sim::BatchLane> lanes;
    std::vector<std::unique_ptr<abr::RateAdaptation>> fresh_abrs;
  };

  // Traced sessions serialize into per-key buffers during the parallel
  // map and are written during the sequential fold, in canonical key
  // order -- the trace file bytes are therefore identical at every thread
  // count, exactly like the metrics.
  struct KeyTrace {
    std::string lines;
    std::uint32_t emitted = 0;
    std::uint32_t anomalies = 0;
  };

  Impl(const std::vector<Group>& groups_in,
       const media::VideoLibrary& library_in, const AbTestConfig& cfg_in)
      : groups(groups_in),
        library(library_in),
        cfg(cfg_in),
        population(cfg_in.population),
        executor(cfg_in.threads) {
    obs::Observability* o = obs::global();
    registry = o != nullptr ? o->metrics.get() : nullptr;
    tracer = (o != nullptr && o->trace != nullptr && o->trace->ok())
                 ? o->trace.get()
                 : nullptr;
    scratch.resize(executor.threads());
    for (auto& s : scratch) s.abrs.resize(groups.size());
  }

  void run(std::span<const SessionKey> keys, const Fold& fold);
  void capture_session(const SessionKey& key, std::size_t group,
                       const std::string& alert_line);
  void run_batched_key(std::size_t task, std::size_t slot,
                       const SessionKey& key, const UserEnvironment& env,
                       const media::Video& video,
                       const sim::PlayerConfig& player, bool traced);

  std::vector<Group> groups;
  const media::VideoLibrary& library;
  AbTestConfig cfg;
  Population population;
  runtime::SessionExecutor executor;
  obs::MetricsRegistry* registry = nullptr;
  obs::TraceCollector* tracer = nullptr;
  std::vector<SessionScratch> scratch;
  // Reused across blocks: per-(key, group) metrics slots and per-key trace
  // buffers for the current run() call.
  std::vector<sim::SessionMetrics> metrics;
  std::vector<KeyTrace> key_trace;
};

void SessionBlockRunner::Impl::run(std::span<const SessionKey> keys,
                                   const Fold& fold) {
  const std::size_t n_groups = groups.size();
  const std::size_t n_keys = keys.size();
  metrics.assign(n_keys * n_groups, sim::SessionMetrics{});
  key_trace.assign(tracer != nullptr ? n_keys : 0, KeyTrace{});

  executor.execute_slotted(
      n_keys,
      [&](std::size_t task, std::size_t slot) {
        obs::SlotBinding metrics_binding(registry, slot);
        // Common random numbers: every stream is a pure function of
        // (seed, day, window, session) and shared by all groups.
        const SessionKey& key = keys[task];
        const UserEnvironment env = population.environment_for(key);
        SessionScratch& s = scratch[slot];
        const SessionSpec spec = session_for(library, cfg.workload, key);
        const media::Video& video = library.at(spec.video_index);

        sim::PlayerConfig player = cfg.player;
        player.watch_duration_s = spec.watch_duration_s;

        // One sampling decision per key, shared by every group: the
        // control and treatment timelines of a sampled session land
        // side by side in the trace, which is what makes the A/B
        // comparison of a single environment readable.
        const bool traced =
            tracer != nullptr &&
            tracer->sampled(key.seed, key.day, key.window, key.session);

        if (cfg.batch_sessions) {
          run_batched_key(task, slot, key, env, video, player, traced);
          return;
        }

        // Fault injection rides the dedicated kFaults substream: with an
        // empty plan this is a no-op and nothing downstream changes byte
        // for byte.
        const bool faulted = population.has_faults();
        population.trace_for_into(env, key, s.trace_scratch, s.trace);
        if (faulted) {
          population.inject_faults(key, s.fault_scratch, s.trace);
          player.faults = &s.fault_scratch.events;
        }

        for (std::size_t g = 0; g < n_groups; ++g) {
          std::unique_ptr<abr::RateAdaptation> fresh;
          abr::RateAdaptation* algorithm;
          if (groups[g].reuse_instances) {
            if (s.abrs[g] == nullptr) s.abrs[g] = groups[g].factory();
            algorithm = s.abrs[g].get();
          } else {
            fresh = groups[g].factory();
            algorithm = fresh.get();
          }
          BBA_ASSERT(algorithm != nullptr, "group factory returned null");
          // Unsampled sessions run at full speed with the plain sink; the
          // anomaly trigger is evaluated post hoc on the finished metrics
          // (the exact predicate the trace sink applies to its own event
          // stream). simulate_session is a pure function of its inputs --
          // it resets the ABR on entry -- so the rare session that needs
          // capturing is simply re-simulated with the tee attached,
          // reproducing the identical timeline. Tracing therefore costs
          // the unsampled, healthy majority nothing per event.
          bool need_tee = traced;
          bool replay = false;
          if (tracer != nullptr && !need_tee) {
            sim::simulate_session_into(video, s.trace, *algorithm, player,
                                       s.sink);
            const sim::SessionMetrics& m = s.sink.metrics();
            const obs::TraceConfig& tc = tracer->config();
            need_tee = tc.anomalies_enabled() &&
                       (m.rebuffer_s >= tc.anomaly_rebuffer_s ||
                        (tc.capture_abandoned && m.abandoned));
            replay = need_tee;
          }
          if (tracer != nullptr && need_tee) {
            // A replay mutes the metrics registry so the re-simulated
            // session is not double-counted.
            obs::SlotBinding mute(replay ? nullptr : registry, slot);
            if (s.trace_sink == nullptr) s.trace_sink = tracer->make_sink();
            s.trace_sink->begin(tracer->config(), key.seed, key.day,
                                key.window, key.session, groups[g].name,
                                traced);
            if (faulted) {
              s.trace_sink->set_faults(&s.fault_scratch.events,
                                       s.trace.cycle_duration_s(),
                                       s.trace.loops());
            }
            sim::TeeSink tee(s.sink, *s.trace_sink);
            sim::simulate_session(video, s.trace, *algorithm, player, tee);
            KeyTrace& kt = key_trace[task];
            if (s.trace_sink->finish(&kt.lines)) {
              ++kt.emitted;
              if (s.trace_sink->anomalous()) ++kt.anomalies;
            }
          } else if (tracer == nullptr) {
            sim::simulate_session_into(video, s.trace, *algorithm, player,
                                       s.sink);
          }
          metrics[task * n_groups + g] = s.sink.metrics();
        }
      },
      [&](std::size_t task) {
        for (std::size_t g = 0; g < n_groups; ++g) {
          fold(task, g, metrics[task * n_groups + g]);
        }
        if (tracer != nullptr) {
          KeyTrace& kt = key_trace[task];
          for (std::uint32_t i = 0; i < kt.emitted; ++i) {
            tracer->note_session(i < kt.anomalies);
          }
          if (!kt.lines.empty()) {
            tracer->write(kt.lines);
            kt.lines.clear();
            kt.lines.shrink_to_fit();
          }
        }
      });
}

void SessionBlockRunner::Impl::capture_session(const SessionKey& key,
                                               std::size_t group,
                                               const std::string& alert_line) {
  if (tracer == nullptr) return;
  BBA_ASSERT(group < groups.size(), "capture_session group out of range");
  // Same derivation as the scalar path in run(): the replay is a pure
  // function of the key, so the captured timeline is the exact session the
  // monitor's cell aggregates saw. Runs on the calling thread (slot 0),
  // with no workers active, so touching the scratch is safe.
  SessionScratch& s = scratch[0];
  const UserEnvironment env = population.environment_for(key);
  const SessionSpec spec = session_for(library, cfg.workload, key);
  const media::Video& video = library.at(spec.video_index);
  sim::PlayerConfig player = cfg.player;
  player.watch_duration_s = spec.watch_duration_s;

  population.trace_for_into(env, key, s.trace_scratch, s.trace);
  const bool faulted = population.has_faults();
  if (faulted) {
    population.inject_faults(key, s.fault_scratch, s.trace);
    player.faults = &s.fault_scratch.events;
  }

  std::unique_ptr<abr::RateAdaptation> fresh;
  abr::RateAdaptation* algorithm;
  if (groups[group].reuse_instances) {
    if (s.abrs[group] == nullptr) s.abrs[group] = groups[group].factory();
    algorithm = s.abrs[group].get();
  } else {
    fresh = groups[group].factory();
    algorithm = fresh.get();
  }
  BBA_ASSERT(algorithm != nullptr, "group factory returned null");

  // Mute the registry: this session's simulation work was already counted
  // when the grid ran it.
  obs::SlotBinding mute(nullptr, 0);
  if (s.trace_sink == nullptr) s.trace_sink = tracer->make_sink();
  s.trace_sink->begin(tracer->config(), key.seed, key.day, key.window,
                      key.session, groups[group].name,
                      tracer->sampled(key.seed, key.day, key.window,
                                      key.session));
  s.trace_sink->set_alert(alert_line);
  if (faulted) {
    s.trace_sink->set_faults(&s.fault_scratch.events,
                             s.trace.cycle_duration_s(), s.trace.loops());
  }
  sim::TeeSink tee(s.sink, *s.trace_sink);
  sim::simulate_session(video, s.trace, *algorithm, player, tee);
  std::string lines;
  if (s.trace_sink->finish(&lines)) {
    tracer->note_session(s.trace_sink->anomalous());
    tracer->write(lines);
  }
}

void SessionBlockRunner::Impl::run_batched_key(
    std::size_t task, std::size_t slot, const SessionKey& key,
    const UserEnvironment& env, const media::Video& video,
    const sim::PlayerConfig& player, bool traced) {
  const std::size_t n_groups = groups.size();
  SessionScratch& s = scratch[slot];
  s.fresh_abrs.clear();
  if (s.lanes.size() < n_groups) s.lanes.resize(n_groups);

  // Resolve each group's algorithm instance. The batch call routes each
  // lane to the kernel or the scalar loop itself.
  for (std::size_t g = 0; g < n_groups; ++g) {
    abr::RateAdaptation* algorithm;
    if (groups[g].reuse_instances) {
      if (s.abrs[g] == nullptr) s.abrs[g] = groups[g].factory();
      algorithm = s.abrs[g].get();
    } else {
      s.fresh_abrs.push_back(groups[g].factory());
      algorithm = s.fresh_abrs.back().get();
    }
    BBA_ASSERT(algorithm != nullptr, "group factory returned null");
    sim::BatchLane& lane = s.lanes[g];
    lane = sim::BatchLane{};
    lane.video = &video;
    lane.abr = algorithm;
    lane.config = player;
    lane.out = &metrics[task * n_groups + g];
  }

  // Outage sessions need the materialized trace (outages are drawn after
  // the full Markov walk, so a lazy stream cannot know them); faulted
  // sessions need it too, and so do the TCP model and the cursor-less
  // lookups, which read a CapacityTrace. Faults are injected once per key,
  // on the kFaults substream, before any lane runs; every lane then
  // attributes its stalls against the same events. Everything else streams
  // the kTrace substream lazily -- generated once, as far as the furthest
  // session reaches, and shared by every group's lane, kernel and scalar
  // alike.
  const bool faulted = population.has_faults();
  const bool materialize = env.has_outages || faulted ||
                           player.tcp.has_value() || !player.use_trace_cursor;
  if (materialize) {
    population.trace_for_into(env, key, s.trace_scratch, s.trace);
    if (faulted) population.inject_faults(key, s.fault_scratch, s.trace);
  }
  for (std::size_t g = 0; g < n_groups; ++g) {
    sim::BatchLane& lane = s.lanes[g];
    if (materialize) {
      lane.trace = &s.trace;
      if (faulted) lane.config.faults = &s.fault_scratch.events;
    } else {
      lane.stream = &env.trace;
      lane.stream_rng = session_rng(key, StreamClass::kTrace);
      lane.stream_key = 1;
    }
  }
  sim::simulate_session_batch(
      std::span<sim::BatchLane>(s.lanes.data(), n_groups), s.batch);

  if (tracer == nullptr) return;
  // Sampled or post-hoc anomalous sessions are re-simulated with the tee
  // attached (the same run-then-replay shape as the scalar path), with the
  // registry muted so nothing is double-counted: the kernel run above
  // already emitted this session's events.
  const obs::TraceConfig& tc = tracer->config();
  bool have_trace = materialize;
  for (std::size_t g = 0, fresh = 0; g < n_groups; ++g) {
    abr::RateAdaptation* algorithm = groups[g].reuse_instances
                                         ? s.abrs[g].get()
                                         : s.fresh_abrs[fresh++].get();
    const sim::SessionMetrics& m = metrics[task * n_groups + g];
    const bool need_tee =
        traced || (tc.anomalies_enabled() &&
                   (m.rebuffer_s >= tc.anomaly_rebuffer_s ||
                    (tc.capture_abandoned && m.abandoned)));
    if (!need_tee) continue;
    if (!have_trace) {
      population.trace_for_into(env, key, s.trace_scratch, s.trace);
      have_trace = true;
    }
    obs::SlotBinding mute(nullptr, slot);
    if (s.trace_sink == nullptr) s.trace_sink = tracer->make_sink();
    s.trace_sink->begin(tracer->config(), key.seed, key.day, key.window,
                        key.session, groups[g].name, traced);
    if (faulted) {
      s.trace_sink->set_faults(&s.fault_scratch.events,
                               s.trace.cycle_duration_s(), s.trace.loops());
    }
    sim::TeeSink tee(s.sink, *s.trace_sink);
    sim::simulate_session(video, s.trace, *algorithm, s.lanes[g].config,
                          tee);
    KeyTrace& kt = key_trace[task];
    if (s.trace_sink->finish(&kt.lines)) {
      ++kt.emitted;
      if (s.trace_sink->anomalous()) ++kt.anomalies;
    }
  }
}

SessionBlockRunner::SessionBlockRunner(const std::vector<Group>& groups,
                                       const media::VideoLibrary& library,
                                       const AbTestConfig& cfg)
    : impl_(std::make_unique<Impl>(groups, library, cfg)) {
  BBA_ASSERT(!groups.empty(), "at least one group required");
}

SessionBlockRunner::~SessionBlockRunner() = default;

std::size_t SessionBlockRunner::num_groups() const {
  return impl_->groups.size();
}

std::size_t SessionBlockRunner::threads() const {
  return impl_->executor.threads();
}

const Population& SessionBlockRunner::population() const {
  return impl_->population;
}

void SessionBlockRunner::run(std::span<const SessionKey> keys,
                             const Fold& fold) {
  impl_->run(keys, fold);
}

void SessionBlockRunner::capture_session(const SessionKey& key,
                                         std::size_t group,
                                         const std::string& alert_line) {
  impl_->capture_session(key, group, alert_line);
}

void SessionBlockRunner::finish() {
  if (impl_->tracer != nullptr) impl_->tracer->flush();
}

std::size_t SessionBlockRunner::keys_folded() const {
  return impl_->executor.tasks_folded();
}

}  // namespace bba::exp
