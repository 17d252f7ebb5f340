#include "campaign/service/service.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <thread>

#include "campaign/fleet.hpp"
#include "campaign/observer.hpp"
#include "campaign/service/control.hpp"
#include "campaign/service/journal.hpp"
#include "campaign/service/scheduler.hpp"
#include "campaign/wire.hpp"
#include "util/bytesio.hpp"

namespace gemfi::campaign::service {

namespace {

using net::mono_seconds;

/// Reverse of experiment_record_to_json's outcome field (counts recovery).
std::optional<apps::Outcome> outcome_from_name(const std::string& name) {
  for (unsigned i = 0; i < apps::kNumOutcomes; ++i)
    if (name == apps::outcome_name(apps::Outcome(i))) return apps::Outcome(i);
  return std::nullopt;
}

/// The calibration cache key: the app, its scale and the spec's whole config
/// table except the campaign seed. Derived from the config codec, so a field
/// added to the table is keyed too. It also keys table fields calibrate()
/// does not read (watchdog, deadline, retry, checkpoint-use and syscall-fault
/// fields): campaigns differing only in those calibrate separately.
std::string calibration_key(const CampaignSpec& spec) {
  CampaignConfig cfg = spec.config;
  cfg.campaign_seed = 0;
  util::ByteWriter w;
  w.put_string(spec.app_name);
  w.put_bool(spec.paper_scale);
  w.put_u64(spec.app_scale_seed);
  put_config(w, cfg);
  const std::vector<std::uint8_t> bytes = w.take();
  return std::string(bytes.begin(), bytes.end());
}

}  // namespace

struct CampaignService::Impl final : FleetHost {
  ServiceConfig scfg;
  Journal journal;
  ServiceReport stats;
  Fleet fleet;  // one listener, two kinds of peer: workers and clients
  std::atomic<bool> stop_requested{false};

  // -------------------------------------------------------------------------
  // Campaign table. A campaign is the fleet's RunState (valid once its
  // calibration is integrated, state >= Running) plus its service identity.
  // Entries are never erased, so worker leases can point into the map.
  // -------------------------------------------------------------------------

  struct Campaign : RunState {
    std::uint64_t id = 0;
    CampaignSpec spec;
    CampaignState state = CampaignState::Queued;
    std::string error;
    double submitted_at = 0.0;
    bool recovered = false;
    std::vector<std::uint64_t> recovered_done;  // journal high-water mark
    std::vector<unsigned> subscribers;          // peer ids streaming this campaign
  };
  std::map<std::uint64_t, Campaign> campaigns;
  std::uint64_t next_id = 1;

  // -------------------------------------------------------------------------
  // Calibration thread: calibrate() costs seconds of simulation per app, so
  // it runs off the poll loop. Jobs carry a copy of the spec; completions
  // come back through `calib_done` + a fleet kick. The cache (identical
  // app/scale/config calibrate identically — the whole protocol depends on
  // that determinism) is touched only by the calibration thread.
  // -------------------------------------------------------------------------

  struct CalibJob {
    std::uint64_t id = 0;
    CampaignSpec spec;
  };
  struct CalibDone {
    std::uint64_t id = 0;
    bool ok = false;
    CalibratedApp ca;
    std::string error;
  };
  std::thread calib_thread;
  std::mutex calib_mutex;
  std::condition_variable calib_cv;
  bool calib_stop = false;
  std::deque<CalibJob> calib_queue;
  std::deque<CalibDone> calib_done;

  double started_at = 0.0;
  double last_rebalance = 0.0;
  double last_status = 0.0;

  // -------------------------------------------------------------------------

  explicit Impl(ServiceConfig scfg_in)
      : scfg(std::move(scfg_in)), journal(scfg.journal_dir),
        fleet(scfg, stats, *this, scfg.max_client_frame) {
    for (const RecoveredCampaign& rc : journal.recovered().live) {
      Campaign& c = campaigns[rc.id];
      c.id = rc.id;
      c.spec = rc.spec;
      c.recovered = true;
      c.recovered_done = rc.done_indices;
      c.submitted_at = mono_seconds();  // age restarts with the service
      ++stats.campaigns_recovered;
    }
    next_id = journal.recovered().next_campaign_id;
  }

  // --- calibration ---------------------------------------------------------

  void calib_main() {
    std::map<std::string, CalibratedApp> cache;  // by calibration_key()
    for (;;) {
      CalibJob job;
      {
        std::unique_lock lock(calib_mutex);
        calib_cv.wait(lock, [this] { return calib_stop || !calib_queue.empty(); });
        if (calib_stop) return;
        job = std::move(calib_queue.front());
        calib_queue.pop_front();
      }
      CalibDone done;
      done.id = job.id;
      const std::string key = calibration_key(job.spec);
      try {
        auto it = cache.find(key);
        if (it == cache.end()) {
          apps::App app = apps::build_app(job.spec.app_name, job.spec.to_scale());
          it = cache.emplace(key, calibrate(std::move(app), job.spec.config)).first;
        }
        done.ca = it->second;
        done.ok = true;
      } catch (const std::exception& e) {
        done.error = e.what();
      }
      {
        std::lock_guard lock(calib_mutex);
        calib_done.push_back(std::move(done));
      }
      fleet.kick();
    }
  }

  void stop_calibration() {
    {
      std::lock_guard lock(calib_mutex);
      calib_stop = true;
    }
    calib_cv.notify_all();
    calib_thread.join();
  }

  void queue_calibrations() {
    std::lock_guard lock(calib_mutex);
    for (auto& [id, c] : campaigns) {
      if (c.state != CampaignState::Queued) continue;
      calib_queue.push_back({id, c.spec});
      c.state = CampaignState::Calibrating;
    }
    calib_cv.notify_one();
  }

  void integrate_calibrations() {
    std::deque<CalibDone> batch;
    {
      std::lock_guard lock(calib_mutex);
      batch.swap(calib_done);
    }
    for (CalibDone& d : batch) {
      const auto it = campaigns.find(d.id);
      if (it == campaigns.end() || is_terminal(it->second.state)) continue;
      Campaign& c = it->second;
      if (!d.ok) {
        finish_campaign(c, CampaignState::Failed, d.error);
        continue;
      }
      const CampaignConfig& cfg = c.spec.config;
      // Durable calibration cost record: a restarted service recalibrates, so
      // the journal keeps one "calibrated" line per completed calibration.
      journal.record_calibrated(c.id, d.ca.calib_wall_seconds, cfg.fastmode);
      c.begin(seeded_fault_set(cfg.campaign_seed, std::size_t(c.spec.experiments),
                               d.ca.kernel_fetches),
              cfg.campaign_seed,
              wire::encode_welcome(wire::Welcome::from(d.ca, c.spec.to_scale(), cfg)),
              c.recovered_done);
      if (c.spec.stop_eps > 0.0) {
        // Recovered campaigns keep the aggregator too: journaled-done indices
        // are never fed to it, so the contiguous-prefix rule simply cannot
        // fire past them and the campaign conservatively runs to completion.
        c.agg.emplace(StopPolicy{c.spec.stop_eps, c.spec.stop_conf}, c.faults.size());
      }
      if (c.recovered) recover_counts(c);
      c.recovered_done.clear();
      c.state = CampaignState::Running;
      if (c.completed == c.done.size()) finish_campaign(c, CampaignState::Done, "");
    }
  }

  /// Rebuild the outcome histogram of a resumed campaign from its journaled
  /// result lines (status would otherwise only count post-restart results).
  void recover_counts(Campaign& c) {
    for (const std::string& line : journal.read_result_lines(c.id)) {
      try {
        const jsonl::Value v = jsonl::parse(line);
        if (const auto o = outcome_from_name(v.at("outcome").as_string()))
          ++c.tally.counts[std::size_t(*o)];
      } catch (const std::exception&) {
        // A line recovery already skipped; counts stay approximate.
      }
    }
  }

  // --- campaign lifecycle --------------------------------------------------

  void finish_campaign(Campaign& c, CampaignState state, const std::string& error) {
    c.state = state;
    c.error = error;
    journal.record_terminal(c.id, state, error);
    switch (state) {
      case CampaignState::Done: ++stats.campaigns_done; break;
      case CampaignState::Cancelled: ++stats.campaigns_cancelled; break;
      case CampaignState::Failed: ++stats.campaigns_failed; break;
      default: break;
    }
    // Close out subscribers.
    StreamEnd end;
    end.id = c.id;
    end.state = state;
    end.error = error;
    const auto end_frame =
        frame_for(wire::MsgType::StreamEnd, encode_stream_end(end));
    for (const unsigned peer_id : c.subscribers) {
      FleetPeer* p = fleet.find(peer_id);
      if (p != nullptr && !p->defunct) {
        send_to_client(*p, end_frame);
        p->stream = 0;
      }
    }
    c.subscribers.clear();
    c.close();
  }

  [[nodiscard]] std::vector<SchedEntry> sched_snapshot() const {
    std::vector<SchedEntry> entries;
    for (const auto& [id, c] : campaigns) {
      SchedEntry e;
      e.id = id;
      e.tenant = c.spec.tenant;
      e.weight = c.spec.weight;
      e.max_workers = c.spec.max_workers;
      e.pending = c.state == CampaignState::Running ? c.pending.size() : 0;
      e.workers = fleet.leased(c);
      if (e.pending > 0 || e.workers > 0) entries.push_back(std::move(e));
    }
    return entries;
  }

  [[nodiscard]] CampaignStatus status_of(const Campaign& c, double now) const {
    CampaignStatus s;
    s.id = c.id;
    s.tenant = c.spec.tenant;
    s.name = c.spec.name;
    s.app_name = c.spec.app_name;
    s.state = c.state;
    s.total = c.spec.experiments;
    s.completed = c.completed;
    s.inflight = fleet.inflight(c);
    s.dispatched = c.dispatched;
    s.workers = fleet.leased(c);
    s.weight = c.spec.weight;
    std::copy(c.tally.counts.begin(), c.tally.counts.end(), s.counts.begin());
    s.error = c.error;
    s.age_seconds = now - c.submitted_at;
    return s;
  }

  // --- worker plane --------------------------------------------------------

  /// Journal a campaign-scoped JSON line and fan it out to streaming
  /// subscribers. Summary lines ride the same path as result lines; journal
  /// recovery skips any line without an "index" field, so they are inert
  /// across restarts.
  void broadcast_line(Campaign& c, const std::string& line) {
    journal.append_result(c.id, line);
    if (c.subscribers.empty()) return;
    ResultLines rl;
    rl.id = c.id;
    rl.lines.push_back(line);
    const auto rl_frame =
        frame_for(wire::MsgType::ResultLines, encode_result_lines(rl));
    for (const unsigned peer_id : c.subscribers) {
      FleetPeer* p = fleet.find(peer_id);
      if (p != nullptr && !p->defunct) send_to_client(*p, rl_frame);
    }
  }

  void on_result(RunState& run, const ExperimentRecord& rec) override {
    Campaign& c = static_cast<Campaign&>(run);
    // Journal first (durable before any ack leaves), then stream.
    broadcast_line(c, experiment_record_to_json(rec));
    ++stats.results_journaled;

    if (c.agg && c.agg->add(rec)) {
      // The sequential stop rule newly fired: emit the deterministic
      // stopped_early summary and cancel the queue. The campaign finishes
      // Done once its in-flight experiments drain (see tick()).
      ++stats.campaigns_stopped_early;
      broadcast_line(c, c.agg->summary_json("stopped_early"));
      fleet.stop_run(c);
      return;
    }
    if (c.completed == c.done.size()) {
      // Full-run summary only when the aggregator saw every experiment (a
      // recovered campaign's aggregate is partial by construction).
      if (c.agg && !c.stopping && c.agg->n() == c.done.size())
        broadcast_line(c, c.agg->summary_json("summary"));
      finish_campaign(c, CampaignState::Done, "");
    }
  }

  void on_hello(FleetPeer& /*p*/) override {
    // No Welcome yet: the worker stays parked until fair-share assignment.
  }

  /// Finish stopped campaigns whose last in-flight experiment has landed,
  /// lease parked workers to campaigns by tenant fair share, then top up
  /// every leased worker's pipeline from its campaign's pending queue.
  void assign_and_dispatch() {
    for (auto& [id, c] : campaigns)
      if (c.stopping && !is_terminal(c.state) && fleet.inflight(c) == 0)
        finish_campaign(c, CampaignState::Done, "");
    for (const auto& p : fleet.peers()) {
      if (p->kind != PeerKind::Worker || p->defunct || p->lease != nullptr) continue;
      const std::uint64_t id = pick_campaign_for_worker(sched_snapshot());
      if (id == 0) break;  // nothing runnable; later workers see the same
      fleet.lease(*p, campaigns.at(id));
    }
    fleet.top_up();
  }

  void rebalance(double now) {
    if (now - last_rebalance < scfg.rebalance_interval_s) return;
    last_rebalance = now;
    // A parked worker about to be assigned covers any starvation already.
    for (const auto& p : fleet.peers())
      if (p->kind == PeerKind::Worker && !p->defunct && p->lease == nullptr) return;
    const auto entries = sched_snapshot();
    if (!has_starved_campaign(entries)) return;
    const std::uint64_t donor_id = pick_rebalance_donor(entries);
    if (donor_id == 0) return;
    // Part the donor's least-loaded worker so its reconnect comes back
    // through fair-share assignment (there is no in-band "switch campaigns"
    // message — the Welcome fixed this connection's app).
    const RunState* donor = &campaigns.at(donor_id);
    FleetPeer* victim = nullptr;
    for (const auto& p : fleet.peers()) {
      if (p->defunct || p->lease != donor) continue;
      if (victim == nullptr || p->inflight.size() < victim->inflight.size())
        victim = p.get();
    }
    if (victim == nullptr) return;
    fleet.part(*victim);
    ++stats.rebalance_moves;
  }

  // --- client plane --------------------------------------------------------

  void send_to_client(FleetPeer& p, std::span<const std::uint8_t> frame) {
    fleet.send(p, frame, scfg.client_send_timeout_s);
  }

  void handle_submit(FleetPeer& p, std::span<const std::uint8_t> payload) {
    SubmitReply reply;
    std::optional<CampaignSpec> spec;
    try {
      spec = decode_submit(payload);
    } catch (const util::DeserializeError&) {
      throw;  // malformed bytes: drop the peer like any damaged frame
    } catch (const std::exception& e) {
      reply.error = e.what();  // well-formed but unusable spec: polite no
    }
    if (spec) {
      const std::uint64_t id = next_id++;
      journal.record_submit(id, *spec);  // durable before the ack
      Campaign& c = campaigns[id];
      c.id = id;
      c.spec = std::move(*spec);
      c.submitted_at = mono_seconds();
      reply.ok = true;
      reply.id = id;
      ++stats.campaigns_submitted;
      queue_calibrations();
    }
    send_to_client(p, frame_for(wire::MsgType::SubmitReply,
                                encode_submit_reply(reply)));
  }

  void handle_status(FleetPeer& p, std::span<const std::uint8_t> payload) {
    const StatusRequest req = decode_status_request(payload);
    const double now = mono_seconds();
    std::vector<CampaignStatus> statuses;
    if (req.id == 0) {
      for (const auto& [id, c] : campaigns) statuses.push_back(status_of(c, now));
    } else if (const auto it = campaigns.find(req.id); it != campaigns.end()) {
      statuses.push_back(status_of(it->second, now));
    }
    send_to_client(p, frame_for(wire::MsgType::StatusReply,
                                encode_status_reply(statuses)));
  }

  void handle_cancel(FleetPeer& p, std::span<const std::uint8_t> payload) {
    const CancelCampaign req = decode_cancel(payload);
    CancelReply reply;
    const auto it = campaigns.find(req.id);
    if (it == campaigns.end()) {
      reply.error = "unknown campaign " + std::to_string(req.id);
    } else if (is_terminal(it->second.state)) {
      reply.error = "campaign " + std::to_string(req.id) + " already " +
                    campaign_state_name(it->second.state);
    } else {
      finish_campaign(it->second, CampaignState::Cancelled, "");
      reply.ok = true;
    }
    send_to_client(p, frame_for(wire::MsgType::CancelReply,
                                encode_cancel_reply(reply)));
  }

  void handle_stream(FleetPeer& p, std::span<const std::uint8_t> payload) {
    const StreamResults req = decode_stream_results(payload);
    const auto it = campaigns.find(req.id);
    if (it == campaigns.end()) {
      StreamEnd end;
      end.id = req.id;
      end.state = CampaignState::Failed;
      end.error = "unknown campaign " + std::to_string(req.id);
      send_to_client(p, frame_for(wire::MsgType::StreamEnd, encode_stream_end(end)));
      return;
    }
    Campaign& c = it->second;
    // Replay journaled history first, in batches, then subscribe for live
    // results — the client sees every line exactly once, in append order.
    ResultLines rl;
    rl.id = c.id;
    for (std::string& line : journal.read_result_lines(c.id)) {
      rl.lines.push_back(std::move(line));
      if (rl.lines.size() >= 256) {
        send_to_client(p, frame_for(wire::MsgType::ResultLines,
                                    encode_result_lines(rl)));
        rl.lines.clear();
        if (p.defunct) return;
      }
    }
    if (!rl.lines.empty())
      send_to_client(p, frame_for(wire::MsgType::ResultLines,
                                  encode_result_lines(rl)));
    if (p.defunct) return;
    if (is_terminal(c.state)) {
      StreamEnd end;
      end.id = c.id;
      end.state = c.state;
      end.error = c.error;
      send_to_client(p, frame_for(wire::MsgType::StreamEnd, encode_stream_end(end)));
    } else {
      p.stream = c.id;
      c.subscribers.push_back(p.id);
    }
  }

  // --- frame demux ---------------------------------------------------------

  /// Every frame from a non-worker peer. The first one decides: a
  /// control-plane type makes the peer a client (Hello is the fleet's).
  void on_other_frame(FleetPeer& p, const net::Frame& f) override {
    const auto type = wire::MsgType(f.type);
    if (p.kind == PeerKind::Unknown) {
      switch (type) {
        case wire::MsgType::SubmitCampaign:
        case wire::MsgType::StatusRequest:
        case wire::MsgType::CancelCampaign:
        case wire::MsgType::StreamResults:
          p.kind = PeerKind::Client;
          ++stats.clients_served;
          break;
        default:
          throw net::ProtocolError("unexpected first message type " +
                                   std::to_string(f.type));
      }
    }
    switch (type) {
      case wire::MsgType::SubmitCampaign: handle_submit(p, f.payload); return;
      case wire::MsgType::StatusRequest: handle_status(p, f.payload); return;
      case wire::MsgType::CancelCampaign: handle_cancel(p, f.payload); return;
      case wire::MsgType::StreamResults: handle_stream(p, f.payload); return;
      default:
        throw net::ProtocolError("unexpected client message type " +
                                 std::to_string(f.type));
    }
  }

  void on_drop(FleetPeer& p) override {
    if (p.stream == 0) return;
    const auto it = campaigns.find(p.stream);
    if (it == campaigns.end()) return;
    auto& subs = it->second.subscribers;
    subs.erase(std::remove(subs.begin(), subs.end(), p.id), subs.end());
  }

  // --- status display ------------------------------------------------------

  void print_status(double now) {
    if (scfg.status_interval_s <= 0.0) return;
    if (now - last_status < scfg.status_interval_s) return;
    last_status = now;
    std::FILE* out = scfg.status_out != nullptr ? scfg.status_out : stderr;
    unsigned workers = 0;
    for (const auto& p : fleet.peers())
      if (p->kind == PeerKind::Worker && !p->defunct) ++workers;
    std::fprintf(out, "[campaignd] t=%.1fs workers=%u campaigns=%zu\n",
                 now - started_at, workers, campaigns.size());
    for (const auto& [id, c] : campaigns) {
      const CampaignStatus s = status_of(c, now);
      std::fprintf(out,
                   "[campaignd]   c%llu tenant=%s app=%s %s %llu/%llu "
                   "workers=%u weight=%u inflight=%llu%s%s\n",
                   (unsigned long long)s.id, s.tenant.c_str(), s.app_name.c_str(),
                   campaign_state_name(s.state), (unsigned long long)s.completed,
                   (unsigned long long)s.total, s.workers, s.weight,
                   (unsigned long long)s.inflight,
                   s.error.empty() ? "" : " error=", s.error.c_str());
    }
    std::fflush(out);
  }

  // --- main loop -----------------------------------------------------------

  bool keep_serving() override {
    integrate_calibrations();
    return !stop_requested.load(std::memory_order_relaxed);
  }

  bool on_wake() override {
    stop_requested.store(true, std::memory_order_relaxed);
    return true;
  }

  void tick() override {
    integrate_calibrations();
    assign_and_dispatch();
    const double now = mono_seconds();
    rebalance(now);
    print_status(now);
  }

  ServiceReport run() {
    started_at = mono_seconds();
    last_rebalance = started_at;
    last_status = 0.0;
    calib_thread = std::thread([this] { calib_main(); });
    queue_calibrations();  // recovered campaigns recalibrate immediately

    // Graceful stop: workers get Shutdown; live campaigns stay journaled
    // and resume on the next start.
    try {
      fleet.serve();
    } catch (...) {
      stop_calibration();
      throw;
    }
    stop_calibration();

    stats.wall_seconds = mono_seconds() - started_at;
    return stats;
  }
};

CampaignService::CampaignService(ServiceConfig scfg)
    : impl_(std::make_unique<Impl>(std::move(scfg))) {}

CampaignService::~CampaignService() = default;

std::uint16_t CampaignService::port() const noexcept { return impl_->fleet.port(); }

ServiceReport CampaignService::run() { return impl_->run(); }

void CampaignService::request_stop() noexcept {
  impl_->stop_requested.store(true, std::memory_order_relaxed);
  impl_->fleet.notify();
}

}  // namespace gemfi::campaign::service
