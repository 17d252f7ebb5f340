#include "campaign/dispatch.hpp"

#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>

#include "campaign/observer.hpp"
#include "campaign/wire.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"

namespace gemfi::campaign {

using net::mono_seconds;

Autoscaler::Decision Autoscaler::tick(double now, std::size_t backlog,
                                      std::size_t capacity_slots, unsigned workers) {
  Decision d;
  if (!cfg_.enabled()) return d;
  if (now - last_action_ < cfg_.cooldown_s) return d;
  const double load =
      double(backlog) / double(std::max<std::size_t>(1, capacity_slots));
  if (workers < cfg_.min_workers) {
    d.spawn = cfg_.min_workers - workers;
  } else if (load > cfg_.high_watermark && workers < cfg_.max_workers) {
    d.spawn = std::min(cfg_.step, cfg_.max_workers - workers);
  } else if (load < cfg_.low_watermark && workers > cfg_.min_workers) {
    d.retire = std::min(cfg_.step, workers - cfg_.min_workers);
  }
  if (d.spawn != 0 || d.retire != 0) last_action_ = now;
  return d;
}

// ---------------------------------------------------------------------------
// Master: the fleet plus one campaign every worker is leased to at Hello.
// ---------------------------------------------------------------------------

struct Master::Impl final : FleetHost {
  CampaignConfig cfg;
  DispatchConfig dcfg;
  DispatchReport stats;  // counters accumulate here during the run
  RunState run;
  Fleet fleet;
  std::atomic<bool> drain_requested{false};
  double first_worker_deadline = 0.0;

  // Elastic fleet. spawned_not_joined counts workers the spawn callback
  // started that have not sent Hello yet, so the policy does not re-spawn
  // for the same backlog every cooldown period.
  Autoscaler scaler;
  std::function<void(unsigned)> spawn_cb;
  unsigned spawned_not_joined = 0;

  std::vector<std::uint8_t> redispatches;  // slow-path duplicates issued

  Impl(const CalibratedApp& ca, const apps::AppScale& scale,
       const std::vector<fi::Fault>& faults, const CampaignConfig& cfg_in,
       const DispatchConfig& dcfg_in)
      : cfg(cfg_in), dcfg(dcfg_in),
        fleet(dcfg, stats, *this, dcfg.max_worker_frame, dcfg.unix_path),
        scaler(dcfg.autoscale) {
    run.begin(faults, cfg.campaign_seed,
              wire::encode_welcome(wire::Welcome::from(ca, scale, cfg)));
    // The aggregator always runs (it is cheap); the stop rule only fires
    // when dcfg.stop is enabled.
    run.agg.emplace(dcfg.stop, faults.size());
    redispatches.assign(faults.size(), 0);
  }

  bool keep_serving() override {
    if (run.completed == run.done.size()) return false;
    if (drain_requested.load(std::memory_order_relaxed) && fleet.inflight(run) == 0) {
      stats.drained_early = true;
      return false;
    }
    return true;
  }

  bool on_wake() override {
    drain_requested.store(true, std::memory_order_relaxed);
    return false;  // drain: collect in-flight results first
  }

  void on_hello(FleetPeer& p) override {
    if (!fleet.lease(p, run)) return;
    stats.checkpoint_bytes_shipped += run.welcome_payload_bytes;
    if (spawned_not_joined > 0) --spawned_not_joined;
  }

  void on_result(RunState& r, const ExperimentRecord& rec) override {
    if (cfg.observer) cfg.observer->on_experiment(rec);
    if (r.agg->add(rec)) start_early_stop();
  }

  void tick() override {
    redispatch_slow();
    autoscale_tick();
    if (!drain_requested.load(std::memory_order_relaxed)) fleet.top_up();
    if (stats.workers_joined == 0 && mono_seconds() > first_worker_deadline)
      throw std::runtime_error("campaign master: no worker joined within " +
                               std::to_string(dcfg.first_worker_timeout_s) + "s");
  }

  /// The stop rule just held on the index-ordered prefix: stop dispatching,
  /// reclaim every queued experiment, and emit the deterministic
  /// stopped_early summary. In-flight experiments finish normally; the
  /// drain condition in keep_serving() does the rest.
  void start_early_stop() {
    if (run.stopping) return;
    stats.stopped_early = true;
    stats.stop_index = run.agg->stop_index();
    drain_requested.store(true, std::memory_order_relaxed);
    fleet.stop_run(run);
    stats.aggregate_summary = run.agg->summary_json("stopped_early");
    if (cfg.observer) cfg.observer->on_campaign_summary(stats.aggregate_summary);
  }

  [[nodiscard]] bool has_room(const FleetPeer& w) const {
    return w.lease != nullptr && !w.defunct && !w.retiring &&
           w.inflight.size() < std::size_t(w.slots) * dcfg.pipeline_depth;
  }

  /// Slow-worker mitigation: an experiment stuck in flight past the
  /// threshold is dispatched once more to a different worker with capacity;
  /// dedup keeps whichever result lands first.
  void redispatch_slow() {
    if (dcfg.slow_redispatch_s <= 0.0) return;
    const double now = mono_seconds();
    for (const auto& slow : fleet.peers()) {
      if (slow->lease == nullptr) continue;
      for (const auto& [index, since] : slow->inflight) {
        if (run.done[index] || redispatches[index] != 0) continue;
        if (now - since < dcfg.slow_redispatch_s) continue;
        for (const auto& spare : fleet.peers()) {
          if (spare.get() == slow.get() || !has_room(*spare)) continue;
          const std::vector<wire::BatchItem> one{{index, run.faults[index].to_line()}};
          if (fleet.send(*spare, frame_for(wire::MsgType::Batch, wire::encode_batch(one)),
                         /*timeout_s=*/30.0)) {
            spare->inflight.emplace(index, now);
            redispatches[index] = 1;
            ++stats.redispatched;
          }
          break;
        }
      }
    }
  }

  /// Elastic fleet tick: sample backlog/capacity, apply the watermark
  /// policy. Growth goes through the spawn callback; retirement picks idle
  /// (inflight-empty) workers and shuts them down gracefully — never
  /// counted as lost, never taking work down with them.
  void autoscale_tick() {
    if (!dcfg.autoscale.enabled()) return;
    if (run.stopping || drain_requested.load(std::memory_order_relaxed)) return;

    std::size_t capacity = 0;
    unsigned active = 0;
    for (const auto& w : fleet.peers()) {
      if (w->lease == nullptr || w->retiring) continue;
      ++active;
      capacity += w->slots;
    }
    const std::size_t backlog = run.pending.size() + fleet.inflight(run);
    const auto d = scaler.tick(mono_seconds(), backlog, capacity,
                               active + spawned_not_joined);

    if (d.spawn != 0 && spawn_cb) {
      spawn_cb(d.spawn);
      spawned_not_joined += d.spawn;
      stats.workers_spawned += d.spawn;
    }
    if (d.retire == 0) return;
    const auto frame = frame_for(wire::MsgType::Shutdown, {});
    unsigned remaining = d.retire;
    for (const auto& w : fleet.peers()) {
      if (remaining == 0) break;
      if (w->lease == nullptr || w->retiring || !w->inflight.empty()) continue;
      if (!fleet.send(*w, frame, /*timeout_s=*/2.0)) continue;
      w->retiring = true;
      ++stats.workers_retired;
      --remaining;
    }
  }

  DispatchReport run_campaign() {
    const double t0 = mono_seconds();
    first_worker_deadline = t0 + dcfg.first_worker_timeout_s;
    if (cfg.observer) cfg.observer->on_campaign_begin(run.done.size());

    fleet.serve();

    stats.campaign = run.tally;
    stats.completed = run.completed;
    stats.experiment_wall_seconds = run.experiment_wall_seconds;
    stats.cancelled = run.cancelled;
    stats.wall_seconds = mono_seconds() - t0;
    stats.campaign.wall_seconds = stats.wall_seconds;
    // Final aggregate summary: only for --stop-ci campaigns that completed
    // in full (the stopped_early record was already emitted at the stop;
    // a second summary over the nondeterministic straggler set would break
    // byte-identity between replays).
    if (dcfg.stop.enabled() && !stats.stopped_early && run.completed == run.done.size()) {
      stats.aggregate_summary = run.agg->summary_json("summary");
      if (cfg.observer) cfg.observer->on_campaign_summary(stats.aggregate_summary);
    }
    stats.done = std::move(run.done);
    if (cfg.observer) cfg.observer->on_campaign_end(stats.campaign);
    return std::move(stats);
  }
};

Master::Master(const CalibratedApp& ca, const apps::AppScale& scale,
               const std::vector<fi::Fault>& faults, const CampaignConfig& cfg,
               const DispatchConfig& dcfg)
    : impl_(std::make_unique<Impl>(ca, scale, faults, cfg, dcfg)) {}

Master::~Master() = default;

std::uint16_t Master::port() const noexcept { return impl_->fleet.port(); }

DispatchReport Master::run() { return impl_->run_campaign(); }

void Master::request_drain() noexcept {
  impl_->drain_requested.store(true, std::memory_order_relaxed);
  impl_->fleet.notify();
}

// ---------------------------------------------------------------------------
// Worker
// ---------------------------------------------------------------------------

namespace {

/// Everything one established connection needs: the rebuilt app, the slot
/// threads with their persistent Simulations, and the in/out queues between
/// the socket loop and the slots. A slot notifies the results-ready self-pipe
/// after every result it queues, so the socket loop, which polls that pipe
/// beside the connection, sends each result as soon as its slot finishes.
class WorkerSession {
 public:
  WorkerSession(const wire::Welcome& welcome, unsigned slots)
      : ca_(welcome.rebuild_app()), cfg_(welcome.config) {
    if (cfg_.use_checkpoint && cfg_.shared_baseline && !ca_.checkpoint.empty()) {
      try {
        baseline_.emplace(chkpt::CheckpointImage::parse(ca_.checkpoint));
      } catch (const std::exception&) {
        baseline_.reset();  // damaged: per-experiment path reports it
      }
    }
    threads_.reserve(slots);
    for (unsigned i = 0; i < slots; ++i) threads_.emplace_back([this] { slot_main(); });
  }

  ~WorkerSession() {
    {
      std::lock_guard lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    for (auto& t : threads_) t.join();
  }

  void enqueue(std::vector<std::pair<std::uint64_t, fi::Fault>> items) {
    {
      std::lock_guard lock(mutex_);
      for (auto& it : items) in_.push_back(std::move(it));
    }
    cv_.notify_all();
  }

  /// Pollable: readable once a slot has queued a result since the last
  /// take_results().
  [[nodiscard]] int results_ready_fd() const noexcept { return results_ready_.read_fd(); }

  /// Drain the results-ready pipe, then take every queued result. Draining
  /// first keeps the wake sound: a result queued after the take re-arms the
  /// pipe, because its slot notifies only after pushing it.
  std::vector<wire::ResultMsg> take_results() {
    results_ready_.drain();
    std::lock_guard lock(mutex_);
    std::vector<wire::ResultMsg> out(std::make_move_iterator(out_.begin()),
                                     std::make_move_iterator(out_.end()));
    out_.clear();
    return out;
  }

  /// Drop every queued-not-started experiment (CancelQueue); returns the
  /// dropped indices for the CancelAck. Experiments already claimed by a
  /// slot keep running and report normally.
  std::vector<std::uint64_t> cancel_queued() {
    std::lock_guard lock(mutex_);
    std::vector<std::uint64_t> dropped;
    dropped.reserve(in_.size());
    for (const auto& [index, fault] : in_) {
      (void)fault;
      dropped.push_back(index);
    }
    in_.clear();
    return dropped;
  }

  [[nodiscard]] unsigned busy_slots() const noexcept {
    return busy_.load(std::memory_order_relaxed);
  }

 private:
  void slot_main() {
    // One persistent Simulation per slot (the shared-baseline fast restore),
    // exactly like a local run_campaign worker thread.
    std::optional<ExperimentWorker> ew;
    if (baseline_) ew.emplace(ca_, *baseline_, cfg_);
    for (;;) {
      std::pair<std::uint64_t, fi::Fault> item;
      {
        std::unique_lock lock(mutex_);
        cv_.wait(lock, [this] { return stop_ || !in_.empty(); });
        if (stop_) return;
        item = std::move(in_.front());
        in_.pop_front();
      }
      busy_.fetch_add(1, std::memory_order_relaxed);
      wire::ResultMsg msg;
      msg.index = item.first;
      try {
        const std::vector<fi::SyscallFaultPlan> plans =
            plans_for_experiment(cfg_, item.first);
        msg.result = ew ? ew->run_with_retry(item.second, &plans)
                        : run_experiment_with_retry(ca_, item.second, cfg_, &plans);
      } catch (const std::exception& e) {
        // run_with_retry contracts never to throw; belt and braces so one
        // experiment cannot take the whole worker process down.
        msg.result.fault = item.second;
        msg.result.sim_error = e.what();
        msg.result.exit_reason = sim::ExitReason::Crashed;
        msg.result.classification.outcome = apps::Outcome::Crashed;
      }
      busy_.fetch_sub(1, std::memory_order_relaxed);
      {
        std::lock_guard lock(mutex_);
        out_.push_back(std::move(msg));
      }
      results_ready_.notify();
    }
  }

  CalibratedApp ca_;
  CampaignConfig cfg_;
  std::optional<chkpt::CheckpointImage> baseline_;

  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::deque<std::pair<std::uint64_t, fi::Fault>> in_;
  std::deque<wire::ResultMsg> out_;
  std::atomic<unsigned> busy_{0};
  net::SelfPipe results_ready_;

  std::vector<std::thread> threads_;
};

/// Outcome of one established connection.
enum class SessionEnd { Shutdown, ConnectionLost };

/// Send every ready result as one write: the Result frames, in queue order,
/// back to back in one buffer.
void send_results(net::TcpConn& conn, const std::vector<wire::ResultMsg>& results) {
  if (results.empty()) return;
  std::vector<std::uint8_t> out;
  for (const wire::ResultMsg& msg : results) {
    const auto frame = frame_for(wire::MsgType::Result, wire::encode_result(msg));
    out.insert(out.end(), frame.begin(), frame.end());
  }
  conn.send_all(out);
}

SessionEnd serve_connection(net::TcpConn& conn, const WorkerConfig& wcfg) {
  conn.send_all(frame_for(wire::MsgType::Hello,
                          wire::encode_hello({wire::kProtocolVersion, wcfg.slots})));

  net::FrameReader reader(wcfg.max_master_frame);
  std::uint8_t buf[64 * 1024];

  // Wait for the Welcome (the checkpoint ship can take a moment on a LAN).
  // The master may pipeline the first Batch right behind it; stop draining
  // the reader as soon as the Welcome is out and let the main loop pick up
  // whatever stayed buffered.
  std::optional<wire::Welcome> welcome;
  const double welcome_deadline = mono_seconds() + 60.0;
  while (!welcome) {
    if (mono_seconds() > welcome_deadline) return SessionEnd::ConnectionLost;
    if (!conn.wait_readable(0.25)) continue;
    const auto got = conn.recv_some(buf);
    if (!got) return SessionEnd::ConnectionLost;
    reader.feed(std::span<const std::uint8_t>(buf, *got));
    if (auto f = reader.next()) {
      if (wire::MsgType(f->type) == wire::MsgType::Shutdown) return SessionEnd::Shutdown;
      if (wire::MsgType(f->type) != wire::MsgType::Welcome)
        throw net::ProtocolError("expected Welcome");
      welcome = wire::decode_welcome(f->payload);
    }
  }

  // The event loop: one poll over the connection and the slots'
  // results-ready pipe, woken by whichever comes first — a master frame, a
  // finished result, or the next heartbeat falling due.
  WorkerSession session(*welcome, wcfg.slots);
  double next_heartbeat = 0.0;
  std::uint64_t heartbeat_seq = 0;

  for (;;) {
    // Frames may already be buffered (pipelined behind the Welcome or from a
    // previous oversized recv) — drain before blocking on the socket.
    while (auto f = reader.next()) {
      switch (wire::MsgType(f->type)) {
        case wire::MsgType::Batch: {
          std::vector<std::pair<std::uint64_t, fi::Fault>> items;
          for (const wire::BatchItem& it : wire::decode_batch(f->payload))
            items.emplace_back(it.index, fi::parse_fault(it.fault_line));
          session.enqueue(std::move(items));
          break;
        }
        case wire::MsgType::Shutdown:
          return SessionEnd::Shutdown;
        case wire::MsgType::CancelQueue: {
          wire::CancelAck ack;
          ack.dropped = session.cancel_queued();
          conn.send_all(
              frame_for(wire::MsgType::CancelAck, wire::encode_cancel_ack(ack)));
          break;
        }
        default:
          throw net::ProtocolError("unexpected master message type " +
                                   std::to_string(f->type));
      }
    }

    const double now = mono_seconds();
    if (now >= next_heartbeat) {
      next_heartbeat = now + wcfg.heartbeat_interval_s;
      conn.send_all(frame_for(
          wire::MsgType::Heartbeat,
          wire::encode_heartbeat({heartbeat_seq++, session.busy_slots()})));
    }

    // Sleep until the heartbeat is due (rounded up to whole milliseconds, so
    // the loop never spins on a sub-millisecond remainder).
    pollfd fds[2] = {{conn.fd(), POLLIN, 0}, {session.results_ready_fd(), POLLIN, 0}};
    const double wait_s = std::min(next_heartbeat - mono_seconds(), 3600.0);
    const int timeout_ms = wait_s > 0.0 ? int(std::ceil(wait_s * 1000.0)) : 0;
    if (::poll(fds, 2, timeout_ms) <= 0) continue;

    if (fds[1].revents & POLLIN) send_results(conn, session.take_results());
    if (fds[0].revents & (POLLIN | POLLHUP | POLLERR)) {
      const auto got = conn.recv_some(buf);
      if (!got) return SessionEnd::ConnectionLost;
      reader.feed(std::span<const std::uint8_t>(buf, *got));
    }
  }
}

}  // namespace

int run_worker(const WorkerConfig& wcfg) {
  unsigned reconnects = 0;
  for (;;) {
    net::TcpConn conn;
    try {
      conn = wcfg.unix_path.empty()
                 ? net::TcpConn::connect(wcfg.host, wcfg.port, wcfg.connect_attempts,
                                         wcfg.connect_backoff_s)
                 : net::TcpConn::connect_unix(wcfg.unix_path, wcfg.connect_attempts,
                                              wcfg.connect_backoff_s);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "gemfi worker: %s\n", e.what());
      return 2;
    }
    try {
      if (serve_connection(conn, wcfg) == SessionEnd::Shutdown) return 0;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "gemfi worker: %s\n", e.what());
    }
    // Established connection lost: bounded reconnect (the master will requeue
    // whatever we had in flight and greet us as a fresh worker).
    if (++reconnects > wcfg.max_reconnects) return 1;
  }
}

// ---------------------------------------------------------------------------
// Forked loopback workers (--now-local and the chaos tests)
// ---------------------------------------------------------------------------

LocalWorkerPool LocalWorkerPool::spawn(unsigned workers, std::uint16_t port,
                                       unsigned slots, unsigned max_reconnects) {
  LocalWorkerPool pool;
  pool.grow(workers, port, {}, slots, max_reconnects);
  return pool;
}

void LocalWorkerPool::grow(unsigned workers, std::uint16_t port,
                           const std::string& unix_path, unsigned slots,
                           unsigned max_reconnects) {
  std::fflush(stdout);
  std::fflush(stderr);
  for (unsigned i = 0; i < workers; ++i) {
    const pid_t pid = ::fork();
    if (pid < 0) throw net::SocketError("fork failed");
    if (pid == 0) {
      WorkerConfig wcfg;
      wcfg.host = "127.0.0.1";
      wcfg.port = port;
      wcfg.unix_path = unix_path;
      wcfg.slots = slots == 0 ? 1 : slots;
      wcfg.max_reconnects = max_reconnects;
      // _exit: never unwind into the parent's atexit/gtest machinery.
      ::_exit(run_worker(wcfg));
    }
    pids_.push_back(int(pid));
  }
}

void LocalWorkerPool::kill_worker(std::size_t i, int signo) const {
  if (i < pids_.size() && pids_[i] > 0) ::kill(pids_[i], signo);
}

int LocalWorkerPool::wait_all() {
  int failures = 0;
  for (int& pid : pids_) {
    if (pid <= 0) continue;
    int status = 0;
    if (::waitpid(pid, &status, 0) == pid)
      if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) ++failures;
    pid = -1;
  }
  return failures;
}

DispatchReport Master::run_with_local_workers(unsigned workers, unsigned slots) {
  const DispatchConfig& dcfg = impl_->dcfg;
  if (dcfg.autoscale.enabled()) workers = std::min(workers, dcfg.autoscale.max_workers);
  LocalWorkerPool pool;
  pool.grow(workers, port(), dcfg.unix_path, slots);
  // Elastic growth forks more loopback workers into the same pool. Called
  // from the run() loop thread; the pool is only touched from that thread
  // until wait_all below.
  if (dcfg.autoscale.enabled())
    impl_->spawn_cb = [&pool, this, slots](unsigned n) {
      pool.grow(n, port(), impl_->dcfg.unix_path, slots);
    };
  try {
    DispatchReport report = run();
    pool.wait_all();
    return report;
  } catch (...) {
    for (std::size_t i = 0; i < pool.pids().size(); ++i) pool.kill_worker(i, SIGKILL);
    pool.wait_all();
    throw;
  }
}

DispatchReport run_campaign_service_local(const CalibratedApp& ca,
                                          const apps::AppScale& scale,
                                          const std::vector<fi::Fault>& faults,
                                          const CampaignConfig& cfg, unsigned workers,
                                          unsigned slots, DispatchConfig dcfg) {
  dcfg.bind_address = "127.0.0.1";
  Master master(ca, scale, faults, cfg, dcfg);
  return master.run_with_local_workers(workers == 0 ? 1 : workers, slots);
}

}  // namespace gemfi::campaign
