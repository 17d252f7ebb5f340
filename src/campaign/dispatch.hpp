// True multi-process NoW campaign dispatch (paper Sec. III-E, done for real).
//
// campaign::now_modeled_makespan models the paper's 27x4 cluster; this layer
// actually distributes a campaign across process/host boundaries:
//
//   master                                 worker (xN processes/hosts)
//   ------                                 ------
//   bind/listen, serialize Welcome once    connect (bounded backoff)
//                                    <---  Hello{version, slots}
//   Welcome{app, config, checkpoint} --->  rebuild CalibratedApp, parse the
//                                          CheckpointImage once, start one
//                                          persistent-Simulation thread/slot
//   Batch{(index, fault)...}         --->  run experiments
//                                    <---  Result{index, ExperimentResult}  (streamed)
//                                    <---  Heartbeat (liveness)
//   Shutdown                         --->  join slots, exit
//
// The worker's socket loop is event-driven: it polls the connection and a
// self-pipe that every slot notifies when it finishes an experiment, so a
// result leaves as soon as its slot is done (all results ready at one wake
// go out in one write), and the poll timeout is the time left until the next
// heartbeat. No timer paces the results.
//
// Master is the worker fleet of campaign/fleet.hpp — the same event loop,
// peer table, liveness, exactly-once accounting and requeue that the
// campaign service (service/service.hpp) runs — plus one campaign that every
// worker is leased to at Hello, so the Welcome and the first Batch leave in
// the same loop iteration as the Hello arrives. What is Master's own: slow
// redispatch (an experiment in flight too long is sent to a second worker;
// whichever result lands first wins), the autoscaler, observer streaming and
// the DispatchReport. Fault identity is preserved verbatim over the wire
// (Fault::to_line round-trip), so the deterministic splitmix64 seeding and
// `--replay` work unchanged. SIGINT (opt-in) drains gracefully: stop
// dispatching, collect in-flight results, then shut workers down and report
// the partial campaign.
//
// Results stream into the existing CampaignObserver pipeline
// (JsonlSink/ProgressPrinter) from the master's single event-loop thread as
// they arrive — a distributed campaign is observable exactly like a local one.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/analytics/aggregator.hpp"
#include "campaign/fleet.hpp"
#include "campaign/runner.hpp"

namespace gemfi::campaign {

/// Elastic worker-fleet policy: grow when the backlog per slot crosses the
/// high watermark, retire idle workers when it falls under the low one.
/// max_workers == 0 disables autoscaling entirely.
struct AutoscaleConfig {
  unsigned min_workers = 0;
  unsigned max_workers = 0;

  /// Watermarks are backlog-per-slot (pending + in-flight experiments over
  /// total fleet slots). With pipeline_depth 2 a saturated fleet sits near
  /// 2, so growth starts well above that and retirement well below.
  double high_watermark = 4.0;
  double low_watermark = 1.0;

  /// Minimum seconds between scaling actions — the hysteresis that keeps a
  /// load hovering at a watermark from flapping spawn/retire.
  double cooldown_s = 1.0;
  unsigned step = 1;  // workers per scaling action

  [[nodiscard]] bool enabled() const noexcept { return max_workers > 0; }
};

/// Pure watermark-hysteresis policy, separated from the Master so the
/// no-oscillation property is unit-testable without sockets or forks. The
/// caller samples (backlog, capacity, workers) and applies the decision;
/// `workers` must include spawns still connecting, or every cooldown period
/// would re-spawn for the same backlog.
class Autoscaler {
 public:
  explicit Autoscaler(const AutoscaleConfig& cfg) : cfg_(cfg) {}

  struct Decision {
    unsigned spawn = 0;
    unsigned retire = 0;
  };

  Decision tick(double now, std::size_t backlog, std::size_t capacity_slots,
                unsigned workers);

  [[nodiscard]] const AutoscaleConfig& config() const noexcept { return cfg_; }

 private:
  AutoscaleConfig cfg_;
  double last_action_ = -1e300;
};

/// Master-side tuning on top of the shared fleet fields.
struct DispatchConfig : FleetConfig {
  /// Largest frame accepted *from* a worker (results are small; a peer
  /// announcing a huge payload is dropped before any allocation).
  std::size_t max_worker_frame = 1 << 20;

  /// > 0: an experiment in flight on one worker for longer than this is
  /// additionally dispatched to another worker with spare capacity (at most
  /// once per experiment); whichever result arrives first wins. 0 = off.
  double slow_redispatch_s = 0.0;

  /// Give up if no worker has ever joined within this window.
  double first_worker_timeout_s = 60.0;

  /// Sequential early-stop rule (--stop-ci). When enabled, every result
  /// feeds a streaming Aggregator; once the index-ordered prefix satisfies
  /// the rule the master cancels the queue (its own and, via CancelQueue
  /// frames, the workers'), drains in-flight work, and emits a
  /// `stopped_early` summary record through the observer.
  StopPolicy stop;

  /// Non-empty: additionally listen on this AF_UNIX stream socket, so
  /// same-host workers can skip the loopback TCP stack. The TCP listener
  /// stays up regardless ('gfnw' framing is transport-agnostic).
  std::string unix_path;

  /// Elastic fleet policy. Growth forks loopback workers, so it needs
  /// Master::run_with_local_workers; plain run() only retires.
  AutoscaleConfig autoscale;
};

/// What the master adds to the fleet counters and the merged CampaignReport.
///
/// Results are streamed to cfg.observer as they arrive and are NOT retained:
/// campaign.results stays empty so a million-experiment campaign holds only
/// the done/redispatch bitmaps in master memory. campaign.counts and the
/// aggregate timings below are accumulated incrementally instead.
struct DispatchReport : FleetReport {
  CampaignReport campaign;          // counts/wall only; results intentionally empty
  std::vector<std::uint8_t> done;   // per-experiment completion mask
  std::size_t completed = 0;
  double experiment_wall_seconds = 0.0;  // sum of per-result wall_seconds

  std::uint64_t redispatched = 0;   // slow-worker duplicate dispatches
  std::uint64_t checkpoint_bytes_shipped = 0;  // Welcome payload total
  bool drained_early = false;       // drain (SIGINT or early stop): done[] partial

  // Sequential early stop (v5).
  bool stopped_early = false;       // the stop rule fired
  std::uint64_t stop_index = 0;     // prefix length that satisfied the rule
  std::uint64_t cancelled = 0;      // queued experiments reclaimed unrun
  std::string aggregate_summary;    // last summary JSON emitted ("" if none)

  // Elastic fleet.
  unsigned workers_spawned = 0;     // autoscale growth actions (workers forked)
  unsigned workers_retired = 0;     // idle workers gracefully shut down
};

/// The campaign master: a Fleet serving one campaign to completion.
/// Single-threaded; cfg.observer is invoked from the loop thread only.
class Master {
 public:
  /// Binds and listens immediately (so workers spawned right after
  /// construction can connect) but serves nothing until run().
  Master(const CalibratedApp& ca, const apps::AppScale& scale,
         const std::vector<fi::Fault>& faults, const CampaignConfig& cfg,
         const DispatchConfig& dcfg);
  ~Master();

  Master(const Master&) = delete;
  Master& operator=(const Master&) = delete;

  [[nodiscard]] std::uint16_t port() const noexcept;

  /// Serve the campaign until every experiment has exactly one result (or a
  /// SIGINT drain). Throws std::runtime_error if no worker ever joins.
  DispatchReport run();

  /// Request a graceful drain programmatically (thread-safe, also callable
  /// from an observer callback): stop dispatching, collect in-flight
  /// results, shut down. run() then returns with drained_early set.
  void request_drain() noexcept;

  /// run() served by `workers` forked loopback workers of `slots` slots each
  /// (0 = remote workers only), over the AF_UNIX socket when unix_path is
  /// set; autoscale growth forks into the same pool (the initial count is
  /// capped at autoscale.max_workers). Fork happens here, so call it before
  /// this process starts threads. The pool is reaped before returning; if
  /// run() throws, the workers are SIGKILLed and reaped first.
  DispatchReport run_with_local_workers(unsigned workers, unsigned slots);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Worker-side connection policy.
struct WorkerConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  /// Non-empty: connect to the master's AF_UNIX socket at this path instead
  /// of host:port (same-host workers; see DispatchConfig::unix_path).
  std::string unix_path;
  unsigned slots = 1;  // parallel experiments in this worker process

  /// Heartbeat period; also the longest the idle worker loop sleeps.
  double heartbeat_interval_s = 1.0;
  /// Connect/reconnect budget: attempts per connect() call, with exponential
  /// backoff starting at backoff_s; and how many times a *lost established*
  /// connection may be re-established before the worker gives up.
  unsigned connect_attempts = 20;
  double connect_backoff_s = 0.1;
  unsigned max_reconnects = 3;
  /// Largest frame accepted from the master; must fit the Welcome (config +
  /// checkpoint image).
  std::size_t max_master_frame = std::size_t(1) << 31;
};

/// Run one worker process: connect, register, execute batches until the
/// master sends Shutdown (returns 0), or until the connection/reconnect
/// budget is exhausted (returns nonzero). Never throws.
int run_worker(const WorkerConfig& wcfg);

/// A pool of forked loopback worker processes (the --now-local mode and the
/// chaos tests' crash targets).
class LocalWorkerPool {
 public:
  /// Fork `workers` children, each running run_worker() against
  /// 127.0.0.1:port with `slots` slots, then _exit(). Call before the parent
  /// spawns threads (Master::run is single-threaded, so the natural order —
  /// construct Master, spawn pool, run — is safe). `max_reconnects` is the
  /// per-worker budget for re-establishing a lost connection: the campaign
  /// service leases workers by closing and letting them reconnect, so its
  /// pools need a far larger budget than a one-shot master's.
  static LocalWorkerPool spawn(unsigned workers, std::uint16_t port, unsigned slots,
                               unsigned max_reconnects = 3);

  /// Fork more workers into an existing pool (the autoscaler's growth
  /// hook); with a non-empty `unix_path` they connect over the master's
  /// AF_UNIX socket instead of 127.0.0.1:port.
  void grow(unsigned workers, std::uint16_t port, const std::string& unix_path,
            unsigned slots, unsigned max_reconnects = 3);

  LocalWorkerPool() = default;
  LocalWorkerPool(LocalWorkerPool&&) = default;
  LocalWorkerPool& operator=(LocalWorkerPool&&) = default;

  [[nodiscard]] const std::vector<int>& pids() const noexcept { return pids_; }
  /// Send `signo` to worker i (SIGKILL in the chaos tests).
  void kill_worker(std::size_t i, int signo) const;
  /// Reap every child; returns how many exited nonzero or by signal.
  int wait_all();

 private:
  std::vector<int> pids_;
};

/// One-call convenience for `--now-local N`: master plus N forked loopback
/// workers with `slots` slots each, serving `faults` of the calibrated app.
DispatchReport run_campaign_service_local(const CalibratedApp& ca,
                                          const apps::AppScale& scale,
                                          const std::vector<fi::Fault>& faults,
                                          const CampaignConfig& cfg, unsigned workers,
                                          unsigned slots, DispatchConfig dcfg = {});

}  // namespace gemfi::campaign
