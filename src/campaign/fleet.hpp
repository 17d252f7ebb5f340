// The master side of the NoW protocol (paper Sec. III-E), written once.
//
// Both masters — the one-campaign campaign::Master and the multi-tenant
// campaign service — serve the same worker fleet the same way: accept
// connections, read 'GFNW' frames, admit workers by Hello, ship each one a
// campaign's Welcome (the checkpoint copy), keep every worker's pipeline
// topped up to slots x pipeline_depth, count each experiment exactly once,
// requeue what a dead worker held, and shut the fleet down at the end. Fleet
// owns all of that: the listeners, the self-pipe wakes and SIGINT scope, the
// peer table, the single poll loop, liveness reaping, the top-up and the
// CancelQueue / Shutdown fan-outs. RunState is one campaign's share of it:
// faults, Welcome frame, pending queue, done bitmap, tallies and the
// sequential-stop aggregator.
//
// What differs between the masters stays with them behind FleetHost: when a
// worker is leased (Master at Hello, the service at fair-share assignment),
// what happens to a fresh result (observer vs journal + stream), and the
// per-tick policy (slow redispatch and autoscale vs calibration, rebalance
// and the control plane).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "campaign/analytics/aggregator.hpp"
#include "campaign/runner.hpp"
#include "campaign/wire.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"

namespace gemfi::campaign {

/// Listener and worker-liveness tuning shared by DispatchConfig and
/// service::ServiceConfig.
struct FleetConfig {
  std::string bind_address = "127.0.0.1";  // 0.0.0.0 to serve a real cluster
  std::uint16_t port = 0;                  // 0 = ephemeral (see port())

  /// A worker that completes no frame for this long is declared dead and its
  /// in-flight experiments requeued. Raw bytes do NOT count as liveness: a
  /// peer drip-feeding bytes without ever finishing a frame is reaped too
  /// (see frame_grace_s).
  double worker_timeout_s = 15.0;

  /// Extra budget for a partial frame in flight: once a peer is idle past
  /// worker_timeout_s (no complete frame), a half-received frame keeps it
  /// alive for at most this long from the moment the frame started arriving.
  /// Protects a slow worker mid-large-frame without opening the trickle hole.
  double frame_grace_s = 10.0;

  double poll_interval_s = 0.05;  // event-loop tick

  /// In-flight experiments per worker = slots * pipeline_depth (keeps slots
  /// busy while batches are in transit).
  unsigned pipeline_depth = 2;

  /// Install a SIGINT handler for the duration of run() (CLIs set this;
  /// library callers usually do not).
  bool handle_sigint = false;
};

/// Fleet counters shared by DispatchReport and service::ServiceReport.
struct FleetReport {
  unsigned workers_joined = 0;          // Hellos accepted (a reconnect counts again)
  unsigned workers_lost = 0;            // EOF / timeout / protocol damage
  std::uint64_t requeued = 0;           // in-flight experiments taken off dead workers
  std::uint64_t duplicate_results = 0;  // dropped by exactly-once dedup
  std::uint64_t frames_rejected = 0;    // protocol-damaged peers dropped
  std::uint64_t peers_timed_out = 0;    // reaped by the liveness deadline
  double wall_seconds = 0.0;
};

/// One campaign as the fleet serves it.
struct RunState {
  std::vector<fi::Fault> faults;
  std::uint64_t campaign_seed = 0;
  // Serialized once: every worker leased to this run receives the same bytes.
  std::vector<std::uint8_t> welcome_frame;
  std::size_t welcome_payload_bytes = 0;

  // Results are not retained: only these scale with the campaign.
  std::deque<std::uint64_t> pending;  // not yet dispatched
  std::vector<std::uint8_t> done;     // exactly-once bitmap
  std::uint64_t completed = 0;
  std::uint64_t dispatched = 0;  // experiments shipped to workers
  std::uint64_t cancelled = 0;   // queued experiments reclaimed unrun by a stop
  CampaignReport tally;          // counts only; results stay empty
  double experiment_wall_seconds = 0.0;  // sum of per-result wall_seconds

  // Sequential early stop: `stopping` latches when the rule fires and marks
  // the drain window (no dispatch, no requeue, results still accepted).
  std::optional<Aggregator> agg;
  bool stopping = false;
  // Terminal: results are dropped, nothing is dispatched or requeued.
  bool closed = false;

  /// Set the campaign: `already_done` (a journal's high-water mark) is
  /// counted complete; everything else is queued in index order.
  void begin(std::vector<fi::Fault> fault_list, std::uint64_t seed,
             std::span<const std::uint8_t> welcome_payload,
             std::span<const std::uint64_t> already_done = {});
  /// Terminal: drop the queue and the bulk memory (done stays for status).
  void close();
};

enum class PeerKind : std::uint8_t { Unknown, Worker, Client };

/// One connection. The first frame decides its kind: Hello = a worker,
/// anything the host accepts (the service's control plane) = a client.
struct FleetPeer {
  unsigned id = 0;  // accept order; the worker id in experiment records
  PeerKind kind = PeerKind::Unknown;
  net::TcpConn conn;
  net::FrameReader reader;
  net::FrameLiveness liveness;
  bool defunct = false;   // marked for removal at the next sweep
  bool retiring = false;  // sent Shutdown on purpose; EOF is not a loss

  // Worker state.
  unsigned slots = 0;
  RunState* lease = nullptr;  // the run this connection serves; null = parked
  std::unordered_map<std::uint64_t, double> inflight;  // index -> dispatch time

  // Client state (service control plane).
  std::uint64_t stream = 0;  // campaign id subscribed to; 0 = none

  FleetPeer(net::TcpConn c, std::size_t max_frame, double now)
      : conn(std::move(c)), reader(max_frame) {
    liveness.reset(now);
  }
};

/// What a master adds to the fleet. Every hook runs on the serve() thread.
class FleetHost {
 public:
  /// Checked before every poll; false ends serve().
  virtual bool keep_serving() = 0;
  /// The stop/drain wake fired (notify() or SIGINT); true ends serve() now.
  virtual bool on_wake() = 0;
  /// A worker's Hello was admitted (kind, slots and workers_joined set).
  virtual void on_hello(FleetPeer& p) = 0;
  /// A first result for `run`, already tallied.
  virtual void on_result(RunState& run, const ExperimentRecord& rec) = 0;
  /// A frame from a peer that is not a worker. Throw to drop the peer.
  virtual void on_other_frame(FleetPeer& p, const net::Frame& f);
  /// `p` leaves the table; its in-flight work is already requeued.
  virtual void on_drop(FleetPeer& p);
  /// Once per loop iteration, after reads and liveness reaping.
  virtual void tick() = 0;

 protected:
  ~FleetHost() = default;
};

class Fleet {
 public:
  /// Binds the listeners immediately (so workers spawned right after can
  /// connect). `max_peer_frame` caps every frame read from a peer;
  /// non-empty `unix_path` adds an AF_UNIX listener next to the TCP one.
  Fleet(const FleetConfig& cfg, FleetReport& report, FleetHost& host,
        std::size_t max_peer_frame, const std::string& unix_path = {});

  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  [[nodiscard]] std::uint16_t port() const noexcept { return listener_.port(); }

  /// The event loop: runs until host.keep_serving() is false or on_wake()
  /// says stop, then sends Shutdown to every non-client peer and closes the
  /// listeners. Exceptions from hooks propagate.
  void serve();

  /// Thread-safe wakes: notify() reaches host.on_wake(); kick() only ends
  /// the current poll wait (new host work, e.g. a finished calibration).
  void notify() noexcept { wake_.notify(); }
  void kick() noexcept { kick_.notify(); }

  /// Send `run`'s Welcome and lease `p` to it. False (peer defunct) if the
  /// send failed.
  bool lease(FleetPeer& p, RunState& run);

  /// Ship pending experiments to every leased, non-retiring worker until it
  /// holds slots x pipeline_depth (skips stopping and closed runs).
  void top_up();

  /// Latch `run` stopping: reclaim its queue and tell its workers to drop
  /// their queued batches (CancelQueue). The CancelAcks settle the rest.
  void stop_run(RunState& run);

  /// Part `p` from its run: requeue its in-flight work, close the
  /// connection, drop it at the next sweep (counted as lost).
  void part(FleetPeer& p);

  /// send_all with the peer marked defunct on failure.
  bool send(FleetPeer& p, std::span<const std::uint8_t> frame, double timeout_s);

  [[nodiscard]] std::size_t inflight(const RunState& run) const;
  [[nodiscard]] unsigned leased(const RunState& run) const;
  [[nodiscard]] FleetPeer* find(unsigned id) const;
  [[nodiscard]] const std::vector<std::unique_ptr<FleetPeer>>& peers() const noexcept {
    return peers_;
  }

 private:
  void handle_frame(FleetPeer& p, const net::Frame& f);
  void handle_result(FleetPeer& w, const wire::ResultMsg& msg);
  bool service_readable(FleetPeer& p);
  void requeue_worker_inflight(FleetPeer& w);
  void drop(std::size_t i);
  void remove_defunct();
  void reap_silent();

  FleetConfig cfg_;
  FleetReport& report_;
  FleetHost& host_;
  std::size_t max_peer_frame_;

  net::TcpListener listener_;
  net::UnixListener unix_listener_;  // valid only with a unix_path
  net::SelfPipe wake_;               // stop / drain / SIGINT
  net::SelfPipe kick_;               // host work ready

  std::vector<std::unique_ptr<FleetPeer>> peers_;
  unsigned next_peer_id_ = 0;
};

/// Frame one protocol message.
std::vector<std::uint8_t> frame_for(wire::MsgType type,
                                    std::span<const std::uint8_t> payload);

}  // namespace gemfi::campaign
