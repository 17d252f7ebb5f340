#include "campaign/fleet.hpp"

#include <poll.h>

#include "net/sigint.hpp"

namespace gemfi::campaign {

using net::mono_seconds;

std::vector<std::uint8_t> frame_for(wire::MsgType type,
                                    std::span<const std::uint8_t> payload) {
  return net::encode_frame(std::uint8_t(type), payload);
}

// ---------------------------------------------------------------------------
// RunState
// ---------------------------------------------------------------------------

void RunState::begin(std::vector<fi::Fault> fault_list, std::uint64_t seed,
                     std::span<const std::uint8_t> welcome_payload,
                     std::span<const std::uint64_t> already_done) {
  faults = std::move(fault_list);
  campaign_seed = seed;
  welcome_payload_bytes = welcome_payload.size();
  welcome_frame = frame_for(wire::MsgType::Welcome, welcome_payload);
  done.assign(faults.size(), 0);
  for (const std::uint64_t idx : already_done) {
    if (idx >= done.size() || done[idx]) continue;
    done[idx] = 1;
    ++completed;
  }
  dispatched = completed;
  for (std::uint64_t i = 0; i < done.size(); ++i)
    if (!done[i]) pending.push_back(i);
}

void RunState::close() {
  closed = true;
  pending.clear();
  faults.clear();
  faults.shrink_to_fit();
  welcome_frame.clear();
  welcome_frame.shrink_to_fit();
}

// ---------------------------------------------------------------------------
// FleetHost defaults
// ---------------------------------------------------------------------------

void FleetHost::on_other_frame(FleetPeer& /*p*/, const net::Frame& f) {
  throw net::ProtocolError("unexpected message type " + std::to_string(f.type));
}

void FleetHost::on_drop(FleetPeer& /*p*/) {}

// ---------------------------------------------------------------------------
// Fleet
// ---------------------------------------------------------------------------

Fleet::Fleet(const FleetConfig& cfg, FleetReport& report, FleetHost& host,
             std::size_t max_peer_frame, const std::string& unix_path)
    : cfg_(cfg), report_(report), host_(host), max_peer_frame_(max_peer_frame) {
  listener_ = net::TcpListener::bind_listen(cfg_.bind_address, cfg_.port);
  if (!unix_path.empty()) unix_listener_ = net::UnixListener::bind_listen(unix_path);
}

bool Fleet::send(FleetPeer& p, std::span<const std::uint8_t> frame, double timeout_s) {
  try {
    p.conn.send_all(frame, timeout_s);
    return true;
  } catch (const std::exception&) {
    p.defunct = true;
    return false;
  }
}

bool Fleet::lease(FleetPeer& p, RunState& run) {
  if (!send(p, run.welcome_frame, /*timeout_s=*/30.0)) return false;
  p.lease = &run;
  p.liveness.reset(mono_seconds());
  return true;
}

std::size_t Fleet::inflight(const RunState& run) const {
  std::size_t n = 0;
  for (const auto& p : peers_)
    if (p->lease == &run && !p->defunct) n += p->inflight.size();
  return n;
}

unsigned Fleet::leased(const RunState& run) const {
  unsigned n = 0;
  for (const auto& p : peers_)
    if (p->lease == &run && !p->defunct) ++n;
  return n;
}

FleetPeer* Fleet::find(unsigned id) const {
  for (const auto& p : peers_)
    if (p->id == id) return p.get();
  return nullptr;
}

void Fleet::handle_result(FleetPeer& w, const wire::ResultMsg& msg) {
  RunState* const run = w.lease;
  if (run == nullptr) throw net::ProtocolError("Result before Welcome");
  w.inflight.erase(msg.index);
  if (run->closed) return;  // cancelled while in flight: drop
  if (msg.index >= run->done.size())
    throw net::ProtocolError("result for unknown experiment " +
                             std::to_string(msg.index));
  if (run->done[msg.index]) {
    // Exactly-once: a redispatch, a requeued copy or a zombie worker
    // replayed it; the first result won.
    ++report_.duplicate_results;
    return;
  }
  run->done[msg.index] = 1;
  ++run->completed;
  const ExperimentResult& er = msg.result;
  ++run->tally.counts[std::size_t(er.classification.outcome)];
  ++run->tally.syscall_counts[std::size_t(er.syscall_class.outcome)];
  if (er.syscall_class.cascade_len > run->tally.max_cascade)
    run->tally.max_cascade = er.syscall_class.cascade_len;
  run->experiment_wall_seconds += er.wall_seconds;
  // A redispatched experiment may be in flight on a second worker.
  for (const auto& p : peers_)
    if (p->lease == run) p->inflight.erase(msg.index);
  host_.on_result(*run, {std::size_t(msg.index), w.id,
                         experiment_seed(run->campaign_seed, msg.index), er});
}

void Fleet::handle_frame(FleetPeer& p, const net::Frame& f) {
  const auto type = wire::MsgType(f.type);
  if (p.kind == PeerKind::Unknown && type == wire::MsgType::Hello) {
    const wire::Hello hello = wire::decode_hello(f.payload);
    p.kind = PeerKind::Worker;
    p.slots = hello.slots;
    ++report_.workers_joined;
    host_.on_hello(p);
    return;
  }
  if (p.kind != PeerKind::Worker) {
    host_.on_other_frame(p, f);
    return;
  }
  switch (type) {
    case wire::MsgType::Result:
      handle_result(p, wire::decode_result(f.payload));
      return;
    case wire::MsgType::Heartbeat:
      wire::decode_heartbeat(f.payload);  // liveness is any valid frame
      return;
    case wire::MsgType::CancelAck:
      // The worker dropped these queued-not-started experiments; they are
      // uniquely owned (never redispatched after the stop), so forgetting
      // them lets the drain finish after only the running ones.
      for (const std::uint64_t index : wire::decode_cancel_ack(f.payload).dropped)
        if (p.lease != nullptr && index < p.lease->done.size() &&
            !p.lease->done[index] && p.inflight.erase(index) != 0)
          ++p.lease->cancelled;
      return;
    default:
      throw net::ProtocolError("unexpected worker message type " +
                               std::to_string(f.type));
  }
}

bool Fleet::service_readable(FleetPeer& p) {
  std::uint8_t buf[64 * 1024];
  try {
    for (;;) {
      const auto got = p.conn.recv_some(buf);
      if (!got) return false;  // EOF
      if (*got == 0) break;    // drained
      p.reader.feed(std::span<const std::uint8_t>(buf, *got));
      bool frame_completed = false;
      while (auto f = p.reader.next()) {
        frame_completed = true;
        handle_frame(p, *f);
      }
      p.liveness.on_read(mono_seconds(), frame_completed, p.reader.buffered());
      if (p.defunct) return false;
    }
    return true;
  } catch (const std::exception&) {
    // ProtocolError, DeserializeError from a decoder: the peer is unusable.
    ++report_.frames_rejected;
    return false;
  }
}

void Fleet::requeue_worker_inflight(FleetPeer& w) {
  RunState* const run = w.lease;
  // A stopping run wants fewer results, not replacements: dropping a dead
  // worker's in-flight work just shortens the drain.
  if (run != nullptr && !run->stopping && !run->closed) {
    for (const auto& [index, since] : w.inflight) {
      (void)since;
      if (index >= run->done.size() || run->done[index]) continue;
      bool elsewhere = false;
      for (const auto& other : peers_)
        if (other.get() != &w && other->lease == run && other->inflight.count(index))
          elsewhere = true;
      if (elsewhere) continue;  // the redispatched copy is still running
      run->pending.push_front(index);
      ++report_.requeued;
    }
  }
  w.inflight.clear();
}

void Fleet::drop(std::size_t i) {
  FleetPeer& p = *peers_[i];
  if (p.kind == PeerKind::Worker) {
    if (!p.retiring) ++report_.workers_lost;
    requeue_worker_inflight(p);
  }
  host_.on_drop(p);
  peers_.erase(peers_.begin() + std::ptrdiff_t(i));
}

void Fleet::part(FleetPeer& p) {
  requeue_worker_inflight(p);
  p.conn.close();
  p.defunct = true;
}

void Fleet::remove_defunct() {
  for (std::size_t i = peers_.size(); i-- > 0;)
    if (peers_[i]->defunct) drop(i);
}

void Fleet::reap_silent() {
  const double now = mono_seconds();
  for (std::size_t i = peers_.size(); i-- > 0;) {
    const FleetPeer& p = *peers_[i];
    // Clients idle legitimately between requests, and a parked worker sits
    // silent in its Welcome wait: only the partial-frame deadline applies to
    // them (closes the drip-feed hole without reaping quiet peers).
    const bool may_idle = p.kind == PeerKind::Client ||
                          (p.kind == PeerKind::Worker && p.lease == nullptr);
    const bool dead =
        may_idle ? p.liveness.partial_since != 0.0 &&
                       now - p.liveness.partial_since >
                           cfg_.worker_timeout_s + cfg_.frame_grace_s
                 : p.liveness.expired(now, cfg_.worker_timeout_s, cfg_.frame_grace_s);
    if (dead) {
      ++report_.peers_timed_out;
      drop(i);
    }
  }
}

void Fleet::top_up() {
  const double now = mono_seconds();
  for (std::size_t i = 0; i < peers_.size();) {
    FleetPeer& p = *peers_[i];
    RunState* const run = p.lease;
    const std::size_t target = std::size_t(p.slots) * cfg_.pipeline_depth;
    if (run == nullptr || p.defunct || p.retiring || run->stopping || run->closed ||
        p.inflight.size() >= target || run->pending.empty()) {
      ++i;
      continue;
    }
    std::vector<wire::BatchItem> items;
    while (p.inflight.size() < target && !run->pending.empty()) {
      const std::uint64_t index = run->pending.front();
      run->pending.pop_front();
      if (run->done[index]) continue;  // completed while queued
      items.push_back({index, run->faults[index].to_line()});
      p.inflight.emplace(index, now);
    }
    if (items.empty()) {
      ++i;
      continue;
    }
    try {
      p.conn.send_all(frame_for(wire::MsgType::Batch, wire::encode_batch(items)));
      run->dispatched += items.size();
      ++i;
    } catch (const std::exception&) {
      drop(i);  // requeues the batch it never received
    }
  }
}

void Fleet::stop_run(RunState& run) {
  if (run.stopping) return;
  run.stopping = true;
  run.cancelled += run.pending.size();
  run.pending.clear();
  const auto frame = frame_for(wire::MsgType::CancelQueue, {});
  for (const auto& p : peers_)
    if (p->lease == &run && !p->defunct) send(*p, frame, /*timeout_s=*/2.0);
}

void Fleet::serve() {
  net::ScopedSigint sigint(&wake_, cfg_.handle_sigint);
  while (host_.keep_serving()) {
    remove_defunct();

    std::vector<pollfd> fds;
    fds.push_back({listener_.fd(), POLLIN, 0});
    fds.push_back({wake_.read_fd(), POLLIN, 0});
    fds.push_back({kick_.read_fd(), POLLIN, 0});
    if (unix_listener_.valid()) fds.push_back({unix_listener_.fd(), POLLIN, 0});
    const std::size_t base = fds.size();
    for (const auto& p : peers_) fds.push_back({p->conn.fd(), POLLIN, 0});
    ::poll(fds.data(), nfds_t(fds.size()), int(cfg_.poll_interval_s * 1000.0) + 1);

    if (fds[1].revents & POLLIN) {
      wake_.drain();
      if (host_.on_wake()) break;
    }
    if (fds[2].revents & POLLIN) kick_.drain();

    const auto adopt = [&](net::TcpConn conn) {
      auto p = std::make_unique<FleetPeer>(std::move(conn), max_peer_frame_,
                                           mono_seconds());
      p->id = next_peer_id_++;
      peers_.push_back(std::move(p));
    };
    if (fds[0].revents & POLLIN)
      while (auto conn = listener_.accept()) adopt(std::move(*conn));
    if (unix_listener_.valid() && (fds[3].revents & POLLIN))
      while (auto conn = unix_listener_.accept()) adopt(std::move(*conn));

    // fds[i + base] belongs to peers_[i] as the loop entered poll() (accepts
    // only append); service back-to-front so drop()'s erase cannot shift
    // unvisited entries.
    const std::size_t polled = fds.size() - base;
    for (std::size_t i = polled; i-- > 0;) {
      if ((fds[i + base].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      if (!service_readable(*peers_[i])) drop(i);
    }

    reap_silent();
    remove_defunct();
    host_.tick();
  }

  // Workers (and peers that have not said Hello yet, which may be workers
  // still connecting) exit cleanly; clients just see the connection close.
  const auto shutdown = frame_for(wire::MsgType::Shutdown, {});
  for (const auto& p : peers_) {
    if (p->kind == PeerKind::Client || p->defunct) continue;
    try {
      p->conn.send_all(shutdown, /*timeout_s=*/2.0);
    } catch (const std::exception&) {
      // Exiting anyway.
    }
  }
  listener_.close();
  unix_listener_.close();
}

}  // namespace gemfi::campaign
