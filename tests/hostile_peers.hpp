// Hostile peers shared by the dispatch and service suites. campaign::Master
// and the campaign service run the same fleet loop (campaign/fleet.hpp), so
// the same abuse must leave both standing: damaged frames are rejected and
// counted in frames_rejected, trickling or silent peers are reaped and
// counted in peers_timed_out, and the campaign still completes. FakeMaster
// turns the tables: a scripted master end that drives one real worker.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "net/frame.hpp"
#include "net/socket.hpp"

namespace hostile {

/// Connect three damaged peers in turn: raw garbage (bad magic, rejected at
/// the first byte), a valid Hello frame truncated mid-payload then EOF (just
/// a hang-up), and a header announcing a payload past the frame cap
/// (rejected before any allocation). Returns once all three have been sent.
inline void send_damaged_peers(std::uint16_t port) {
  using namespace gemfi;
  try {
    auto garbage = net::TcpConn::connect("127.0.0.1", port, 10, 0.05);
    const char junk[] = "GET /experiments HTTP/1.1\r\nHost: not-a-worker\r\n\r\n";
    garbage.send_all(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(junk), sizeof junk - 1));

    auto truncated = net::TcpConn::connect("127.0.0.1", port, 10, 0.05);
    const auto hello =
        net::encode_frame(1, std::vector<std::uint8_t>{5, 0, 0, 0, 1, 0, 0, 0});
    truncated.send_all(std::span<const std::uint8_t>(hello.data(), hello.size() - 3));
    truncated.close();

    auto oversized = net::TcpConn::connect("127.0.0.1", port, 10, 0.05);
    std::vector<std::uint8_t> header = {'W', 'N', 'F', 'G'};  // magic, LE
    header.push_back(1);                                      // type
    for (const std::uint8_t b : {0xFF, 0xFF, 0xFF, 0x7F}) header.push_back(b);
    for (int i = 0; i < 4; ++i) header.push_back(0);  // crc
    oversized.send_all(header);
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  } catch (const std::exception&) {
    // A hostile peer being dropped mid-send is the master working.
  }
}

/// One peer on its own thread: connects, sends `prefix` (whole frames; may
/// be empty), then either stays silent or, with `drip`, sends a valid
/// Heartbeat frame one byte every `pace` without ever finishing it. It reads
/// (and discards) whatever the master sends; closed() turns true once the
/// master hangs up.
class Peer {
 public:
  Peer(std::uint16_t port, std::vector<std::uint8_t> prefix, bool drip,
       std::chrono::milliseconds pace)
      : thread_([this, port, prefix = std::move(prefix), drip, pace] {
          run(port, prefix, drip, pace);
        }) {}

  ~Peer() {
    stop_.store(true);
    thread_.join();
  }

  Peer(const Peer&) = delete;
  Peer& operator=(const Peer&) = delete;

  [[nodiscard]] bool closed() const { return closed_.load(); }

 private:
  void run(std::uint16_t port, const std::vector<std::uint8_t>& prefix, bool drip,
           std::chrono::milliseconds pace) {
    using namespace gemfi;
    try {
      auto conn = net::TcpConn::connect("127.0.0.1", port, 10, 0.05);
      if (!prefix.empty()) conn.send_all(prefix);
      const auto partial = net::encode_frame(5, std::vector<std::uint8_t>(12, 0));
      std::size_t sent = 0;
      std::uint8_t buf[64 * 1024];
      const double pace_s = std::chrono::duration<double>(pace).count();
      while (!stop_.load()) {
        if (drip && sent + 1 < partial.size())  // never complete the frame
          conn.send_all(std::span<const std::uint8_t>(&partial[sent++], 1));
        if (!conn.wait_readable(pace_s)) continue;
        if (!conn.recv_some(buf)) break;  // EOF: the master hung up
      }
    } catch (const std::exception&) {
      // Reset by the master: hung up as well.
    }
    closed_.store(!stop_.load());
  }

  std::atomic<bool> stop_{false};
  std::atomic<bool> closed_{false};
  std::thread thread_;
};

/// The master end of one worker connection, scripted frame by frame: it
/// listens on an ephemeral loopback port, accept() takes the worker's
/// connection, and next_frame()/send() exchange whole frames.
class FakeMaster {
 public:
  FakeMaster() : listener_(gemfi::net::TcpListener::bind_listen("127.0.0.1", 0)) {}

  [[nodiscard]] std::uint16_t port() const noexcept { return listener_.port(); }

  /// Wait up to `timeout_s` for the worker to connect.
  bool accept(double timeout_s) {
    const double deadline = gemfi::net::mono_seconds() + timeout_s;
    while (gemfi::net::mono_seconds() < deadline) {
      if (auto conn = listener_.accept()) {
        conn_ = std::move(*conn);
        return true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return false;
  }

  /// The next complete frame, or nullopt if none arrives before `deadline`
  /// (a mono_seconds() time) or the worker hangs up.
  std::optional<gemfi::net::Frame> next_frame(double deadline) {
    std::uint8_t buf[64 * 1024];
    for (;;) {
      if (auto f = reader_.next()) return f;
      const double left = deadline - gemfi::net::mono_seconds();
      if (left <= 0.0) return std::nullopt;
      if (!conn_.wait_readable(left)) continue;
      const auto got = conn_.recv_some(buf);
      if (!got) return std::nullopt;
      reader_.feed(std::span<const std::uint8_t>(buf, *got));
    }
  }

  void send(std::uint8_t type, std::span<const std::uint8_t> payload) {
    conn_.send_all(gemfi::net::encode_frame(type, payload));
  }

  /// Hang up (the worker sees its connection lost).
  void close() noexcept { conn_.close(); }

 private:
  gemfi::net::TcpListener listener_;
  gemfi::net::TcpConn conn_;
  gemfi::net::FrameReader reader_{1 << 20};
};

}  // namespace hostile
