// Wire encoding of the NoW dispatch protocol messages (campaign/dispatch).
//
// Payloads are util/bytesio streams carried inside net::Frame envelopes.
// Decoders validate every enum discriminator and length so a malicious or
// version-skewed peer surfaces as util::DeserializeError (which the dispatch
// layer treats exactly like a damaged frame: drop the peer, requeue its
// work), never as undefined behavior inside the campaign.
//
// The Welcome message is the "checkpoint copy" step of the paper's NoW
// protocol (Sec. III-E step 3): it carries the calibrated app's identity and
// golden-run costs plus the sparse-v2 checkpoint blob, so a worker process
// reconstructs a CalibratedApp without re-running calibration — the whole
// point of shipping the checkpoint once per workstation.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/runner.hpp"
#include "util/bytesio.hpp"

namespace gemfi::campaign::wire {

/// v1 is the original master/worker dispatch protocol; v2 adds the campaign-
/// service control plane (message types 10+ below); v3 appends the syscall-
/// fault fields to Welcome and Result; v4 appends the golden-path fast-mode
/// flag to both Welcome (so every worker runs the same engine tier as the
/// master decided) and Result (so replay can force the identical engagement
/// decision); v5 adds the sequential early-stop plane — CancelQueue/CancelAck
/// so a statistically satisfied master can reclaim queued-but-unstarted
/// experiments from workers instead of waiting them out; v6 carries the
/// campaign configuration in Welcome and SubmitCampaign as one block written
/// by the shared config codec (campaign/config.hpp: every table field, in
/// table order, sys_file_capacity included). The Welcome, Batch and Result
/// codecs speak only the current version, so a master admits a worker only
/// if its Hello carries exactly kProtocolVersion.
inline constexpr std::uint32_t kProtocolVersion = 6;

enum class MsgType : std::uint8_t {
  // --- worker plane ---
  Hello = 1,      // worker -> master: version + slot count
  Welcome = 2,    // master -> worker: campaign config + calibration + checkpoint
  Batch = 3,      // master -> worker: experiment (index, fault) pairs
  Result = 4,     // worker -> master: one finished experiment
  Heartbeat = 5,  // worker -> master: liveness + busy-slot count
  Shutdown = 6,   // master -> worker: campaign over, exit after current work

  // --- sequential early-stop plane (v5) ---
  CancelQueue = 7,  // master -> worker: drop queued-not-started experiments
  CancelAck = 8,    // worker -> master: indices it dropped (still uniquely owned)

  // --- control plane (v2, client <-> campaign service; codecs live in
  // campaign/service/control.hpp) ---
  SubmitCampaign = 10,  // client -> service: CampaignSpec
  SubmitReply = 11,     // service -> client: assigned id or error
  StatusRequest = 12,   // client -> service: one campaign id or 0 = all
  StatusReply = 13,     // service -> client: per-campaign status records
  CancelCampaign = 14,  // client -> service: stop dispatching a campaign
  CancelReply = 15,     // service -> client: ack or error
  StreamResults = 16,   // client -> service: subscribe to a campaign's JSONL
  ResultLines = 17,     // service -> client: a batch of JSONL record lines
  StreamEnd = 18,       // service -> client: campaign reached a terminal state
};

struct Hello {
  std::uint32_t version = kProtocolVersion;
  std::uint32_t slots = 1;
};

struct Welcome {
  // Enough to rebuild the CalibratedApp: apps::build_app(app_name, scale)
  // regenerates the program and classification closures deterministically;
  // the golden-run numbers below are calibration outputs shipped verbatim.
  std::string app_name;
  bool paper_scale = false;
  std::uint64_t app_scale_seed = 0;
  std::string golden_output;
  std::uint64_t golden_insts = 0;
  std::uint64_t golden_kernel_insts = 0;
  std::uint64_t app_golden_ticks = 0;
  std::uint64_t golden_ticks = 0;
  std::uint64_t golden_committed = 0;
  std::uint64_t kernel_fetches = 0;
  std::uint64_t ticks_to_checkpoint = 0;
  std::vector<std::uint8_t> checkpoint;  // Checkpoint::bytes(), shipped once

  // The campaign configuration (its table fields; host-side policy —
  // workers, observer — stays local to each end).
  CampaignConfig config;

  /// Split a master-side (CalibratedApp, AppScale, CampaignConfig) into the
  /// wire form / reassemble the worker-side CalibratedApp.
  static Welcome from(const CalibratedApp& ca, const apps::AppScale& scale,
                      const CampaignConfig& cfg);
  [[nodiscard]] CalibratedApp rebuild_app() const;
};

struct BatchItem {
  std::uint64_t index = 0;
  std::string fault_line;  // fi::Fault::to_line(), reparsed on the worker
};

struct ResultMsg {
  std::uint64_t index = 0;
  ExperimentResult result;
};

struct Heartbeat {
  std::uint64_t sequence = 0;
  std::uint32_t busy_slots = 0;
};

/// CancelAck payload: the queued experiment indices the worker dropped in
/// response to CancelQueue. (CancelQueue itself carries an empty payload.)
struct CancelAck {
  std::vector<std::uint64_t> dropped;
};

// --- encoders (payload bytes only; framing is net::encode_frame) ---
std::vector<std::uint8_t> encode_hello(const Hello& h);
std::vector<std::uint8_t> encode_welcome(const Welcome& w);
std::vector<std::uint8_t> encode_batch(const std::vector<BatchItem>& items);
std::vector<std::uint8_t> encode_result(const ResultMsg& r);
std::vector<std::uint8_t> encode_heartbeat(const Heartbeat& hb);
std::vector<std::uint8_t> encode_cancel_ack(const CancelAck& ack);

// --- decoders; throw util::DeserializeError / std::invalid_argument on
// malformed or out-of-range payloads ---
Hello decode_hello(std::span<const std::uint8_t> payload);
Welcome decode_welcome(std::span<const std::uint8_t> payload);
std::vector<BatchItem> decode_batch(std::span<const std::uint8_t> payload);
ResultMsg decode_result(std::span<const std::uint8_t> payload);
Heartbeat decode_heartbeat(std::span<const std::uint8_t> payload);
CancelAck decode_cancel_ack(std::span<const std::uint8_t> payload);

/// ExperimentResult as a bytesio stream (shared by Result messages and any
/// future on-disk spill format).
void put_result(util::ByteWriter& w, const ExperimentResult& er);
ExperimentResult get_result(util::ByteReader& r);

}  // namespace gemfi::campaign::wire
