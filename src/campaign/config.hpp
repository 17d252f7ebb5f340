// The campaign configuration and its one schema.
//
// GemFI's NoW protocol (paper Sec. III-E) ships one campaign configuration
// with the checkpoint to every workstation. Here that configuration is
// declared once: CampaignConfig's result-affecting fields are listed once,
// with their JSON keys, in visit_fields(). The binary codec (the worker
// Welcome and the service's SubmitCampaign frame) and the JSON codec (the
// service's journal spec) are derived from that table, so a field added to
// it travels through both and a field left out of it travels through
// neither. The CLI flags are not derived from it: the campaign CLIs share one
// hand-written parser, parse_config_flag() in examples/flag_parse.hpp.
#pragma once

#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "fi/syscall_fault.hpp"
#include "sim/simulation.hpp"
#include "util/bytesio.hpp"

namespace gemfi::campaign {

namespace jsonl {
class ObjectWriter;
struct Value;
}  // namespace jsonl

class CampaignObserver;

struct CampaignConfig {
  sim::CpuKind cpu = sim::CpuKind::Pipelined;
  bool switch_to_atomic_after_fault = true;  // Sec. IV-B-1 speed trick
  bool use_checkpoint = true;                // Sec. III-D fast-forwarding
  bool predecode = true;                     // predecoded-instruction cache
  bool fastpath = true;                      // timing-model fast lane (A/B)
  bool fastmode = true;                      // superblock golden-path tier (A/B)
  unsigned workers = 1;                      // local experiment parallelism
  std::uint64_t watchdog_mult = 8;           // watchdog = mult * golden ticks

  /// Restore each experiment from a shared parsed baseline, copying back
  /// only the pages the worker's previous experiment dirtied, instead of
  /// re-deserializing the whole blob per experiment. Bit-identical to the
  /// full restore; off only for A/B measurement (bench_fig9_checkpoint).
  bool shared_baseline = true;

  /// Root seed of the campaign. Each experiment derives its own RNG stream
  /// as splitmix64(campaign_seed ^ index) (see experiment_seed()), so any
  /// single experiment can be regenerated in isolation from its telemetry
  /// record without replaying the campaign's draw order.
  std::uint64_t campaign_seed = 0;

  /// Host wall-clock deadline per experiment attempt, seconds (0 = none).
  /// Cuts off experiments the tick watchdog cannot: a generous simulated-
  /// time budget on a wedged or contended host. Deadline exits classify as
  /// Outcome::Timeout and never stall the remaining workers.
  double deadline_seconds = 0.0;

  /// Bounded retries for experiments that die on simulator-internal errors
  /// (exceptions from the simulator, e.g. a damaged checkpoint) or on the
  /// wall-clock deadline — failures of the substrate, not effects of the
  /// injected fault. Each retry multiplies the deadline by retry_backoff.
  unsigned max_retries = 2;
  double retry_backoff = 2.0;

  /// Telemetry sink; not owned, may be null. See observer.hpp for the
  /// thread-safety contract.
  CampaignObserver* observer = nullptr;

  /// Syscall-fault plans armed for every experiment (on top of the per-
  /// experiment register/PC fault). Single-run and A/B configurations.
  std::vector<fi::SyscallFaultPlan> syscall_plans;

  /// Syscall-fault campaign mode: each experiment additionally arms
  /// seeded_syscall_plan(campaign_seed, index) — synthesized from the same
  /// per-experiment seed as the register fault, so a --replay regenerates
  /// the exact plan from (campaign_seed, index) alone.
  bool random_syscall_faults = false;

  /// Override the guest file-store capacity in bytes (0 = simulator
  /// default). Shrinking the slack below an app's output size is how the
  /// taxonomy benches make torn writes displace later ones into ENOSPC —
  /// the cascade scenario. Applied at calibration too, so the checkpoint
  /// (which serializes the OS layer, capacity included) stays consistent.
  std::uint64_t sys_file_capacity = 0;
};

/// The field table: calls f(json_key, member) once for every field that
/// affects experiment results, in wire order. Host-side policy (workers,
/// observer) is not in it and stays local to each end. The JSON keys are
/// the service journal's historical spec keys, so old journals still load.
template <typename Config, typename F>
  requires std::is_same_v<std::remove_const_t<Config>, CampaignConfig>
void visit_fields(Config& cfg, F&& f) {
  f("cpu", cfg.cpu);
  f("switch_to_atomic", cfg.switch_to_atomic_after_fault);
  f("use_checkpoint", cfg.use_checkpoint);
  f("predecode", cfg.predecode);
  f("fastpath", cfg.fastpath);
  f("fastmode", cfg.fastmode);
  f("shared_baseline", cfg.shared_baseline);
  f("watchdog_mult", cfg.watchdog_mult);
  f("seed", cfg.campaign_seed);
  f("deadline", cfg.deadline_seconds);
  f("retries", cfg.max_retries);
  f("retry_backoff", cfg.retry_backoff);
  f("syscall_plans", cfg.syscall_plans);
  f("random_syscall_faults", cfg.random_syscall_faults);
  f("sys_file_capacity", cfg.sys_file_capacity);
}

/// The simulator configuration an experiment of this campaign runs under
/// (fault injection armed).
sim::SimConfig sim_config(const CampaignConfig& cfg);

/// Binary codec of the table fields (util/bytesio). get_config range-checks
/// every field: an out-of-range cpu kind, a non-0/1 bool or an implausible
/// plan count throws util::DeserializeError, a malformed plan line
/// std::invalid_argument. Host-side fields come back at their defaults.
void put_config(util::ByteWriter& w, const CampaignConfig& cfg);
CampaignConfig get_config(util::ByteReader& r);

/// JSON codec of the table fields: config_to_json appends every field to
/// `w`; config_from_json overwrites the fields whose keys `obj` carries and
/// leaves the others as they are (so missing keys keep their defaults).
/// Throws std::invalid_argument on a kind mismatch or malformed plan line
/// and std::out_of_range on a value its field cannot hold.
void config_to_json(jsonl::ObjectWriter& w, const CampaignConfig& cfg);
void config_from_json(const jsonl::Value& obj, CampaignConfig& cfg);

}  // namespace gemfi::campaign
