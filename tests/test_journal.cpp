// Unit tests for the campaign-service building blocks that need no sockets:
// the campaign-config table and every codec built on it, the crash-recovery
// journal (including truncated-tail repair), CampaignSpec JSON, the
// control-plane codecs and their fuzzing, and the pure fair-share scheduler
// functions.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>

#include "campaign/config.hpp"
#include "campaign/jsonl.hpp"
#include "campaign/service/control.hpp"
#include "campaign/service/journal.hpp"
#include "campaign/service/scheduler.hpp"
#include "campaign/service/spec.hpp"
#include "campaign/wire.hpp"
#include "mutate.hpp"
#include "util/bytesio.hpp"

using namespace gemfi;
namespace service = gemfi::campaign::service;
namespace fs = std::filesystem;

namespace {

/// A fresh per-test journal directory under the system temp root.
fs::path fresh_dir(const std::string& tag) {
  const fs::path dir = fs::temp_directory_path() /
                       ("gemfi_journal_" + tag + "_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  return dir;
}

/// Every config-table field as (key, rendered value), in table order.
std::vector<std::pair<std::string, std::string>> table_fields(
    const campaign::CampaignConfig& cfg) {
  std::vector<std::pair<std::string, std::string>> out;
  campaign::visit_fields(cfg, [&out](const char* key, const auto& v) {
    using T = std::decay_t<decltype(v)>;
    std::string text;
    if constexpr (std::is_same_v<T, std::vector<fi::SyscallFaultPlan>>) {
      for (const fi::SyscallFaultPlan& p : v) text += p.to_line() + ";";
    } else if constexpr (std::is_same_v<T, double>) {
      char buf[40];
      std::snprintf(buf, sizeof buf, "%.17g", v);
      text = buf;
    } else {
      text = std::to_string(static_cast<std::uint64_t>(v));
    }
    out.emplace_back(key, text);
  });
  return out;
}

/// A config with every table field away from its default, so a codec that
/// drops a field hands back a visibly different config.
campaign::CampaignConfig non_default_config() {
  campaign::CampaignConfig cfg;
  campaign::visit_fields(cfg, [](const char*, auto& v) {
    using T = std::decay_t<decltype(v)>;
    if constexpr (std::is_same_v<T, bool>) {
      v = !v;
    } else if constexpr (std::is_same_v<T, sim::CpuKind>) {
      v = sim::CpuKind::TimingSimple;
    } else if constexpr (std::is_same_v<T, double>) {
      v += 1.25;
    } else if constexpr (std::is_same_v<T, std::vector<fi::SyscallFaultPlan>>) {
      v = {fi::parse_syscall_plan("write@idx:3 errno:EIO"),
           fi::parse_syscall_plan("read@idx:2-5 tid:0 partial:0.5")};
    } else {
      v += 1000003;
    }
  });
  return cfg;
}

service::CampaignSpec sample_spec() {
  service::CampaignSpec s;
  s.tenant = "alice";
  s.name = "sweep-7";
  s.app_name = "pi";
  s.paper_scale = true;
  s.app_scale_seed = 0xabcdef;
  s.experiments = 250;
  s.weight = 3;
  s.max_workers = 5;
  s.stop_eps = 0.05;
  s.stop_conf = 0.95;
  s.config = non_default_config();
  return s;
}

/// The spec's own (non-table) fields, read member by member so no codec
/// under test is also the comparator.
auto spec_fields(const service::CampaignSpec& s) {
  return std::make_tuple(s.tenant, s.name, s.app_name, s.paper_scale, s.app_scale_seed,
                         s.experiments, s.weight, s.max_workers, s.stop_eps, s.stop_conf);
}

/// Every field of `got` — its own and the config table's — equals `want`'s.
void expect_same_spec(const service::CampaignSpec& got, const service::CampaignSpec& want,
                      const char* via) {
  EXPECT_EQ(spec_fields(got), spec_fields(want)) << via;
  EXPECT_EQ(table_fields(got.config), table_fields(want.config)) << via;
}

void append_raw(const fs::path& p, const std::string& bytes) {
  std::ofstream f(p, std::ios::app | std::ios::binary);
  f << bytes;
}

}  // namespace

// --- the config table and its codecs ---

// One table test for every codec: each table field is set away from its
// default and must come back through the binary and JSON config codecs, the
// worker Welcome, the SubmitCampaign frame and the journal spec JSON.
TEST(ConfigTable, EveryFieldRoundTripsThroughEveryCodec) {
  const campaign::CampaignConfig cfg = non_default_config();
  const auto want = table_fields(cfg);
  const auto defaults = table_fields(campaign::CampaignConfig{});
  // The keys are the journal's spec format: renaming one strands old journals.
  std::vector<std::string> keys;
  for (const auto& [key, value] : want) keys.push_back(key);
  EXPECT_EQ(keys, (std::vector<std::string>{
                      "cpu", "switch_to_atomic", "use_checkpoint", "predecode",
                      "fastpath", "fastmode", "shared_baseline", "watchdog_mult", "seed",
                      "deadline", "retries", "retry_backoff", "syscall_plans",
                      "random_syscall_faults", "sys_file_capacity"}));
  ASSERT_EQ(want.size(), defaults.size());
  for (std::size_t i = 0; i < want.size(); ++i)
    EXPECT_NE(want[i].second, defaults[i].second) << want[i].first << " at its default";

  util::ByteWriter w;
  campaign::put_config(w, cfg);
  const std::vector<std::uint8_t> bytes = w.take();
  util::ByteReader r(bytes);
  EXPECT_EQ(table_fields(campaign::get_config(r)), want) << "binary codec";
  EXPECT_TRUE(r.at_end());

  campaign::jsonl::ObjectWriter jw;
  campaign::config_to_json(jw, cfg);
  campaign::CampaignConfig from_json;
  campaign::config_from_json(campaign::jsonl::parse(jw.str()), from_json);
  EXPECT_EQ(table_fields(from_json), want) << "JSON codec";

  const auto welcome = campaign::wire::decode_welcome(campaign::wire::encode_welcome(
      campaign::wire::Welcome::from(campaign::CalibratedApp{}, {}, cfg)));
  EXPECT_EQ(table_fields(welcome.config), want) << "Welcome";

  // The spec's own fields ride along; each is away from its default too.
  const service::CampaignSpec spec = sample_spec();
  const auto own = spec_fields(spec);
  const auto own_defaults = spec_fields(service::CampaignSpec{});
  [&]<std::size_t... I>(std::index_sequence<I...>) {
    ([&] { EXPECT_NE(std::get<I>(own), std::get<I>(own_defaults)) << "spec field " << I; }(),
     ...);
  }(std::make_index_sequence<std::tuple_size_v<decltype(own)>>{});
  expect_same_spec(service::decode_submit(service::encode_submit(spec)), spec,
                   "SubmitCampaign");
  expect_same_spec(service::CampaignSpec::from_json(campaign::jsonl::parse(spec.to_json())),
                   spec, "spec JSON");
}

// --- CampaignSpec ---

// A journal line written by the spec JSON of protocol v5 (before the config
// table) loads into the identical spec.
TEST(Spec, PreTableJournalLineLoadsIdentically) {
  const std::string v5_line =
      R"({"tenant":"alice","name":"sweep-7","app":"pi","paper":true,)"
      R"("scale_seed":11259375,"experiments":250,"seed":9001,"weight":3,)"
      R"("max_workers":5,"cpu":0,"watchdog_mult":12,"deadline":1.5,"retries":4,)"
      R"("retry_backoff":3,"predecode":false,"fastpath":false,"fastmode":false,)"
      R"("stop_eps":0.050000000000000003,"stop_conf":0.94999999999999996})";
  service::CampaignSpec want;
  want.tenant = "alice";
  want.name = "sweep-7";
  want.app_name = "pi";
  want.paper_scale = true;
  want.app_scale_seed = 0xabcdef;
  want.experiments = 250;
  want.weight = 3;
  want.max_workers = 5;
  want.stop_eps = 0.05;
  want.stop_conf = 0.95;
  want.config.campaign_seed = 9001;
  want.config.cpu = sim::CpuKind::AtomicSimple;
  want.config.watchdog_mult = 12;
  want.config.deadline_seconds = 1.5;
  want.config.max_retries = 4;
  want.config.retry_backoff = 3.0;
  want.config.predecode = false;
  want.config.fastpath = false;
  want.config.fastmode = false;
  expect_same_spec(service::CampaignSpec::from_json(campaign::jsonl::parse(v5_line)), want,
                   "v5 journal line");
}

TEST(Spec, MissingOptionalFieldsKeepDefaults) {
  // An old journal line carrying only the required fields must still load.
  const auto v = campaign::jsonl::parse(
      R"({"tenant":"default","app":"pi","experiments":10,"seed":42})");
  const service::CampaignSpec r = service::CampaignSpec::from_json(v);
  EXPECT_EQ(r.app_name, "pi");
  EXPECT_EQ(r.experiments, 10u);
  EXPECT_EQ(r.tenant, "default");
  EXPECT_EQ(r.weight, 1u);
  EXPECT_EQ(r.config.cpu, sim::CpuKind::Pipelined);
}

TEST(Spec, ValidateRejectsUnusableSpecs) {
  auto reject = [](auto mutate) {
    service::CampaignSpec s = sample_spec();
    mutate(s);
    EXPECT_THROW(s.validate(), std::invalid_argument);
  };
  reject([](auto& s) { s.app_name.clear(); });
  reject([](auto& s) { s.experiments = 0; });
  reject([](auto& s) { s.tenant.clear(); });
  reject([](auto& s) { s.weight = 0; });
  reject([](auto& s) { s.config.cpu = sim::CpuKind(99); });
  EXPECT_NO_THROW(sample_spec().validate());
}

// Numbers a field cannot hold are rejected, never narrowed: these lines used
// to load as cpu=2 (Pipelined), weight=1 and retries=0.
TEST(Spec, FromJsonRejectsNumbersItsFieldsCannotHold) {
  const std::string head = R"({"tenant":"t","app":"pi","experiments":10,"seed":1,)";
  for (const std::string tail :
       {R"("cpu":258})", R"("weight":4294967297})", R"("retries":4294967296})",
        R"("max_workers":4294967296})", R"("cpu":3})", R"("retries":-1})",
        R"("watchdog_mult":1.5})", R"("sys_file_capacity":18446744073709551616})",
        R"("syscall_plans":["write@idx:3 errno:NOPE"]})", R"("syscall_plans":7})"}) {
    try {
      (void)service::CampaignSpec::from_json(campaign::jsonl::parse(head + tail));
      ADD_FAILURE() << "accepted " << tail;
    } catch (const std::invalid_argument&) {
    } catch (const std::out_of_range&) {
    }
  }
}

// --- Journal ---

TEST(Journal, RoundTripRecoversLiveCampaignsAndResults) {
  const fs::path dir = fresh_dir("roundtrip");
  {
    service::Journal j(dir.string());
    EXPECT_EQ(j.recovered().live.size(), 0u);
    EXPECT_EQ(j.recovered().next_campaign_id, 1u);

    j.record_submit(1, sample_spec());
    service::CampaignSpec other = sample_spec();
    other.tenant = "bob";
    other.config.campaign_seed = 7;
    j.record_submit(2, other);
    j.record_submit(3, sample_spec());

    j.append_result(1, R"({"index":0,"outcome":"Masked"})");
    j.append_result(1, R"({"index":5,"outcome":"SDC"})");
    j.append_result(2, R"({"index":3,"outcome":"Crash"})");
    j.record_terminal(3, service::CampaignState::Cancelled, "");
  }
  service::Journal j(dir.string());
  const service::RecoveredJournal& rec = j.recovered();
  ASSERT_EQ(rec.live.size(), 2u);  // campaign 3 reached a terminal state
  EXPECT_EQ(rec.next_campaign_id, 4u);
  EXPECT_EQ(rec.repaired_files, 0u);
  EXPECT_EQ(rec.skipped_lines, 0u);

  EXPECT_EQ(rec.live[0].id, 1u);
  EXPECT_EQ(rec.live[0].spec.tenant, "alice");
  EXPECT_EQ(rec.live[0].done_indices, (std::vector<std::uint64_t>{0, 5}));
  EXPECT_EQ(rec.live[1].id, 2u);
  EXPECT_EQ(rec.live[1].spec.tenant, "bob");
  EXPECT_EQ(rec.live[1].spec.config.campaign_seed, 7u);
  EXPECT_EQ(rec.live[1].done_indices, (std::vector<std::uint64_t>{3}));

  const auto lines = j.read_result_lines(1);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], R"({"index":0,"outcome":"Masked"})");
  fs::remove_all(dir);
}

TEST(Journal, TruncatedTailsAreRepairedOnRecovery) {
  const fs::path dir = fresh_dir("truncated");
  {
    service::Journal j(dir.string());
    j.record_submit(1, sample_spec());
    j.append_result(1, R"({"index":0,"outcome":"Masked"})");
    j.append_result(1, R"({"index":1,"outcome":"Masked"})");
  }
  // Simulate a SIGKILL mid-write: both files end in a partial line.
  append_raw(dir / "campaigns.jsonl", R"({"event":"submit","id":2,"app":"p)");
  append_raw(dir / "c1.results.jsonl", R"({"index":2,"outc)");

  service::Journal j(dir.string());
  EXPECT_GE(j.recovered().repaired_files, 1u);
  ASSERT_EQ(j.recovered().live.size(), 1u);
  EXPECT_EQ(j.recovered().live[0].done_indices,
            (std::vector<std::uint64_t>{0, 1}));  // the partial index 2 is gone
  EXPECT_EQ(j.recovered().next_campaign_id, 2u);  // partial submit dropped

  // The journal stays appendable after repair: the next write begins a
  // fresh, complete line.
  j.append_result(1, R"({"index":2,"outcome":"SDC"})");
  const auto lines = j.read_result_lines(1);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines.back(), R"({"index":2,"outcome":"SDC"})");
  fs::remove_all(dir);
}

TEST(Journal, DuplicateResultLinesAreCountedOnce) {
  const fs::path dir = fresh_dir("dups");
  {
    service::Journal j(dir.string());
    j.record_submit(1, sample_spec());
    j.append_result(1, R"({"index":4,"outcome":"Masked"})");
    j.append_result(1, R"({"index":4,"outcome":"Masked"})");
  }
  service::Journal j(dir.string());
  ASSERT_EQ(j.recovered().live.size(), 1u);
  EXPECT_EQ(j.recovered().live[0].done_indices, (std::vector<std::uint64_t>{4}));
  EXPECT_EQ(j.recovered().live[0].duplicate_result_lines, 1u);
  fs::remove_all(dir);
}

// --- control-plane codecs ---

TEST(Control, RepliesRoundTrip) {
  const auto sr = service::decode_submit_reply(
      service::encode_submit_reply({true, 42, ""}));
  EXPECT_TRUE(sr.ok);
  EXPECT_EQ(sr.id, 42u);

  const auto rej = service::decode_submit_reply(
      service::encode_submit_reply({false, 0, "unknown app 'nope'"}));
  EXPECT_FALSE(rej.ok);
  EXPECT_EQ(rej.error, "unknown app 'nope'");

  const auto cr = service::decode_cancel_reply(
      service::encode_cancel_reply({false, "campaign 9 already done"}));
  EXPECT_FALSE(cr.ok);
  EXPECT_EQ(cr.error, "campaign 9 already done");

  EXPECT_EQ(service::decode_status_request(
                service::encode_status_request({17})).id, 17u);
  EXPECT_EQ(service::decode_cancel(service::encode_cancel({3})).id, 3u);
  EXPECT_EQ(service::decode_stream_results(
                service::encode_stream_results({8})).id, 8u);
}

TEST(Control, StatusReplyRoundTrip) {
  service::CampaignStatus a;
  a.id = 1;
  a.tenant = "alice";
  a.name = "n1";
  a.app_name = "pi";
  a.state = service::CampaignState::Running;
  a.total = 100;
  a.completed = 40;
  a.inflight = 6;
  a.dispatched = 46;
  a.workers = 2;
  a.weight = 3;
  a.counts[0] = 30;
  a.counts[1] = 10;
  a.age_seconds = 2.5;
  service::CampaignStatus b;
  b.id = 2;
  b.state = service::CampaignState::Failed;
  b.error = "unknown app";

  const auto out =
      service::decode_status_reply(service::encode_status_reply({a, b}));
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].tenant, "alice");
  EXPECT_EQ(out[0].state, service::CampaignState::Running);
  EXPECT_EQ(out[0].completed, 40u);
  EXPECT_EQ(out[0].counts[0], 30u);
  EXPECT_EQ(out[0].workers, 2u);
  EXPECT_EQ(out[0].age_seconds, 2.5);
  EXPECT_EQ(out[1].state, service::CampaignState::Failed);
  EXPECT_EQ(out[1].error, "unknown app");
}

TEST(Control, StreamMessagesRoundTrip) {
  service::ResultLines rl;
  rl.id = 5;
  rl.lines = {R"({"index":0})", R"({"index":1})"};
  const auto out = service::decode_result_lines(service::encode_result_lines(rl));
  EXPECT_EQ(out.id, 5u);
  EXPECT_EQ(out.lines, rl.lines);

  const auto end = service::decode_stream_end(service::encode_stream_end(
      {5, service::CampaignState::Cancelled, ""}));
  EXPECT_EQ(end.id, 5u);
  EXPECT_EQ(end.state, service::CampaignState::Cancelled);
}

TEST(Control, DecodersRejectMalformedPayloads) {
  // Trailing bytes after a complete message.
  auto bytes = service::encode_cancel({3});
  bytes.push_back(0);
  EXPECT_THROW(service::decode_cancel(bytes), util::DeserializeError);

  // Truncation.
  auto sub = service::encode_submit(sample_spec());
  sub.resize(sub.size() - 1);
  EXPECT_THROW(service::decode_submit(sub), util::DeserializeError);

  // Out-of-range CampaignState discriminator.
  auto end = service::encode_stream_end({1, service::CampaignState::Done, ""});
  end[sizeof(std::uint64_t)] = 0xEE;  // state byte follows the u64 id
  EXPECT_THROW(service::decode_stream_end(end), util::DeserializeError);

  // A structurally valid submit carrying an unusable spec is a polite
  // rejection (invalid_argument), not a protocol error.
  service::CampaignSpec bad = sample_spec();
  bad.experiments = 0;
  EXPECT_THROW(service::decode_submit(service::encode_submit(bad)),
               std::invalid_argument);
}

// Truncated and bit-flipped SubmitCampaign payloads and spec JSON lines
// raise only the documented exceptions — never a crash or another type.
TEST(Control, SubmitAndSpecJsonFuzzThrowOnlyDocumentedErrors) {
  unsigned accepted = 0;
  testfuzz::truncate_and_flip(
      service::encode_submit(sample_spec()), 0x5eb317, 3000,
      [&accepted](const std::vector<std::uint8_t>& bytes) {
        try {
          (void)service::decode_submit(bytes);
          ++accepted;
        } catch (const util::DeserializeError&) {
        } catch (const std::invalid_argument&) {
        }
      });
  EXPECT_GT(accepted, 0u);  // some flips land in free-form bytes

  const std::string line = sample_spec().to_json();
  accepted = 0;
  testfuzz::truncate_and_flip(
      std::vector<std::uint8_t>(line.begin(), line.end()), 0x75e3, 3000,
      [&accepted](const std::vector<std::uint8_t>& bytes) {
        try {
          (void)service::CampaignSpec::from_json(
              campaign::jsonl::parse(std::string(bytes.begin(), bytes.end())));
          ++accepted;
        } catch (const std::invalid_argument&) {
        } catch (const std::out_of_range&) {
        }
      });
  EXPECT_GT(accepted, 0u);
  // Deep nesting is malformed input too, not a stack overflow.
  EXPECT_THROW(campaign::jsonl::parse(std::string(100000, '[')), std::invalid_argument);
}

// --- fair-share scheduler ---

TEST(Scheduler, FreeWorkerGoesToLeastLoadedTenant) {
  // alice already holds 2 workers, bob holds 0 — bob wins regardless of ids.
  const std::vector<service::SchedEntry> entries = {
      {1, "alice", 1, 0, /*pending=*/50, /*workers=*/2},
      {2, "bob", 1, 0, /*pending=*/50, /*workers=*/0},
  };
  EXPECT_EQ(service::pick_campaign_for_worker(entries), 2u);
}

TEST(Scheduler, WeightTiltsTheShare) {
  // alice weight 3 vs bob weight 1: with 3 vs 1 workers the scores tie
  // (3/3 == 1/1) and the tie breaks toward the campaign with fewer workers.
  const std::vector<service::SchedEntry> tied = {
      {1, "alice", 3, 0, 50, 3},
      {2, "bob", 1, 0, 50, 1},
  };
  EXPECT_EQ(service::pick_campaign_for_worker(tied), 2u);

  // With 2 vs 1 workers, alice's score 2/3 < bob's 1/1 — alice wins.
  const std::vector<service::SchedEntry> skewed = {
      {1, "alice", 3, 0, 50, 2},
      {2, "bob", 1, 0, 50, 1},
  };
  EXPECT_EQ(service::pick_campaign_for_worker(skewed), 1u);
}

TEST(Scheduler, QuotaAndPendingFilterEligibility) {
  const std::vector<service::SchedEntry> entries = {
      {1, "alice", 1, /*max_workers=*/2, /*pending=*/50, /*workers=*/2},  // at quota
      {2, "bob", 1, 0, /*pending=*/0, /*workers=*/0},                     // no work
      {3, "carol", 1, 0, /*pending=*/10, /*workers=*/1},
  };
  EXPECT_EQ(service::pick_campaign_for_worker(entries), 3u);

  // Nothing runnable: the worker stays parked.
  const std::vector<service::SchedEntry> none = {
      {1, "alice", 1, 2, 50, 2},
      {2, "bob", 1, 0, 0, 0},
  };
  EXPECT_EQ(service::pick_campaign_for_worker(none), 0u);
}

TEST(Scheduler, WithinTenantFewestWorkersThenLowestId) {
  const std::vector<service::SchedEntry> entries = {
      {4, "alice", 1, 0, 50, 1},
      {2, "alice", 1, 0, 50, 0},
      {3, "alice", 1, 0, 50, 0},
  };
  EXPECT_EQ(service::pick_campaign_for_worker(entries), 2u);
}

TEST(Scheduler, RebalanceDonorSparesTheRichest) {
  const std::vector<service::SchedEntry> entries = {
      {1, "alice", 1, 0, /*pending=*/50, /*workers=*/3},
      {2, "bob", 1, 0, /*pending=*/50, /*workers=*/1},   // cannot spare its only one
      {3, "carol", 1, 0, /*pending=*/50, /*workers=*/0},  // starved
  };
  EXPECT_TRUE(service::has_starved_campaign(entries));
  EXPECT_EQ(service::pick_rebalance_donor(entries), 1u);

  // A campaign with one worker but no pending work can donate it.
  const std::vector<service::SchedEntry> idle_donor = {
      {1, "alice", 1, 0, /*pending=*/0, /*workers=*/1},
      {2, "bob", 1, 0, /*pending=*/50, /*workers=*/0},
  };
  EXPECT_EQ(service::pick_rebalance_donor(idle_donor), 1u);

  // Nobody can spare a worker: the starved campaign waits.
  const std::vector<service::SchedEntry> stuck = {
      {1, "alice", 1, 0, 50, 1},
      {2, "bob", 1, 0, 50, 0},
  };
  EXPECT_EQ(service::pick_rebalance_donor(stuck), 0u);
  EXPECT_FALSE(service::has_starved_campaign({{1, "alice", 1, 0, 0, 0}}));
}
