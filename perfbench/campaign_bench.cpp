// Campaign benchmark: completed fault-injection experiments per second on
// three fixed, seeded workloads, with a traced per-layer split.
//
//   campaign_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--spans <file>]
//
// A run sets the workload up several times (build the app, calibrate with the
// golden-output check, parse the checkpoint; on the NoW workload also start a
// Master with forked workers up to its first result) and reports the median.
// It then repeats whole rounds of one seeded experiment list until --seconds
// have passed; every round runs exactly the same experiments, so the work per
// round never depends on the host's speed. Output checks run outside the
// timed rounds. The last stdout line is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// Diagnostics (digests, reference figures) go to stderr.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <csignal>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/app.hpp"
#include "campaign/classify.hpp"
#include "campaign/dispatch.hpp"
#include "campaign/observer.hpp"
#include "campaign/runner.hpp"
#include "campaign/wire.hpp"
#include "chkpt/checkpoint.hpp"
#include "mem/physmem.hpp"
#include "sim/simulation.hpp"

namespace {

using namespace gemfi;
using Clock = std::chrono::steady_clock;

double now_s() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch()).count();
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct Workload {
  const char* name;
  const char* app;
  sim::CpuKind cpu;
  std::size_t experiments;  // per round, null-fault controls included
  unsigned now_workers;     // 0: one local worker; else forked NoW workers
  unsigned now_slots;
};

constexpr Workload kWorkloads[] = {
    {"dct-pipelined", "dct", sim::CpuKind::Pipelined, 400, 0, 0},
    {"jacobi-atomic", "jacobi", sim::CpuKind::AtomicSimple, 300, 0, 0},
    {"deblock-now", "deblock", sim::CpuKind::Pipelined, 1000, 2, 1},
};

constexpr std::size_t kControlEvery = 50;    // every K-th experiment is a null fault
constexpr std::size_t kReferenceSample = 8;  // re-run on the reference interpreter
constexpr int kSetupRepeats = 15;
constexpr std::size_t kTailBeyond = 10;      // samples beyond the tail percentile
constexpr std::size_t kNowSetupExperiments = 2;

// ---------------------------------------------------------------------------
// Small statistics helpers
// ---------------------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The value with exactly kTailBeyond samples above it: the highest
/// percentile that still has kTailBeyond samples beyond it.
double tail(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[v.size() > kTailBeyond ? v.size() - kTailBeyond - 1 : v.size() - 1];
}

/// Per-experiment median over rounds: rounds repeat one list, so each
/// experiment's median time is its cost with the host's noise damped.
std::vector<double> per_experiment_median(const std::vector<std::vector<double>>& rounds) {
  std::vector<double> out;
  if (rounds.empty()) return out;
  out.resize(rounds.front().size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    std::vector<double> xs;
    xs.reserve(rounds.size());
    for (const auto& r : rounds) xs.push_back(r[i]);
    out[i] = median(std::move(xs));
  }
  return out;
}

std::uint64_t fnv1a(std::uint64_t h, const std::string& s) {
  for (const unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h ^ 0x0a;  // line separator
}

/// A fixed host-only loop; its rate shows host speed drift between runs.
double host_ref_mops() {
  constexpr std::uint64_t kIters = 4'000'000;
  std::uint64_t x = 0x9e3779b97f4a7c15ull, acc = 0;
  const double t0 = now_s();
  for (std::uint64_t i = 0; i < kIters; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    acc += x * 0x2545f4914f6cdd1dull;
  }
  const double dt = now_s() - t0;
  static volatile std::uint64_t sink;
  sink = acc;
  return double(kIters) / dt / 1e6;
}

double peak_rss_mb(int who) {
  rusage ru{};
  getrusage(who, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

/// Moves the calling thread over up to three of the CPUs this process may use.
/// Host speed on a VM drifts per vCPU, in phases of tens of seconds, and the
/// drifts of different vCPUs are not correlated; one worker thread left on one
/// vCPU reports that vCPU's phase. Rotating it every kRotateSeconds (between
/// experiments, outside their timing) averages the phases of three vCPUs.
class CpuRotor {
 public:
  static constexpr double kRotateSeconds = 0.2;

  CpuRotor() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0)
      for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &set)) cpus_.push_back(c);
    if (cpus_.size() > 3) cpus_.erase(cpus_.begin(), cpus_.end() - 3);
  }

  /// Between experiments: move on once the current CPU had its time slice.
  void tick() {
    if (now_s() - since_ >= kRotateSeconds) next();
  }

  void next() {
    if (cpus_.empty()) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpus_[turn_++ % cpus_.size()], &set);
    sched_setaffinity(0, sizeof set, &set);
    since_ = now_s();
  }

  /// All of the rotor's CPUs, e.g. before forking workers that inherit it.
  void release() {
    if (cpus_.empty()) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    for (const int c : cpus_) CPU_SET(c, &set);
    sched_setaffinity(0, sizeof set, &set);
  }

 private:
  std::vector<int> cpus_;
  std::size_t turn_ = 0;
  double since_ = 0;
};

// ---------------------------------------------------------------------------
// Checks
// ---------------------------------------------------------------------------

struct Checks {
  std::vector<std::string> failures;
  void expect(bool ok, const std::string& what) {
    if (!ok && failures.size() < 20) failures.push_back(what);
  }
  [[nodiscard]] bool ok() const { return failures.empty(); }
};

/// The deterministic form of a record: everything that depends on the host
/// or on which experiment a worker ran before (worker id, wall time, dirty-
/// page restore telemetry) stripped, as the dispatch tests compare records.
std::string normalized(std::size_t index, std::uint64_t seed, campaign::ExperimentResult er) {
  er.wall_seconds = 0.0;
  er.restore_pages = 0;
  er.restore_bytes = 0;
  return campaign::experiment_record_to_json(
      {index, 0, campaign::experiment_seed(seed, index), std::move(er)},
      /*include_host_timing=*/false);
}

/// What every round of one list must reproduce exactly.
struct RoundSummary {
  std::uint64_t digest = 0xcbf29ce484222325ull;
  std::array<std::size_t, apps::kNumOutcomes> counts{};
  std::uint64_t sum_ticks = 0;
  std::vector<std::string> lines;

  bool operator==(const RoundSummary& o) const {
    return digest == o.digest && counts == o.counts && sum_ticks == o.sum_ticks;
  }
};

RoundSummary summarize(const std::vector<campaign::ExperimentResult>& results,
                       std::uint64_t seed) {
  RoundSummary s;
  s.lines.reserve(results.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    s.lines.push_back(normalized(i, seed, results[i]));
    s.digest = fnv1a(s.digest, s.lines.back());
    ++s.counts[std::size_t(results[i].classification.outcome)];
    s.sum_ticks += results[i].sim_ticks;
  }
  return s;
}

std::size_t count_failed(const campaign::ExperimentResult& er) {
  return er.retries > 0 || !er.sim_error.empty() ? 1 : 0;
}

// ---------------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------------

struct Setup {
  campaign::CalibratedApp ca;
  std::optional<chkpt::CheckpointImage> image;
  double build_s = 0, calibrate_s = 0, parse_s = 0;
};

Setup set_up(const Workload& w, const apps::AppScale& scale,
             const campaign::CampaignConfig& cfg) {
  Setup s;
  const double t0 = now_s();
  apps::App app = apps::build_app(w.app, scale);
  const double t1 = now_s();
  // calibrate() runs the golden run and throws unless the guest's output
  // equals the app's host C++ model.
  s.ca = campaign::calibrate(std::move(app), cfg);
  const double t2 = now_s();
  s.image.emplace(chkpt::CheckpointImage::parse(s.ca.checkpoint));
  const double t3 = now_s();
  s.build_s = t1 - t0;
  s.calibrate_s = t2 - t1;
  s.parse_s = t3 - t2;
  return s;
}

// ---------------------------------------------------------------------------
// Experiment list
// ---------------------------------------------------------------------------

/// A fault timed beyond the FI window: it never fires, so the experiment must
/// reproduce the golden run's remaining ticks exactly.
fi::Fault null_fault(std::uint64_t kernel_fetches) {
  fi::Fault f;
  f.location = fi::FaultLocation::IntReg;
  f.reg = 1;
  f.operand = 0;
  f.time = 2 * kernel_fetches + 1;
  return f;
}

std::vector<fi::Fault> make_faults(const Workload& w, std::uint64_t seed,
                                   std::uint64_t kernel_fetches) {
  std::vector<fi::Fault> faults =
      campaign::seeded_fault_set(seed, w.experiments, kernel_fetches);
  for (std::size_t i = kControlEvery - 1; i < faults.size(); i += kControlEvery)
    faults[i] = null_fault(kernel_fetches);
  return faults;
}

// ---------------------------------------------------------------------------
// Local rounds: one worker, untraced (the product path) and traced (the same
// experiment assembled from the public layer calls, one span per call)
// ---------------------------------------------------------------------------

struct LocalRound {
  std::vector<campaign::ExperimentResult> results;
  std::vector<double> exp_s;     // around the worker call
  std::vector<double> finish_s;  // completion time, from the round start
  double wall_s = 0;
};

/// One local worker runs the list. The worker persists across rounds, as a
/// campaign worker keeps its Simulation across experiments; a fresh worker per
/// round would re-allocate the Simulation and make peak RSS depend on how
/// many rounds fit in the run.
LocalRound run_local_round(campaign::ExperimentWorker& ew, std::uint64_t seed,
                           const std::vector<fi::Fault>& faults, CpuRotor& rotor) {
  LocalRound r;
  r.results.resize(faults.size());
  r.exp_s.resize(faults.size());
  r.finish_s.resize(faults.size());
  const std::vector<fi::SyscallFaultPlan> plans;  // no syscall faults
  const double t0 = now_s();
  for (std::size_t i = 0; i < faults.size(); ++i) {
    const double a = now_s();
    campaign::ExperimentResult er = ew.run_with_retry(faults[i], &plans);
    const double b = now_s();
    // Encode the record a JSONL sink would write for this experiment.
    (void)campaign::experiment_record_to_json(
        {i, 0, campaign::experiment_seed(seed, i), er});
    r.results[i] = std::move(er);
    r.exp_s[i] = b - a;
    r.finish_s[i] = now_s() - t0;
    rotor.tick();
  }
  r.wall_s = now_s() - t0;
  return r;
}

struct Span {
  const char* name;
  double start, end;
  int parent;  // index into the span vector, -1 for an experiment root
  std::size_t exp;
};

struct TracedRound {
  std::vector<campaign::ExperimentResult> results;
  double wall_s = 0;
  std::vector<double> restore_s, run_s, classify_s, encode_s, exp_s;
  std::uint64_t restore_pages = 0, insts = 0, ticks = 0;
  double run_total_s = 0;
};

/// The runner's private make_sim_config, mirrored: note that SimConfig's
/// switch_to_atomic_after_fault defaults to false while the campaign's is true.
sim::SimConfig sim_config_for(const campaign::CampaignConfig& cfg) {
  sim::SimConfig scfg;
  scfg.cpu = cfg.cpu;
  scfg.fi_enabled = true;
  scfg.switch_to_atomic_after_fault = cfg.switch_to_atomic_after_fault;
  scfg.predecode = cfg.predecode;
  scfg.fastpath = cfg.fastpath;
  scfg.fastmode = cfg.fastmode;
  if (cfg.sys_file_capacity != 0) scfg.sys_file_capacity = cfg.sys_file_capacity;
  return scfg;
}

TracedRound run_traced_round(const Setup& su, const campaign::CampaignConfig& cfg,
                             const std::vector<fi::Fault>& faults, CpuRotor& rotor,
                             std::vector<Span>* spans) {
  TracedRound r;
  const std::size_t n = faults.size();
  r.results.resize(n);
  for (auto* v : {&r.restore_s, &r.run_s, &r.classify_s, &r.encode_s, &r.exp_s}) v->resize(n);
  const campaign::CalibratedApp& ca = su.ca;
  const chkpt::CheckpointImage& image = *su.image;
  const std::uint64_t watchdog = cfg.watchdog_mult * ca.golden_ticks + 1'000'000;

  const double t0 = now_s();
  std::unique_ptr<sim::Simulation> s;
  for (std::size_t i = 0; i < n; ++i) {
    const fi::Fault& fault = faults[i];
    campaign::ExperimentResult er;
    std::size_t root = 0;
    const auto span = [&](const char* name, double a, double b) {
      if (spans) spans->push_back({name, a - t0, b - t0, int(root), i});
    };
    if (spans) {
      root = spans->size();
      spans->push_back({"experiment", 0, 0, -1, i});
    }
    const double a = now_s();
    try {
      std::uint64_t pages = 0;
      if (!s) {
        s = std::make_unique<sim::Simulation>(sim_config_for(cfg), ca.app.program);
        s->spawn_main_thread();
        pages = image.restore_into(*s);
      } else {
        pages = image.restore_dirty_into(*s);
      }
      const double b = now_s();
      span("chkpt.restore", a, b);

      er.fault = fault;
      er.fastmode = cfg.fastmode;
      er.time_fraction = double(fault.time) / double(ca.kernel_fetches);
      s->fault_manager().load_faults({fault});
      s->syscall_injector().clear();
      const std::uint64_t committed0 = s->total_committed();
      const double c = now_s();
      span("fault.arm", b, c);

      const sim::RunResult rr = s->run(watchdog, cfg.deadline_seconds);
      const double d = now_s();
      span("sim.run", c, d);

      er.exit_reason = rr.reason;
      er.trap = rr.trap.kind;
      er.fault_applied = s->fault_manager().any_applied();
      er.sim_ticks = rr.ticks - ca.ticks_to_checkpoint;
      er.classification = campaign::classify(ca.app, rr, s->fault_manager(), s->output(0));
      const double e = now_s();
      span("campaign.classify", d, e);

      er.ckpt_version = std::uint8_t(image.stats().format);
      er.restore_pages = pages;
      er.restore_bytes = pages * mem::PhysMem::kPageBytes;
      er.wall_seconds = e - a;
      const std::string line = campaign::experiment_record_to_json(
          {i, 0, campaign::experiment_seed(cfg.campaign_seed, i), er});
      const double f = now_s();
      span("campaign.encode", e, f);

      r.restore_s[i] = b - a;
      r.run_s[i] = d - c;
      r.classify_s[i] = e - d;
      r.encode_s[i] = f - e;
      r.exp_s[i] = f - a;
      r.restore_pages += pages;
      r.insts += rr.committed - committed0;
      r.ticks += er.sim_ticks;
      r.run_total_s += d - c;
      if (spans) (*spans)[root].start = a - t0, (*spans)[root].end = f - t0;
    } catch (const std::exception& ex) {
      s.reset();
      er.sim_error = ex.what();
    }
    r.results[i] = std::move(er);
    rotor.tick();
  }
  r.wall_s = now_s() - t0;
  return r;
}

// ---------------------------------------------------------------------------
// NoW rounds: a Master with forked loopback workers
// ---------------------------------------------------------------------------

class ArrivalObserver final : public campaign::CampaignObserver {
 public:
  struct Arrival {
    std::size_t index;
    unsigned worker;
    double at;
  };
  explicit ArrivalObserver(std::size_t n) : results(n), seen(n, 0) {}

  void on_experiment(const campaign::ExperimentRecord& rec) override {
    arrivals.push_back({rec.index, rec.worker, now_s()});
    if (rec.index < results.size()) {
      if (seen[rec.index]++ == 0) results[rec.index] = rec.result;
    }
  }

  std::vector<campaign::ExperimentResult> results;
  std::vector<unsigned> seen;
  std::vector<Arrival> arrivals;
};

struct NowRound {
  std::vector<campaign::ExperimentResult> results;
  std::size_t missing = 0, duplicates = 0, worker_failures = 0;
  double start_s = 0;        // Master construction
  double first_result_s = 0; // from Master construction to the first result
  double setup_s = 0;        // first_result_s minus that experiment's own time
  double campaign_s = 0;     // first experiment start to last result
  double busy_share = 0;     // sum of worker experiment time / (campaign_s * slots)
  std::vector<double> gaps_s;
  std::uint64_t welcome_bytes_total = 0;
  unsigned workers_joined = 0, workers_lost = 0;
  std::uint64_t requeued = 0;
};

NowRound run_now_round(const Workload& w, const Setup& su, const apps::AppScale& scale,
                       campaign::CampaignConfig cfg, const std::vector<fi::Fault>& faults) {
  NowRound r;
  ArrivalObserver obs(faults.size());
  cfg.observer = &obs;
  campaign::DispatchConfig dcfg;
  dcfg.bind_address = "127.0.0.1";
  r.start_s = now_s();
  campaign::Master master(su.ca, scale, faults, cfg, dcfg);
  campaign::LocalWorkerPool pool =
      campaign::LocalWorkerPool::spawn(w.now_workers, master.port(), w.now_slots);
  campaign::DispatchReport rep;
  try {
    rep = master.run();
  } catch (...) {
    for (std::size_t i = 0; i < pool.pids().size(); ++i) pool.kill_worker(i, SIGKILL);
    pool.wait_all();
    throw;
  }
  r.worker_failures = std::size_t(pool.wait_all());

  r.results = std::move(obs.results);
  for (const unsigned k : obs.seen) {
    if (k == 0) ++r.missing;
    if (k > 1) r.duplicates += k - 1;
  }
  r.duplicates += rep.duplicate_results;
  r.welcome_bytes_total = rep.checkpoint_bytes_shipped;
  r.workers_joined = rep.workers_joined;
  r.workers_lost = rep.workers_lost;
  r.requeued = rep.requeued;
  if (obs.arrivals.empty()) return r;

  const auto& first = obs.arrivals.front();
  r.first_result_s = first.at - r.start_s;
  r.setup_s = r.first_result_s - r.results[first.index].wall_seconds;
  const double campaign_start = first.at - r.results[first.index].wall_seconds;
  r.campaign_s = obs.arrivals.back().at - campaign_start;
  double busy = 0;
  for (const auto& er : r.results) busy += er.wall_seconds;
  r.busy_share = busy / (r.campaign_s * double(w.now_workers * w.now_slots));
  std::map<unsigned, double> last_at;
  for (const auto& a : obs.arrivals) {
    const auto it = last_at.find(a.worker);
    if (it != last_at.end())
      r.gaps_s.push_back(a.at - it->second - r.results[a.index].wall_seconds);
    last_at[a.worker] = a.at;
  }
  return r;
}

// ---------------------------------------------------------------------------
// What the timed rounds accumulate
// ---------------------------------------------------------------------------

constexpr std::size_t kMaxSpans = 200'000;

struct Tally {
  std::vector<double> ref_mops;
  std::vector<double> rates;                       // per untraced round, end to end
  std::vector<std::vector<double>> exp_rounds;     // per round, per experiment
  std::vector<double> untraced_local_rates, traced_rates;
  std::vector<double> busy_share, gaps, first_result;
  std::vector<double> restore_s, run_s, classify_s, encode_s, coverage;
  std::uint64_t restore_pages = 0, insts = 0, ticks = 0;
  double run_total_s = 0;
  std::size_t traced_rounds = 0;
  std::vector<Span> spans;

  void add_dispatch(double busy, const std::vector<double>& gap_s, double first_s) {
    busy_share.push_back(busy);
    gaps.insert(gaps.end(), gap_s.begin(), gap_s.end());
    first_result.push_back(first_s);
  }

  void add_traced(const TracedRound& tr) {
    const std::size_t n = tr.exp_s.size();
    traced_rates.push_back(double(n) / tr.wall_s);
    restore_s.insert(restore_s.end(), tr.restore_s.begin(), tr.restore_s.end());
    run_s.insert(run_s.end(), tr.run_s.begin(), tr.run_s.end());
    classify_s.insert(classify_s.end(), tr.classify_s.begin(), tr.classify_s.end());
    encode_s.insert(encode_s.end(), tr.encode_s.begin(), tr.encode_s.end());
    // Self time of the four layers against each experiment's whole span.
    double self = 0, total = 0;
    for (std::size_t i = 0; i < n; ++i) {
      self += tr.restore_s[i] + tr.run_s[i] + tr.classify_s[i] + tr.encode_s[i];
      total += tr.exp_s[i];
    }
    coverage.push_back(100.0 * self / total);
    restore_pages += tr.restore_pages;
    insts += tr.insts;
    ticks += tr.ticks;
    run_total_s += tr.run_total_s;
    ++traced_rounds;
  }
};

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

struct Metrics {
  std::vector<std::pair<std::string, std::pair<double, const char*>>> items;
  void add(const std::string& name, double value, const char* unit) {
    items.push_back({name, {value, unit}});
  }
};

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const Metrics& m) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < m.items.size(); ++i) {
    const auto& [name, vu] = m.items[i];
    std::printf("%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}", i ? ", " : "",
                name.c_str(), std::isfinite(vu.first) ? vu.first : 0.0, vu.second);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

void write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write spans to " + path);
  for (const Span& s : spans)
    os << "{\"name\":\"" << s.name << "\",\"exp\":" << s.exp << ",\"parent\":" << s.parent
       << ",\"start_us\":" << s.start * 1e6 << ",\"end_us\":" << s.end * 1e6 << "}\n";
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::string spans;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v), have_seed = true;
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--spans") a.spans = v;
    else throw std::invalid_argument("unknown flag " + k);
  }
  if (!have_seed) throw std::invalid_argument("--seed is required");
  if (!(a.seconds > 0)) throw std::invalid_argument("--seconds must be positive");
  return a;
}

int run(const Args& args) {
  const Workload* wp = nullptr;
  for (const Workload& w : kWorkloads)
    if (args.workload == w.name) wp = &w;
  if (!wp) throw std::invalid_argument("unknown workload " + args.workload);
  const Workload& w = *wp;
  const bool now_path = w.now_workers > 0;

  const apps::AppScale scale;  // the apps' default (fixed) inputs
  campaign::CampaignConfig cfg;
  cfg.cpu = w.cpu;
  cfg.campaign_seed = args.seed;
  cfg.workers = 1;
  Checks checks;
  CpuRotor rotor;

  // --- set-up, repeated; the last one is kept ---
  std::vector<double> setup_s, calib_s, parse_s;
  Setup su;
  for (int k = 0; k < kSetupRepeats; ++k) {
    rotor.next();
    Setup s = set_up(w, scale, cfg);
    double total = s.build_s + s.calibrate_s + s.parse_s;
    if (k > 0) {
      checks.expect(s.ca.golden_ticks == su.ca.golden_ticks &&
                        s.ca.golden_committed == su.ca.golden_committed &&
                        s.ca.kernel_fetches == su.ca.kernel_fetches &&
                        s.ca.checkpoint.bytes() == su.ca.checkpoint.bytes(),
                    "calibration differs between set-ups");
    }
    calib_s.push_back(s.calibrate_s);
    parse_s.push_back(s.parse_s);
    su = std::move(s);
    if (now_path) {
      // Master construction, fork, Welcome, first Batch: up to the point
      // where the first experiment starts, seen from its result.
      const std::vector<fi::Fault> few =
          campaign::seeded_fault_set(args.seed, kNowSetupExperiments, su.ca.kernel_fetches);
      rotor.release();
      const NowRound nr = run_now_round(w, su, scale, cfg, few);
      checks.expect(nr.missing == 0 && nr.duplicates == 0 && nr.worker_failures == 0,
                    "NoW set-up campaign lost results");
      total += nr.setup_s;
    }
    setup_s.push_back(total);
  }
  const campaign::CalibratedApp& ca = su.ca;
  const std::vector<fi::Fault> faults = make_faults(w, args.seed, ca.kernel_fetches);
  const std::size_t n = faults.size();
  campaign::ExperimentWorker worker(ca, *su.image, cfg);
  const std::uint64_t welcome_bytes =
      campaign::wire::encode_welcome(campaign::wire::Welcome::from(ca, scale, cfg)).size();

  // --- timed rounds ---
  Tally t;
  std::size_t attempted = 0, failed = 0;
  std::optional<RoundSummary> reference;  // the first round's records
  std::vector<campaign::ExperimentResult> first_results;
  std::optional<std::uint64_t> traced_insts;
  // Every round of the list must give the same records (outcomes, ticks).
  const auto check_round = [&](const std::vector<campaign::ExperimentResult>& results,
                               const char* what) {
    RoundSummary s = summarize(results, args.seed);
    if (!reference) reference = std::move(s), first_results = results;
    else checks.expect(s == *reference, std::string(what) + " records differ between rounds");
    for (const auto& er : results) failed += count_failed(er);
    attempted += results.size();
  };

  const double deadline = now_s() + args.seconds;
  do {
    t.ref_mops.push_back(host_ref_mops());
    if (now_path) {
      rotor.release();  // the forked workers inherit the affinity mask
      const NowRound nr = run_now_round(w, su, scale, cfg, faults);
      checks.expect(nr.workers_joined == w.now_workers && nr.worker_failures == 0 &&
                        nr.workers_lost == 0 && nr.requeued == 0,
                    "NoW workers failed or were lost");
      checks.expect(nr.welcome_bytes_total == welcome_bytes * nr.workers_joined,
                    "Welcome size differs from the encoded Welcome");
      failed += nr.missing + nr.duplicates;
      if (nr.missing == 0) check_round(nr.results, "NoW");
      else attempted += n;
      t.add_dispatch(nr.busy_share, nr.gaps_s, nr.first_result_s);
      if (!args.trace) {
        t.rates.push_back(double(n) / nr.campaign_s);
        t.exp_rounds.emplace_back();
        for (const auto& er : nr.results) t.exp_rounds.back().push_back(er.wall_seconds);
      }
    }
    if (!now_path || args.trace) {
      const LocalRound lr = run_local_round(worker, args.seed, faults, rotor);
      check_round(lr.results, "local");
      t.untraced_local_rates.push_back(double(n) / lr.wall_s);
      if (!now_path) {
        t.rates.push_back(double(n) / lr.wall_s);
        t.exp_rounds.push_back(lr.exp_s);
        double busy = 0;
        std::vector<double> gaps;
        for (std::size_t i = 0; i < n; ++i) {
          busy += lr.exp_s[i];
          if (i > 0) gaps.push_back(lr.finish_s[i] - lr.finish_s[i - 1] - lr.exp_s[i]);
        }
        t.add_dispatch(busy / lr.wall_s, gaps, lr.finish_s[0]);
      }
    }
    if (!t.rates.empty() && !args.trace)
      std::fprintf(stderr, "round %zu exps_per_s=%.2f host.ref_mops=%.1f\n", t.rates.size(),
                   t.rates.back(), t.ref_mops.back());
    if (args.trace) {
      const TracedRound tr = run_traced_round(
          su, cfg, faults, rotor, t.spans.size() < kMaxSpans ? &t.spans : nullptr);
      check_round(tr.results, "traced");
      if (traced_insts)
        checks.expect(*traced_insts == tr.insts, "instruction count differs between rounds");
      traced_insts = tr.insts;
      t.add_traced(tr);
    }
  } while (now_s() < deadline);
  // Before the checks below, which build Simulations of their own.
  const double peak_rss =
      std::max(peak_rss_mb(RUSAGE_SELF), peak_rss_mb(RUSAGE_CHILDREN));

  // --- output checks outside the timed rounds ---
  if (now_path) {
    // NoW equals local: the same list on one local worker.
    const LocalRound lr = run_local_round(worker, args.seed, faults, rotor);
    checks.expect(summarize(lr.results, args.seed) == *reference,
                  "NoW records differ from one local worker's");
    double busy = 0;
    for (const double e : lr.exp_s) busy += e;
    std::fprintf(stderr, "local-1-worker %s: exps_per_s=%.2f slot_busy_share=%.3f\n", w.name,
                 double(n) / lr.wall_s, busy / lr.wall_s);
  }
  // Null-fault controls: golden_ticks - ticks_to_checkpoint, non-propagated.
  const std::uint64_t null_ticks = ca.golden_ticks - ca.ticks_to_checkpoint;
  for (std::size_t i = kControlEvery - 1; i < n; i += kControlEvery) {
    const campaign::ExperimentResult& er = first_results[i];
    checks.expect(er.sim_ticks == null_ticks && !er.fault_applied &&
                      er.classification.outcome == apps::Outcome::NonPropagated,
                  "null-fault control " + std::to_string(i) + " diverges from the golden run");
  }
  {
    // A fixed sample re-run on the reference interpreter: full restore, with
    // predecode, the timing fast lane and fast mode off.
    campaign::CampaignConfig ref_cfg = cfg;
    ref_cfg.predecode = false;
    ref_cfg.fastpath = false;
    ref_cfg.fastmode = false;
    const std::vector<fi::SyscallFaultPlan> plans;
    for (std::size_t i = 3; i < n; i += n / kReferenceSample) {
      const campaign::ExperimentResult er =
          campaign::run_experiment(ca, faults[i], ref_cfg, &plans);
      checks.expect(normalized(i, args.seed, er) == reference->lines[i],
                    "reference interpreter differs on experiment " + std::to_string(i));
    }
  }
  std::fprintf(stderr, "digest %s seed=%llu records=%016llx sum_ticks=%llu outcomes=", w.name,
               (unsigned long long)args.seed, (unsigned long long)reference->digest,
               (unsigned long long)reference->sum_ticks);
  for (std::size_t i = 0; i < apps::kNumOutcomes; ++i)
    std::fprintf(stderr, "%s%s:%zu", i ? "," : "", apps::outcome_name(apps::Outcome(i)),
                 reference->counts[i]);
  if (traced_insts) std::fprintf(stderr, " insts=%llu", (unsigned long long)*traced_insts);
  std::fprintf(stderr, "\n");
  for (const std::string& f : checks.failures)
    std::fprintf(stderr, "CHECK FAILED: %s\n", f.c_str());

  Metrics m;
  if (!args.trace) {
    const std::vector<double> per_exp = per_experiment_median(t.exp_rounds);
    m.add("exps_per_s", median(t.rates), "1/s");
    m.add("exp_ms_p50", 1e3 * median(per_exp), "ms");
    m.add("exp_ms_tail", 1e3 * tail(per_exp), "ms");
    m.add("setup_s", median(setup_s), "s");
    m.add("peak_rss_mb", peak_rss, "MB");
  } else {
    const double traced_exps = double(t.traced_rounds * n);
    double gap_sum = 0;
    for (const double g : t.gaps) gap_sum += g;
    m.add("campaign.calibrate_s", median(calib_s), "s");
    m.add("campaign.golden_mips", double(ca.golden_committed) / median(calib_s) / 1e6, "MIPS");
    m.add("chkpt.parse_ms", 1e3 * median(parse_s), "ms");
    m.add("chkpt.restore_us_p50", 1e6 * median(t.restore_s), "us");
    m.add("chkpt.restore_pages_per_exp", double(t.restore_pages) / traced_exps, "count");
    m.add("sim.run_ms_p50", 1e3 * median(t.run_s), "ms");
    m.add("sim.mips", double(t.insts) / t.run_total_s / 1e6, "MIPS");
    m.add("sim.insts_per_exp", double(t.insts) / traced_exps, "count");
    m.add("sim.ticks_per_exp", double(t.ticks) / traced_exps, "count");
    m.add("campaign.classify_us_p50", 1e6 * median(t.classify_s), "us");
    m.add("campaign.encode_us_p50", 1e6 * median(t.encode_s), "us");
    m.add("dispatch.slot_busy_share", median(t.busy_share), "ratio");
    m.add("dispatch.result_gap_ms_mean", 1e3 * gap_sum / double(t.gaps.size()), "ms");
    m.add("dispatch.welcome_bytes", double(welcome_bytes), "bytes");
    m.add("dispatch.first_result_s", median(t.first_result), "s");
    m.add("host.ref_mops", median(t.ref_mops), "Mops/s");
    m.add("trace.overhead_pct",
          100.0 * (median(t.untraced_local_rates) / median(t.traced_rates) - 1.0), "%");
    m.add("trace.coverage_pct", median(t.coverage), "%");
    if (!args.spans.empty()) write_spans(args.spans, t.spans);
  }
  std::fprintf(stderr, "info %s iterations=%zu host.ref_mops=%.1f\n", w.name,
               t.ref_mops.size(), median(t.ref_mops));
  print_result(checks.ok(), attempted, failed, m);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "campaign_bench: %s\n", e.what());
    return 2;
  }
}
