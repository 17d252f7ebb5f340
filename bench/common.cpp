#include "common.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "campaign/jsonl.hpp"
#include "flag_parse.hpp"

namespace gemfi::bench {

campaign::CampaignConfig Options::campaign_config() const {
  campaign::CampaignConfig cfg = config;
  cfg.workers = workers == 0 ? std::max(1u, std::thread::hardware_concurrency()) : workers;
  return cfg;
}

std::vector<std::string> Options::app_list() const {
  return apps.empty() ? apps::app_names() : apps;
}

Options parse_options(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      opt.quick = true;
    } else if (arg == "--full") {
      opt.full = true;
    } else if (arg.rfind("--n=", 0) == 0) {
      opt.n_override = cliflags::parse_u64_flag("n", arg.substr(4));
    } else if (arg.rfind("--seed=", 0) == 0) {
      opt.seed = cliflags::parse_u64_flag("seed", arg.substr(7));
    } else if (arg.rfind("--workers=", 0) == 0) {
      opt.workers = cliflags::parse_u32_flag("workers", arg.substr(10));
    } else if (arg == "--no-predecode") {
      opt.config.predecode = false;
    } else if (arg == "--no-fastpath") {
      opt.config.fastpath = false;
    } else if (arg == "--no-fastmode") {
      opt.config.fastmode = false;
    } else if (arg.rfind("--json=", 0) == 0) {
      opt.json = arg.substr(7);
    } else if (arg.rfind("--apps=", 0) == 0) {
      std::string list = arg.substr(7);
      std::size_t pos = 0;
      while (pos != std::string::npos) {
        const std::size_t comma = list.find(',', pos);
        opt.apps.push_back(list.substr(pos, comma - pos));
        pos = comma == std::string::npos ? comma : comma + 1;
      }
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "options: --quick | --full | --n=<count> | --apps=a,b,c | "
          "--seed=<u64> | --workers=<k> | --no-predecode | --no-fastpath | "
          "--no-fastmode | --json=<path>\n");
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown option: %s (try --help)\n", arg.c_str());
      std::exit(2);
    }
  }
  return opt;
}

void print_header(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

void print_outcome_legend() {
  std::printf("%-22s %8s %8s %8s %8s %8s %8s %8s %8s\n", "cell", "crash%", "nonprop%",
              "strict%", "correct%", "sdc%", "tmout%", "attack%", "n");
}

void print_outcome_row(const std::string& label, const campaign::CampaignReport& report) {
  std::printf("%-22s %8.1f %8.1f %8.1f %8.1f %8.1f %8.1f %8.1f %8zu\n", label.c_str(),
              100.0 * report.fraction(apps::Outcome::Crashed),
              100.0 * report.fraction(apps::Outcome::NonPropagated),
              100.0 * report.fraction(apps::Outcome::StrictlyCorrect),
              100.0 * report.fraction(apps::Outcome::Correct),
              100.0 * report.fraction(apps::Outcome::SDC),
              100.0 * report.fraction(apps::Outcome::Timeout),
              100.0 * report.fraction(apps::Outcome::AttackEffective), report.total());
  const struct {
    const char* metric;
    apps::Outcome outcome;
  } cols[] = {{"crash_pct", apps::Outcome::Crashed},
              {"nonprop_pct", apps::Outcome::NonPropagated},
              {"strict_pct", apps::Outcome::StrictlyCorrect},
              {"correct_pct", apps::Outcome::Correct},
              {"sdc_pct", apps::Outcome::SDC},
              {"timeout_pct", apps::Outcome::Timeout},
              {"attack_pct", apps::Outcome::AttackEffective}};
  for (const auto& c : cols) json_record(c.metric, 100.0 * report.fraction(c.outcome), "%", label);
  json_record("experiments", double(report.total()), "count", label);
  json_record("wall_seconds", report.wall_seconds, "s", label);
}

// --- JSON sink --------------------------------------------------------------

namespace {

std::vector<std::array<std::string, 4>>& json_records() {
  static std::vector<std::array<std::string, 4>> records;
  return records;
}

}  // namespace

void json_record(const std::string& metric, double value, const std::string& unit,
                 const std::string& config) {
  char num[64];
  // NaN/inf have no JSON number representation; emit null rather than a
  // document the self-check would reject.
  if (std::isfinite(value))
    std::snprintf(num, sizeof num, "%.17g", value);
  else
    std::snprintf(num, sizeof num, "null");
  json_records().push_back({metric, num, unit, config});
}

bool json_write(const std::string& path, const std::string& bench_name) {
  if (path.empty()) return true;
  using campaign::jsonl::escape;
  std::string doc = "{\"bench\": \"BENCH_" + escape(bench_name) + "\", \"records\": [";
  bool first = true;
  for (const auto& r : json_records()) {
    if (!first) doc += ',';
    first = false;
    doc += "\n  {\"metric\": \"" + escape(r[0]) + "\", \"value\": " + r[1] +
           ", \"unit\": \"" + escape(r[2]) + "\", \"config\": \"" + escape(r[3]) + "\"}";
  }
  doc += "\n]}\n";
  try {
    (void)campaign::jsonl::parse(doc);
  } catch (const std::invalid_argument&) {
    std::fprintf(stderr, "json_write: self-check failed, refusing to write %s\n", path.c_str());
    return false;
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(doc.data(), std::streamsize(doc.size()));
  out.flush();
  if (!out) {
    std::fprintf(stderr, "json_write: cannot write %s\n", path.c_str());
    return false;
  }
  return true;
}

}  // namespace gemfi::bench
