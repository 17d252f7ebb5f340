// Checked numeric flag parsing shared by the gemfi CLIs.
//
// The raw strtoul idiom silently turns `--port=notaport` into 0 and carries
// on; these helpers abort with exit code 2 and a message naming the
// offending flag instead, so a typo dies at the command line rather than as
// a bind to port 0 or a campaign of zero experiments.
#pragma once

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "campaign/config.hpp"

namespace gemfi::cliflags {

[[noreturn]] inline void bad_value(const char* flag, const std::string& text) {
  std::fprintf(stderr, "invalid numeric value for --%s: '%s'\n", flag,
               text.c_str());
  std::exit(2);
}

inline std::uint64_t parse_u64_flag(const char* flag, const std::string& text) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (text.empty() || text[0] == '-' || *end != '\0' || errno == ERANGE)
    bad_value(flag, text);
  return v;
}

inline unsigned parse_u32_flag(const char* flag, const std::string& text) {
  const std::uint64_t v = parse_u64_flag(flag, text);
  if (v > ~0u) bad_value(flag, text);
  return unsigned(v);
}

inline std::uint16_t parse_u16_flag(const char* flag, const std::string& text) {
  const std::uint64_t v = parse_u64_flag(flag, text);
  if (v > 0xffffu) bad_value(flag, text);
  return std::uint16_t(v);
}

inline double parse_f64_flag(const char* flag, const std::string& text) {
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(text.c_str(), &end);
  if (text.empty() || *end != '\0' || errno == ERANGE) bad_value(flag, text);
  return v;
}

/// The campaign-config flags every campaign CLI takes, written straight
/// into `cfg`: --cpu=atomic|timing|pipelined, --seed=, --watchdog-mult=,
/// --deadline=, --retries=, --no-fastmode. Returns false if `arg` is none of
/// them; a bad value exits 2 with a message naming the flag.
inline bool parse_config_flag(const std::string& arg, campaign::CampaignConfig& cfg) {
  const auto value = [&arg](const char* prefix) -> const char* {
    const std::size_t n = std::char_traits<char>::length(prefix);
    return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n : nullptr;
  };
  if (const char* v = value("--cpu=")) {
    const std::string kind = v;
    if (kind == "atomic") cfg.cpu = sim::CpuKind::AtomicSimple;
    else if (kind == "timing") cfg.cpu = sim::CpuKind::TimingSimple;
    else if (kind == "pipelined") cfg.cpu = sim::CpuKind::Pipelined;
    else {
      std::fprintf(stderr, "invalid value for --cpu: '%s' (atomic|timing|pipelined)\n",
                   v);
      std::exit(2);
    }
  } else if (const char* v = value("--seed=")) {
    cfg.campaign_seed = parse_u64_flag("seed", v);
  } else if (const char* v = value("--watchdog-mult=")) {
    cfg.watchdog_mult = parse_u64_flag("watchdog-mult", v);
  } else if (const char* v = value("--deadline=")) {
    cfg.deadline_seconds = parse_f64_flag("deadline", v);
  } else if (const char* v = value("--retries=")) {
    cfg.max_retries = parse_u32_flag("retries", v);
  } else if (arg == "--no-fastmode") {
    cfg.fastmode = false;
  } else {
    return false;
  }
  return true;
}

}  // namespace gemfi::cliflags
