#include "campaign/config.hpp"

#include <stdexcept>

#include "campaign/jsonl.hpp"

namespace gemfi::campaign {

namespace {

using util::ByteReader;
using util::ByteWriter;
using util::DeserializeError;

constexpr unsigned kNumCpuKinds = unsigned(sim::CpuKind::Pipelined) + 1;
constexpr std::uint32_t kMaxPlans = 1u << 16;

// Syscall-fault plans travel in their canonical grammar lines in both codecs:
// the grammar is the wire format, so a hostile line is rejected by the same
// validation the CLI uses.

struct BinaryWriter {
  ByteWriter& w;
  void operator()(const char*, const sim::CpuKind& v) { w.put_u8(std::uint8_t(v)); }
  void operator()(const char*, const bool& v) { w.put_bool(v); }
  void operator()(const char*, const unsigned& v) { w.put_u32(v); }
  void operator()(const char*, const std::uint64_t& v) { w.put_u64(v); }
  void operator()(const char*, const double& v) { w.put_f64(v); }
  void operator()(const char*, const std::vector<fi::SyscallFaultPlan>& plans) {
    w.put_u32(std::uint32_t(plans.size()));
    for (const fi::SyscallFaultPlan& p : plans) w.put_string(p.to_line());
  }
};

struct BinaryReader {
  ByteReader& r;
  void operator()(const char* key, sim::CpuKind& v) {
    const std::uint8_t raw = r.get_u8();
    if (raw >= kNumCpuKinds)
      throw DeserializeError(std::string("out-of-range ") + key + ": " +
                             std::to_string(raw));
    v = sim::CpuKind(raw);
  }
  void operator()(const char* key, bool& v) {
    const std::uint8_t raw = r.get_u8();
    if (raw > 1)
      throw DeserializeError(std::string("non-boolean ") + key + ": " +
                             std::to_string(raw));
    v = raw != 0;
  }
  void operator()(const char*, unsigned& v) { v = r.get_u32(); }
  void operator()(const char*, std::uint64_t& v) { v = r.get_u64(); }
  void operator()(const char*, double& v) { v = r.get_f64(); }
  void operator()(const char*, std::vector<fi::SyscallFaultPlan>& plans) {
    const std::uint32_t n = r.get_u32();
    if (n > kMaxPlans) throw DeserializeError("implausible syscall plan count");
    plans.clear();
    plans.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i)
      plans.push_back(fi::parse_syscall_plan(r.get_string()));
  }
};

struct JsonWriter {
  jsonl::ObjectWriter& w;
  void operator()(const char* key, const sim::CpuKind& v) {
    w.field(key, std::uint64_t(v));
  }
  void operator()(const char* key, const bool& v) { w.field(key, v); }
  void operator()(const char* key, const unsigned& v) { w.field(key, std::uint64_t(v)); }
  void operator()(const char* key, const std::uint64_t& v) { w.field(key, v); }
  void operator()(const char* key, const double& v) { w.field(key, v); }
  void operator()(const char* key, const std::vector<fi::SyscallFaultPlan>& plans) {
    std::vector<std::string> lines;
    lines.reserve(plans.size());
    for (const fi::SyscallFaultPlan& p : plans) lines.push_back(p.to_line());
    w.field(key, lines);
  }
};

// JSON reads, one per field type; each throws on a value its field cannot
// hold instead of narrowing it.
void read_json(const jsonl::Value& v, const char* key, sim::CpuKind& out) {
  const std::uint64_t raw = v.as_u64();
  if (raw >= kNumCpuKinds)
    throw std::out_of_range(std::string("out-of-range ") + key + ": " +
                            std::to_string(raw));
  out = sim::CpuKind(raw);
}
void read_json(const jsonl::Value& v, const char*, bool& out) { out = v.as_bool(); }
void read_json(const jsonl::Value& v, const char*, unsigned& out) { out = v.as_u32(); }
void read_json(const jsonl::Value& v, const char*, std::uint64_t& out) {
  out = v.as_u64();
}
void read_json(const jsonl::Value& v, const char*, double& out) { out = v.as_double(); }
void read_json(const jsonl::Value& v, const char* key,
               std::vector<fi::SyscallFaultPlan>& plans) {
  if (v.kind != jsonl::Value::Kind::Array)
    throw std::invalid_argument(std::string(key) + " is not a JSON array");
  if (v.array.size() > kMaxPlans)
    throw std::out_of_range(std::string("implausible ") + key + " count");
  plans.clear();
  for (const jsonl::Value& line : v.array)
    plans.push_back(fi::parse_syscall_plan(line.as_string()));
}

}  // namespace

sim::SimConfig sim_config(const CampaignConfig& cfg) {
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

void put_config(ByteWriter& w, const CampaignConfig& cfg) {
  visit_fields(cfg, BinaryWriter{w});
}

CampaignConfig get_config(ByteReader& r) {
  CampaignConfig cfg;
  visit_fields(cfg, BinaryReader{r});
  return cfg;
}

void config_to_json(jsonl::ObjectWriter& w, const CampaignConfig& cfg) {
  visit_fields(cfg, JsonWriter{w});
}

void config_from_json(const jsonl::Value& obj, CampaignConfig& cfg) {
  visit_fields(cfg, [&obj](const char* key, auto& field) {
    if (obj.has(key)) read_json(obj.at(key), key, field);
  });
}

}  // namespace gemfi::campaign
