#include "campaign/service/spec.hpp"

#include <stdexcept>

namespace gemfi::campaign::service {

void CampaignSpec::validate() const {
  if (app_name.empty()) throw std::invalid_argument("campaign spec: empty app name");
  if (experiments == 0)
    throw std::invalid_argument("campaign spec: zero experiments");
  if (tenant.empty()) throw std::invalid_argument("campaign spec: empty tenant");
  if (weight == 0) throw std::invalid_argument("campaign spec: zero weight");
  if (unsigned(config.cpu) > unsigned(sim::CpuKind::Pipelined))
    throw std::invalid_argument("campaign spec: out-of-range cpu kind " +
                                std::to_string(unsigned(config.cpu)));
  if (!(stop_eps >= 0.0 && stop_eps <= 0.5))  // NaN fails too
    throw std::invalid_argument("campaign spec: stop_eps out of [0, 0.5]");
  if (stop_eps > 0.0 && !(stop_conf > 0.5 && stop_conf < 1.0))
    throw std::invalid_argument("campaign spec: stop_conf out of (0.5, 1)");
}

apps::AppScale CampaignSpec::to_scale() const {
  apps::AppScale scale;
  scale.paper = paper_scale;
  scale.seed = app_scale_seed;
  return scale;
}

std::string CampaignSpec::to_json() const {
  jsonl::ObjectWriter w;
  w.field("tenant", tenant)
      .field("name", name)
      .field("app", app_name)
      .field("paper", paper_scale)
      .field("scale_seed", app_scale_seed)
      .field("experiments", experiments)
      .field("weight", std::uint64_t(weight))
      .field("max_workers", std::uint64_t(max_workers))
      .field("stop_eps", stop_eps)
      .field("stop_conf", stop_conf);
  config_to_json(w, config);
  return w.str();
}

CampaignSpec CampaignSpec::from_json(const jsonl::Value& v) {
  if (!v.is_object()) throw std::invalid_argument("campaign spec: not a JSON object");
  CampaignSpec s;
  s.tenant = v.at("tenant").as_string();
  s.name = v.has("name") ? v.at("name").as_string() : "";
  s.app_name = v.at("app").as_string();
  if (v.has("paper")) s.paper_scale = v.at("paper").as_bool();
  if (v.has("scale_seed")) s.app_scale_seed = v.at("scale_seed").as_u64();
  s.experiments = v.at("experiments").as_u64();
  if (v.has("weight")) s.weight = v.at("weight").as_u32();
  if (v.has("max_workers")) s.max_workers = v.at("max_workers").as_u32();
  if (v.has("stop_eps")) s.stop_eps = v.at("stop_eps").as_double();
  if (v.has("stop_conf")) s.stop_conf = v.at("stop_conf").as_double();
  config_from_json(v, s.config);
  s.validate();
  return s;
}

const char* campaign_state_name(CampaignState s) noexcept {
  switch (s) {
    case CampaignState::Queued: return "queued";
    case CampaignState::Calibrating: return "calibrating";
    case CampaignState::Running: return "running";
    case CampaignState::Done: return "done";
    case CampaignState::Cancelled: return "cancelled";
    case CampaignState::Failed: return "failed";
  }
  return "?";
}

}  // namespace gemfi::campaign::service
