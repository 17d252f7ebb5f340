// Fetch-stage field analysis — the Table-I-driven validation of Sec. IV-B:
// "we correlated the affected bit location and the instruction type with the
// end result of the application".
//
// For every fetch-stage experiment we decode the *original* instruction word
// at the fault site, classify which Table-I field the flipped bit landed in
// (per that instruction's format), and tabulate outcomes per field.
// Shape targets from the paper:
//   * faults in unused bits (the SBZ field of register-form operates) are
//     always strictly correct;
//   * opcode/function faults that produce unimplemented encodings always
//     kill the program with an illegal instruction;
//   * memory-instruction displacement/base faults crash with high
//     probability; branch displacement faults on not-taken branches are
//     harmless.
#include <array>
#include <cstdio>
#include <map>

#include "common.hpp"
#include "isa/decoder.hpp"

using namespace gemfi;

namespace {

const char* classify_bit(const isa::Decoded& d, unsigned bit) {
  if (bit >= 26) return "opcode";
  switch (d.format) {
    case isa::Format::PalCode:
      return "palnum";
    case isa::Format::Branch:
      return bit >= 21 ? "Ra" : "branch-disp";
    case isa::Format::Memory:
      if (bit >= 21) return "Ra";
      if (bit >= 16) return "Rb";
      return "mem-disp";
    case isa::Format::Operate:
      if (bit >= 21) return "Ra";
      if (bit == 12) return "lit-flag";
      if (bit >= 13) return d.is_literal ? "literal" : (bit >= 16 ? "Rb" : "SBZ");
      if (bit >= 5) return "function";
      return "Rc";
    case isa::Format::FpOperate:
      if (bit >= 21) return "Fa";
      if (bit >= 16) return "Fb";
      if (bit >= 5) return "function";
      return "Fc";
    case isa::Format::Unknown:
      return "other";
  }
  return "other";
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Options opt = bench::parse_options(argc, argv);
  bench::print_header(
      "Fetch-stage fault analysis by Table-I field (Sec. IV-B validation)");

  const auto cfg = opt.campaign_config();
  const std::size_t n = opt.per_cell(400, 60, 2504);
  const std::string app_name = opt.apps.empty() ? "dct" : opt.apps.front();
  const auto ca = campaign::calibrate(apps::build_app(app_name, opt.scale()), cfg);
  std::printf("  app: %s, %zu uniform fetch-stage bit flips\n\n", app_name.c_str(), n);

  struct Cell {
    std::array<std::size_t, apps::kNumOutcomes> counts{};
    std::size_t total = 0;
  };
  std::map<std::string, Cell> table;

  util::Rng rng(opt.seed ^ 0xfe7c);
  for (std::size_t i = 0; i < n; ++i) {
    const fi::Fault f = campaign::random_fault(rng, fi::FaultLocation::Fetch,
                                               ca.kernel_fetches);
    // Re-run the experiment but keep the manager state to read the original
    // word at the fault site.
    sim::Simulation s(campaign::sim_config(cfg), ca.app.program);
    s.spawn_main_thread();
    ca.checkpoint.restore_into(s);
    s.fault_manager().load_faults({f});
    const auto rr = s.run(cfg.watchdog_mult * ca.golden_ticks + 1'000'000);
    const auto c = campaign::classify(ca.app, rr, s.fault_manager(), s.output(0));

    const auto& st = s.fault_manager().states()[0];
    const char* field = "not-injected";
    if (st.applied > 0) {
      const isa::Decoded original = isa::decode(isa::Word(st.original_value));
      field = classify_bit(original, unsigned(f.operand % 32));
    }
    Cell& cell = table[field];
    ++cell.counts[std::size_t(c.outcome)];
    ++cell.total;
  }

  bench::print_outcome_legend();
  for (const auto& [field, cell] : table) {
    std::printf("%-22s", field.c_str());
    for (unsigned o = 0; o < apps::kNumOutcomes; ++o)
      std::printf(" %8.1f", 100.0 * double(cell.counts[o]) / double(cell.total));
    std::printf(" %8zu\n", cell.total);
  }
  std::printf(
      "\n  paper expectations: SBZ bits 100%% strict-correct; opcode/function\n"
      "  flips that land on unimplemented encodings are always fatal (illegal\n"
      "  instruction); mem-disp/Rb flips crash with high probability; branch\n"
      "  displacement flips on untaken branches are harmless.\n");
  return bench::json_write(opt.json, "fetch_fields") ? 0 : 1;
}
