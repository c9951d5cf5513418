// Appendix A + §5 constants: the FLOPs model (Eqs 7-9) and the paper's
// headline closed-form numbers — 5as/h, the selective-recompute memory
// savings (70% / 65%), and its FLOPs overhead (2.7% / 1.6%).
#include <cstdio>

#include "common/table.h"
#include "common/units.h"
#include "memory/activation_model.h"
#include "perf/flops.h"

using namespace mls;

int main() {
  std::printf("=== Appendix A: model and hardware FLOPs ===\n\n");

  Table t({"model", "model FLOPs/iter (Eq 7)", "hw FLOPs selective (Eq 8)",
           "hw/model", "1 + s/6h (Eq 9)"});
  for (const auto& cfg : {model::ModelConfig::gpt_22b(),
                          model::ModelConfig::gpt_175b(),
                          model::ModelConfig::gpt_530b(),
                          model::ModelConfig::gpt_1t()}) {
    const double mf = perf::model_flops_per_iteration(cfg);
    const double hf =
        perf::hardware_flops_per_iteration(cfg, core::Recompute::kSelective);
    t.add_row({cfg.name, format_flops(mf), format_flops(hf), fmt(hf / mf, 4),
               fmt(perf::hw_to_model_flops_ratio_approx(cfg), 4)});
  }
  t.print();

  std::printf("\n=== §5 constants ===\n\n");
  Table t2({"model", "5as/h (paper)", "selective memory saving (paper)",
            "selective FLOPs overhead (paper)"});
  struct Paper {
    model::ModelConfig cfg;
    double term, saving, ovh;
  };
  const Paper rows[] = {
      {model::ModelConfig::gpt_175b(), 80, 70, 2.7},
      {model::ModelConfig::gpt_530b(), 64, 65, 1.6},
  };
  for (const auto& r : rows) {
    const double term = 5.0 * r.cfg.a * r.cfg.s / r.cfg.h;
    constexpr auto kTpSp = core::PlanKind::kTensorSequence;
    const double with_attn =
        memory::act_bytes_per_layer(r.cfg, {kTpSp, core::Recompute::kNone});
    const double without = memory::act_bytes_per_layer(
        r.cfg, {kTpSp, core::Recompute::kSelective});
    const double saving = 100.0 * (1.0 - without / with_attn);
    const double ovh =
        100.0 *
        (perf::hardware_flops_per_iteration(r.cfg, core::Recompute::kSelective) /
             perf::model_flops_per_iteration(r.cfg) -
         1.0);
    t2.add_row({r.cfg.name, fmt(term, 0) + " (" + fmt(r.term, 0) + ")",
                fmt(saving, 1) + "% (" + fmt(r.saving, 0) + "%)",
                fmt(ovh, 2) + "% (" + fmt(r.ovh, 1) + "%)"});
  }
  t2.print();
  return 0;
}
