// Table 1 — "Thickness and Optical properties (NIR range) of Tissue in
// Adult Head". Prints the table exactly as encoded in the presets and
// verifies its physical invariants (the same data every simulation bench
// consumes).
#include <cmath>
#include <iostream>

#include "mc/presets.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

int run(const phodis::util::CliArgs& /*args*/) {
  using namespace phodis;

  std::cout << "=== Table 1: Thickness and optical properties (NIR) of "
               "tissue in the adult head ===\n\n";

  util::TextTable table({"Tissue Type", "Thickness (cm)", "mus' (1/mm)",
                         "mua (1/mm)", "adopted thickness (mm)"});
  for (const mc::Table1Row& row : mc::table1_rows()) {
    std::string thickness;
    if (row.tissue == "White matter") {
      thickness = "-";
    } else if (row.thickness_cm_lo == row.thickness_cm_hi) {
      thickness = util::format_double(row.thickness_cm_lo);
    } else {
      thickness = util::format_double(row.thickness_cm_lo) + "-" +
                  util::format_double(row.thickness_cm_hi);
    }
    table.add_row({row.tissue, thickness,
                   util::format_double(row.mus_prime_per_mm),
                   util::format_double(row.mua_per_mm),
                   row.tissue == "White matter"
                       ? "semi-infinite"
                       : util::format_double(row.thickness_used_mm)});
  }
  table.print(std::cout);

  // Derived per-layer transport quantities of the head model actually
  // simulated (g = 0.9, n = 1.4).
  std::cout << "\nDerived transport quantities (g = 0.9, n = 1.4):\n\n";
  const mc::LayeredMedium head = mc::adult_head_model();
  util::TextTable derived(
      {"Layer", "z0 (mm)", "z1 (mm)", "mus (1/mm)", "mut (1/mm)",
       "albedo", "mueff (1/mm)", "1/e depth (mm)"});
  for (std::size_t i = 0; i < head.layer_count(); ++i) {
    const mc::Layer& layer = head.layer(i);
    derived.add_row(
        {layer.name, util::format_double(layer.z0),
         std::isinf(layer.z1) ? "inf" : util::format_double(layer.z1),
         util::format_double(layer.props.mus, 4),
         util::format_double(layer.props.mut(), 4),
         util::format_double(layer.props.albedo(), 6),
         util::format_double(layer.props.mueff(), 4),
         util::format_double(1.0 / layer.props.mueff(), 4)});
  }
  derived.print(std::cout);

  // Invariants the rest of the suite relies on.
  bool ok = true;
  const auto& rows = mc::table1_rows();
  ok &= rows.size() == 5;
  ok &= head.layer_count() == 5;
  // CSF is the low-scattering sandwich layer.
  ok &= head.layer(2).props.mus_reduced() < head.layer(1).props.mus_reduced();
  ok &= head.layer(2).props.mus_reduced() < head.layer(3).props.mus_reduced();
  std::cout << "\nInvariants: " << (ok ? "OK" : "VIOLATED") << "\n";
  return ok ? 0 : 1;
}

int main(int argc, char** argv) {
  return phodis::util::run_main(argc, argv, run);
}
