#include "mc/presets.hpp"

namespace phodis::mc {

const std::vector<Table1Row>& table1_rows() {
  // Tissue, thickness range [cm], µs' [1/mm], µa [1/mm], adopted [mm].
  static const std::vector<Table1Row> rows = {
      {"Scalp", 0.3, 1.0, 1.9, 0.018, 3.0},
      {"Skull", 0.5, 1.0, 1.6, 0.016, 7.0},
      {"CSF", 0.2, 0.2, 0.25, 0.004, 2.0},
      {"Grey matter", 0.4, 0.4, 2.2, 0.036, 4.0},
      {"White matter", 0.0, 0.0, 9.1, 0.014, 0.0},  // semi-infinite
  };
  return rows;
}

LayeredMedium adult_head_model(double g, double n_tissue) {
  const auto& rows = table1_rows();
  LayeredMediumBuilder builder;
  builder.ambient_above(kAirRefractiveIndex)
      .ambient_below(kAirRefractiveIndex);
  for (std::size_t i = 0; i + 1 < rows.size(); ++i) {
    const auto& row = rows[i];
    builder.add_layer(
        row.tissue,
        OpticalProperties::from_reduced(row.mua_per_mm, row.mus_prime_per_mm,
                                        g, n_tissue),
        row.thickness_used_mm);
  }
  const auto& white = rows.back();
  builder.add_semi_infinite_layer(
      white.tissue,
      OpticalProperties::from_reduced(white.mua_per_mm, white.mus_prime_per_mm,
                                      g, n_tissue));
  return builder.build();
}

namespace {

/// One Table 1 row as a semi-infinite medium under air.
LayeredMedium homogeneous_row(const Table1Row& row, double g,
                              double n_tissue) {
  LayeredMediumBuilder builder;
  builder.ambient_above(kAirRefractiveIndex)
      .ambient_below(kAirRefractiveIndex);
  builder.add_semi_infinite_layer(
      row.tissue,
      OpticalProperties::from_reduced(row.mua_per_mm, row.mus_prime_per_mm, g,
                                      n_tissue));
  return builder.build();
}

}  // namespace

LayeredMedium homogeneous_white_matter(double g, double n_tissue) {
  return homogeneous_row(table1_rows().back(), g, n_tissue);
}

LayeredMedium homogeneous_grey_matter(double g, double n_tissue) {
  return homogeneous_row(table1_rows()[3], g, n_tissue);
}

LayeredMedium two_layer_model(double g, double n_tissue) {
  const auto& rows = table1_rows();
  const Table1Row& grey = rows[3];
  const Table1Row& white = rows[4];
  LayeredMediumBuilder builder;
  builder.ambient_above(kAirRefractiveIndex)
      .ambient_below(kAirRefractiveIndex);
  builder.add_layer(grey.tissue,
                    OpticalProperties::from_reduced(
                        grey.mua_per_mm, grey.mus_prime_per_mm, g, n_tissue),
                    grey.thickness_used_mm);
  builder.add_semi_infinite_layer(
      white.tissue,
      OpticalProperties::from_reduced(white.mua_per_mm,
                                      white.mus_prime_per_mm, g, n_tissue));
  return builder.build();
}

LayeredMedium homogeneous_slab(const OpticalProperties& props,
                               double thickness_mm, double n_ambient) {
  LayeredMediumBuilder builder;
  builder.ambient_above(n_ambient).ambient_below(n_ambient);
  builder.add_layer("slab", props, thickness_mm);
  return builder.build();
}

LayeredMedium homogeneous_semi_infinite(const OpticalProperties& props,
                                        double n_ambient) {
  LayeredMediumBuilder builder;
  builder.ambient_above(n_ambient).ambient_below(n_ambient);
  builder.add_semi_infinite_layer("medium", props);
  return builder.build();
}

}  // namespace phodis::mc
