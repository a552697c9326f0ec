#include "mc/tally.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

namespace phodis::mc {

void TallyConfig::serialize(util::ByteWriter& writer) const {
  writer.u64(layer_count);
  writer.f64(pathlength_max_mm);
  writer.u64(pathlength_bins);
  writer.f64(depth_max_mm);
  writer.u64(depth_bins);
  writer.boolean(enable_fluence_grid);
  fluence_spec.serialize(writer);
  writer.boolean(enable_path_grid);
  path_spec.serialize(writer);
  writer.boolean(enable_radial);
  radial_spec.serialize(writer);
}

TallyConfig TallyConfig::deserialize(util::ByteReader& reader) {
  TallyConfig config;
  config.layer_count = static_cast<std::size_t>(reader.u64());
  config.pathlength_max_mm = reader.f64();
  config.pathlength_bins = static_cast<std::size_t>(reader.u64());
  config.depth_max_mm = reader.f64();
  config.depth_bins = static_cast<std::size_t>(reader.u64());
  config.enable_fluence_grid = reader.boolean();
  config.fluence_spec = GridSpec::deserialize(reader);
  config.enable_path_grid = reader.boolean();
  config.path_spec = GridSpec::deserialize(reader);
  config.enable_radial = reader.boolean();
  config.radial_spec = RadialSpec::deserialize(reader);
  return config;
}

SimulationTally::SimulationTally(const TallyConfig& config)
    : config_(config),
      layer_absorption_(config.layer_count, 0.0),
      pathlength_hist_(0.0, config.pathlength_max_mm, config.pathlength_bins),
      depth_hist_(0.0, config.depth_max_mm, config.depth_bins) {
  if (config_.layer_count == 0) {
    throw std::invalid_argument("TallyConfig: layer_count must be >= 1");
  }
  if (config_.enable_fluence_grid) {
    fluence_.emplace(config_.fluence_spec);
  }
  if (config_.enable_path_grid) {
    path_visits_.emplace(config_.path_spec);
  }
  if (config_.enable_radial) {
    radial_.emplace(config_.radial_spec);
  }
}

void SimulationTally::record_detection(double weight,
                                       double optical_pathlength_mm,
                                       double exit_radius_mm,
                                       std::uint32_t scatter_events) noexcept {
  (void)exit_radius_mm;  // kept in the signature for future radial tallies
  ++detected_count_;
  detected_weight_ += weight;
  detected_pathlength_weighted_ += weight * optical_pathlength_mm;
  detected_scatters_weighted_ += weight * scatter_events;
  pathlength_hist_.add(optical_pathlength_mm, weight);
}

void SimulationTally::record_max_depth(double depth_mm,
                                       double weight) noexcept {
  depth_hist_.add(depth_mm, weight);
}

VoxelGrid3D* SimulationTally::fluence_grid() noexcept {
  return fluence_ ? &*fluence_ : nullptr;
}
VoxelGrid3D* SimulationTally::path_grid() noexcept {
  return path_visits_ ? &*path_visits_ : nullptr;
}
const VoxelGrid3D* SimulationTally::fluence_grid() const noexcept {
  return fluence_ ? &*fluence_ : nullptr;
}
const VoxelGrid3D* SimulationTally::path_grid() const noexcept {
  return path_visits_ ? &*path_visits_ : nullptr;
}
RadialTally* SimulationTally::radial() noexcept {
  return radial_ ? &*radial_ : nullptr;
}
const RadialTally* SimulationTally::radial() const noexcept {
  return radial_ ? &*radial_ : nullptr;
}

double SimulationTally::fraction(double w) const noexcept {
  return photons_launched_ > 0
             ? w / static_cast<double>(photons_launched_)
             : 0.0;
}

double SimulationTally::specular_reflectance() const noexcept {
  return fraction(specular_);
}
double SimulationTally::diffuse_reflectance() const noexcept {
  return fraction(diffuse_reflectance_);
}
double SimulationTally::transmittance() const noexcept {
  return fraction(transmittance_);
}
double SimulationTally::absorbed_fraction() const noexcept {
  double a = 0.0;
  for (double w : layer_absorption_) a += w;
  return fraction(a);
}
double SimulationTally::detected_fraction() const noexcept {
  return fraction(detected_weight_);
}
double SimulationTally::lost_fraction() const noexcept {
  return fraction(lost_);
}

double SimulationTally::absorbed_weight(std::size_t layer) const {
  return layer_absorption_.at(layer);
}

double SimulationTally::mean_detected_pathlength() const noexcept {
  return detected_weight_ > 0.0
             ? detected_pathlength_weighted_ / detected_weight_
             : 0.0;
}

double SimulationTally::mean_detected_scatter_events() const noexcept {
  return detected_weight_ > 0.0
             ? detected_scatters_weighted_ / detected_weight_
             : 0.0;
}

double SimulationTally::weight_conservation_error() const noexcept {
  double absorbed = 0.0;
  for (double w : layer_absorption_) absorbed += w;
  // Detected photons also exit through the top surface; their weight is
  // *included* in diffuse_reflectance_ by the kernel, so it is not a
  // separate sink here.
  const double sinks =
      specular_ + diffuse_reflectance_ + transmittance_ + absorbed + lost_;
  const double sources = static_cast<double>(photons_launched_) +
                         roulette_gain_ - roulette_loss_;
  return std::abs(sources - sinks);
}

void SimulationTally::merge(const SimulationTally& other) {
  if (!(other.config_ == config_)) {
    throw std::invalid_argument("SimulationTally::merge: config mismatch");
  }
  photons_launched_ += other.photons_launched_;
  detected_count_ += other.detected_count_;
  specular_ += other.specular_;
  diffuse_reflectance_ += other.diffuse_reflectance_;
  transmittance_ += other.transmittance_;
  lost_ += other.lost_;
  detected_weight_ += other.detected_weight_;
  detected_pathlength_weighted_ += other.detected_pathlength_weighted_;
  detected_scatters_weighted_ += other.detected_scatters_weighted_;
  roulette_gain_ += other.roulette_gain_;
  roulette_loss_ += other.roulette_loss_;
  for (std::size_t i = 0; i < layer_absorption_.size(); ++i) {
    layer_absorption_[i] += other.layer_absorption_[i];
  }
  pathlength_hist_.merge(other.pathlength_hist_);
  depth_hist_.merge(other.depth_hist_);
  if (fluence_ && other.fluence_) fluence_->merge(*other.fluence_);
  if (path_visits_ && other.path_visits_) {
    path_visits_->merge(*other.path_visits_);
  }
  if (radial_ && other.radial_) radial_->merge(*other.radial_);
}

void SimulationTally::serialize(util::ByteWriter& writer) const {
  config_.serialize(writer);

  writer.u64(photons_launched_);
  writer.u64(detected_count_);
  writer.f64(specular_);
  writer.f64(diffuse_reflectance_);
  writer.f64(transmittance_);
  writer.f64(lost_);
  writer.f64(detected_weight_);
  writer.f64(detected_pathlength_weighted_);
  writer.f64(detected_scatters_weighted_);
  writer.f64(roulette_gain_);
  writer.f64(roulette_loss_);
  writer.f64_vec(layer_absorption_);
  pathlength_hist_.serialize(writer);
  depth_hist_.serialize(writer);
  if (fluence_) writer.f64_vec(fluence_->data());
  if (path_visits_) writer.f64_vec(path_visits_->data());
  if (radial_) radial_->serialize(writer);
}

std::vector<std::uint8_t> SimulationTally::to_bytes() const {
  util::ByteWriter writer;
  serialize(writer);
  return writer.take();
}

SimulationTally SimulationTally::deserialize(util::ByteReader& reader) {
  const TallyConfig config = TallyConfig::deserialize(reader);
  // The constructor allocates every array from the peer's config. Each
  // array's doubles still follow in the frame, so no count may exceed
  // what is left of it; checked first, a short frame cannot ask for a
  // huge allocation.
  const std::size_t cap = reader.remaining() / sizeof(double);
  const auto require_fits = [cap](std::size_t count, const char* what) {
    if (count > cap) {
      throw std::out_of_range(std::string("SimulationTally: ") + what +
                              " exceeds the payload");
    }
  };
  require_fits(config.layer_count, "layer_count");
  require_fits(config.pathlength_bins, "pathlength_bins");
  require_fits(config.depth_bins, "depth_bins");
  if (config.enable_fluence_grid) {
    require_fits(config.fluence_spec.voxel_count(), "fluence grid");
  }
  if (config.enable_path_grid) {
    require_fits(config.path_spec.voxel_count(), "path grid");
  }
  if (config.enable_radial) {
    const RadialSpec& radial = config.radial_spec;
    require_fits(radial.nr, "radial nr");
    // nr >= 1 (validated); divide so that nr*nz cannot wrap.
    if (radial.nz > cap / radial.nr) {
      throw std::out_of_range("SimulationTally: radial nr*nz exceeds the "
                              "payload");
    }
  }

  SimulationTally tally(config);
  tally.photons_launched_ = reader.u64();
  tally.detected_count_ = reader.u64();
  tally.specular_ = reader.f64();
  tally.diffuse_reflectance_ = reader.f64();
  tally.transmittance_ = reader.f64();
  tally.lost_ = reader.f64();
  tally.detected_weight_ = reader.f64();
  tally.detected_pathlength_weighted_ = reader.f64();
  tally.detected_scatters_weighted_ = reader.f64();
  tally.roulette_gain_ = reader.f64();
  tally.roulette_loss_ = reader.f64();
  tally.layer_absorption_ = reader.f64_vec();
  if (tally.layer_absorption_.size() != config.layer_count) {
    throw std::invalid_argument("SimulationTally: layer payload mismatch");
  }
  tally.pathlength_hist_ = util::Histogram::deserialize(reader);
  tally.depth_hist_ = util::Histogram::deserialize(reader);
  if (config.enable_fluence_grid) {
    std::vector<double> data = reader.f64_vec();
    if (data.size() != config.fluence_spec.voxel_count()) {
      throw std::invalid_argument("SimulationTally: fluence payload mismatch");
    }
    tally.fluence_->mutable_data() = std::move(data);
  }
  if (config.enable_path_grid) {
    std::vector<double> data = reader.f64_vec();
    if (data.size() != config.path_spec.voxel_count()) {
      throw std::invalid_argument("SimulationTally: path payload mismatch");
    }
    tally.path_visits_->mutable_data() = std::move(data);
  }
  if (config.enable_radial) {
    tally.radial_ = RadialTally::deserialize(reader);
    if (!(tally.radial_->spec() == config.radial_spec)) {
      throw std::invalid_argument("SimulationTally: radial spec mismatch");
    }
  }
  return tally;
}

}  // namespace phodis::mc
