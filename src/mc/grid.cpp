#include "mc/grid.hpp"

#include <algorithm>

namespace phodis::mc {

void GridSpec::validate() const {
  if (!(x_max > x_min && y_max > y_min && z_max > z_min)) {
    throw std::invalid_argument("GridSpec: max must exceed min on every axis");
  }
  if (nx == 0 || ny == 0 || nz == 0) {
    throw std::invalid_argument("GridSpec: need >= 1 voxel per axis");
  }
  // Bound each partial product before forming it: nx*ny*nz wraps for
  // axes near 2^32 (2^32 * 2^32 * 1 is 0), which would pass a check on
  // the product and size an empty grid.
  constexpr std::size_t kMaxVoxels = std::size_t{1} << 31;
  if (nx > kMaxVoxels || ny > kMaxVoxels / nx ||
      nz > kMaxVoxels / (nx * ny)) {
    throw std::invalid_argument("GridSpec: grid too large");
  }
}

double GridSpec::voxel_volume_mm3() const noexcept {
  return (x_max - x_min) / static_cast<double>(nx) *
         (y_max - y_min) / static_cast<double>(ny) *
         (z_max - z_min) / static_cast<double>(nz);
}

void GridSpec::serialize(util::ByteWriter& writer) const {
  writer.f64(x_min);
  writer.f64(x_max);
  writer.f64(y_min);
  writer.f64(y_max);
  writer.f64(z_min);
  writer.f64(z_max);
  writer.u64(nx);
  writer.u64(ny);
  writer.u64(nz);
}

GridSpec GridSpec::deserialize(util::ByteReader& reader) {
  GridSpec s;
  s.x_min = reader.f64();
  s.x_max = reader.f64();
  s.y_min = reader.f64();
  s.y_max = reader.f64();
  s.z_min = reader.f64();
  s.z_max = reader.f64();
  s.nx = static_cast<std::size_t>(reader.u64());
  s.ny = static_cast<std::size_t>(reader.u64());
  s.nz = static_cast<std::size_t>(reader.u64());
  s.validate();
  return s;
}

GridSpec GridSpec::cube(std::size_t n, double half_width_mm, double depth_mm) {
  GridSpec spec;
  spec.x_min = -half_width_mm;
  spec.x_max = half_width_mm;
  spec.y_min = -half_width_mm;
  spec.y_max = half_width_mm;
  spec.z_min = 0.0;
  spec.z_max = depth_mm;
  spec.nx = spec.ny = spec.nz = n;
  spec.validate();
  return spec;
}

namespace {
/// Validate before any member allocates from the spec's sizes.
const GridSpec& validated(const GridSpec& spec) {
  spec.validate();
  return spec;
}
}  // namespace

VoxelGrid3D::VoxelGrid3D(const GridSpec& spec)
    : spec_(validated(spec)), data_(spec_.voxel_count(), 0.0) {
  inv_dx_ = static_cast<double>(spec_.nx) / (spec_.x_max - spec_.x_min);
  inv_dy_ = static_cast<double>(spec_.ny) / (spec_.y_max - spec_.y_min);
  inv_dz_ = static_cast<double>(spec_.nz) / (spec_.z_max - spec_.z_min);
}

std::optional<std::size_t> VoxelGrid3D::index_of(
    const util::Vec3& pos) const noexcept {
  const double fx = (pos.x - spec_.x_min) * inv_dx_;
  const double fy = (pos.y - spec_.y_min) * inv_dy_;
  const double fz = (pos.z - spec_.z_min) * inv_dz_;
  if (fx < 0.0 || fy < 0.0 || fz < 0.0) return std::nullopt;
  const auto ix = static_cast<std::size_t>(fx);
  const auto iy = static_cast<std::size_t>(fy);
  const auto iz = static_cast<std::size_t>(fz);
  if (ix >= spec_.nx || iy >= spec_.ny || iz >= spec_.nz) return std::nullopt;
  return (iz * spec_.ny + iy) * spec_.nx + ix;
}

void VoxelGrid3D::deposit(const util::Vec3& pos, double weight) noexcept {
  if (auto idx = index_of(pos)) data_[*idx] += weight;
}

void VoxelGrid3D::deposit_index(std::size_t flat_index,
                                double weight) noexcept {
  if (flat_index < data_.size()) data_[flat_index] += weight;
}

double VoxelGrid3D::at(std::size_t ix, std::size_t iy, std::size_t iz) const {
  if (ix >= spec_.nx || iy >= spec_.ny || iz >= spec_.nz) {
    throw std::out_of_range("VoxelGrid3D::at");
  }
  return data_[(iz * spec_.ny + iy) * spec_.nx + ix];
}

void VoxelGrid3D::merge(const VoxelGrid3D& other) {
  if (!(other.spec_ == spec_)) {
    throw std::invalid_argument("VoxelGrid3D::merge: spec mismatch");
  }
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
}

double VoxelGrid3D::total() const noexcept {
  double sum = 0.0;
  for (double v : data_) sum += v;
  return sum;
}

double VoxelGrid3D::max_value() const noexcept {
  double best = 0.0;
  for (double v : data_) best = std::max(best, v);
  return best;
}

util::Vec3 VoxelGrid3D::voxel_center(std::size_t flat) const noexcept {
  const std::size_t ix = flat % spec_.nx;
  const std::size_t iy = (flat / spec_.nx) % spec_.ny;
  const std::size_t iz = flat / (spec_.nx * spec_.ny);
  const double dx = (spec_.x_max - spec_.x_min) / static_cast<double>(spec_.nx);
  const double dy = (spec_.y_max - spec_.y_min) / static_cast<double>(spec_.ny);
  const double dz = (spec_.z_max - spec_.z_min) / static_cast<double>(spec_.nz);
  return {spec_.x_min + (static_cast<double>(ix) + 0.5) * dx,
          spec_.y_min + (static_cast<double>(iy) + 0.5) * dy,
          spec_.z_min + (static_cast<double>(iz) + 0.5) * dz};
}

void PathRecorder::record(const VoxelGrid3D& grid, const util::Vec3& pos,
                          double weight) noexcept {
  const auto idx = grid.index_of(pos);
  if (!idx) return;
  if (!entries_.empty() && entries_.back().voxel == *idx) {
    entries_.back().weight += weight;
    return;
  }
  entries_.push_back({*idx, weight});
}

void PathRecorder::commit(VoxelGrid3D& grid) const noexcept {
  for (const Entry& e : entries_) grid.deposit_index(e.voxel, e.weight);
}

}  // namespace phodis::mc
