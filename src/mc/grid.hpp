// Voxel scoring grids.
//
// Two tallies share VoxelGrid3D storage:
//  * fluence/absorption grid — every weight deposit from every photon
//    (Fig. 4's picture of where light goes in the layered head);
//  * path-visit grid — deposits from *detected* photons only, committed
//    retroactively when the photon reaches the detector (Fig. 3's banana).
//    PathRecorder buffers a photon's deposits until its fate is known.
//
// The grid resolution is the paper's "user defined granularity of results";
// Fig. 3 uses 50^3.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <vector>

#include "util/bytes.hpp"
#include "util/vec3.hpp"

namespace phodis::mc {

struct GridSpec {
  double x_min = -25.0, x_max = 25.0;  ///< [mm]
  double y_min = -25.0, y_max = 25.0;  ///< [mm]
  double z_min = 0.0, z_max = 50.0;    ///< [mm]
  std::size_t nx = 50, ny = 50, nz = 50;

  /// Throws std::invalid_argument unless every extent is positive and
  /// the grid holds 1..2^31 voxels (checked without overflow).
  void validate() const;
  /// nx*ny*nz; exact only for a spec that passes validate().
  std::size_t voxel_count() const noexcept { return nx * ny * nz; }
  double voxel_volume_mm3() const noexcept;

  bool operator==(const GridSpec&) const = default;

  /// Cubic grid of n^3 voxels centred on x=y=0 spanning [0, depth] in z and
  /// [-half_width, half_width] in x and y.
  static GridSpec cube(std::size_t n, double half_width_mm, double depth_mm);

  void serialize(util::ByteWriter& writer) const;
  static GridSpec deserialize(util::ByteReader& reader);
};

/// Dense 3-D accumulation grid. Mergeable (for distributed partial results)
/// and flat-indexed (ix fastest) so the buffer can be serialised directly.
class VoxelGrid3D {
 public:
  explicit VoxelGrid3D(const GridSpec& spec);

  /// Flat index of the voxel containing `pos`, or nullopt when outside.
  std::optional<std::size_t> index_of(const util::Vec3& pos) const noexcept;

  /// Deposit `weight` at `pos`; silently ignored outside the grid (photons
  /// legitimately wander beyond any finite scoring window).
  void deposit(const util::Vec3& pos, double weight) noexcept;
  void deposit_index(std::size_t flat_index, double weight) noexcept;

  double at(std::size_t ix, std::size_t iy, std::size_t iz) const;
  double at_flat(std::size_t flat) const { return data_.at(flat); }

  void merge(const VoxelGrid3D& other);

  const GridSpec& spec() const noexcept { return spec_; }
  const std::vector<double>& data() const noexcept { return data_; }
  std::vector<double>& mutable_data() noexcept { return data_; }

  double total() const noexcept;
  double max_value() const noexcept;

  /// Voxel centre position for a flat index.
  util::Vec3 voxel_center(std::size_t flat) const noexcept;

 private:
  GridSpec spec_;
  double inv_dx_, inv_dy_, inv_dz_;
  std::vector<double> data_;
};

/// Per-photon deposit buffer: records (voxel, weight) pairs along one
/// photon's path, then either commits them to a grid (photon detected) or
/// is discarded (photon lost). Consecutive deposits to the same voxel are
/// coalesced, which shrinks the buffer ~µt·voxel_size-fold.
class PathRecorder {
 public:
  void record(const VoxelGrid3D& grid, const util::Vec3& pos,
              double weight) noexcept;
  void commit(VoxelGrid3D& grid) const noexcept;
  void clear() noexcept { entries_.clear(); }
  std::size_t size() const noexcept { return entries_.size(); }
  bool empty() const noexcept { return entries_.empty(); }

 private:
  struct Entry {
    std::size_t voxel;
    double weight;
  };
  std::vector<Entry> entries_;
};

}  // namespace phodis::mc
