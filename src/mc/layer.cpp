#include "mc/layer.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

namespace phodis::mc {

std::size_t LayeredMedium::layer_at(double z) const noexcept {
  // Linear scan: head models have ~5 layers, so this beats binary search
  // and keeps the common case branch-predictable.
  for (std::size_t i = 0; i + 1 < layers_.size(); ++i) {
    if (z < layers_[i].z1) return i;
  }
  return layers_.empty() ? 0 : layers_.size() - 1;
}

double LayeredMedium::bottom() const noexcept {
  return layers_.empty() ? 0.0 : layers_.back().z1;
}

bool LayeredMedium::semi_infinite() const noexcept {
  return !layers_.empty() && std::isinf(layers_.back().z1);
}

double LayeredMedium::neighbour_index(std::size_t i,
                                      bool downward) const noexcept {
  if (downward) {
    return i + 1 < layers_.size() ? layers_[i + 1].props.n : n_below_;
  }
  return i > 0 ? layers_[i - 1].props.n : n_above_;
}

double LayeredMedium::total_thickness() const noexcept {
  double total = 0.0;
  for (const auto& layer : layers_) {
    if (std::isfinite(layer.z1)) total = layer.z1;
  }
  return total;
}

LayeredMediumBuilder& LayeredMediumBuilder::ambient_above(double n) {
  if (!(n >= 1.0)) {
    throw std::invalid_argument("ambient_above: n must be >= 1");
  }
  medium_.n_above_ = n;
  return *this;
}

LayeredMediumBuilder& LayeredMediumBuilder::ambient_below(double n) {
  if (!(n >= 1.0)) {
    throw std::invalid_argument("ambient_below: n must be >= 1");
  }
  medium_.n_below_ = n;
  return *this;
}

LayeredMediumBuilder& LayeredMediumBuilder::add_layer(
    std::string name, const OpticalProperties& props, double thickness_mm) {
  if (closed_) {
    throw std::logic_error("add_layer after a semi-infinite layer");
  }
  if (!(thickness_mm > 0.0) || !std::isfinite(thickness_mm)) {
    throw std::invalid_argument("add_layer: thickness must be finite and > 0");
  }
  props.validate(name);
  Layer layer;
  layer.name = std::move(name);
  layer.props = props;
  layer.z0 = cursor_z_;
  layer.z1 = cursor_z_ + thickness_mm;
  cursor_z_ = layer.z1;
  medium_.layers_.push_back(std::move(layer));
  return *this;
}

LayeredMediumBuilder& LayeredMediumBuilder::add_semi_infinite_layer(
    std::string name, const OpticalProperties& props) {
  if (closed_) {
    throw std::logic_error("add_semi_infinite_layer called twice");
  }
  props.validate(name);
  Layer layer;
  layer.name = std::move(name);
  layer.props = props;
  layer.z0 = cursor_z_;
  layer.z1 = std::numeric_limits<double>::infinity();
  medium_.layers_.push_back(std::move(layer));
  closed_ = true;
  return *this;
}

LayeredMedium LayeredMediumBuilder::build() const {
  if (medium_.layers_.empty()) {
    throw std::logic_error("LayeredMediumBuilder: no layers added");
  }
  return medium_;
}

}  // namespace phodis::mc
