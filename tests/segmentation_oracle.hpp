// The breadth-first companion masking that core::mask_companions_inplace
// replaced, kept as the oracle for its row-run labeler. Two flood-fill
// labelings over full int label maps: one at the detection threshold, one
// over the central component's high-threshold cores. Components are numbered
// in raster order of their first pixel, the central source is the brightest
// labeled pixel of the centered box, and the mask is dilated wavefront by
// wavefront. The production masking must reproduce its frames byte for byte.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "image/image.hpp"

namespace nvo::core::oracle {

/// Connected-component labels, 4-neighbor connectivity. Label 0 = below
/// threshold; components are 1..count.
struct Segmentation {
  std::vector<int> labels;  ///< row-major, size = width*height
  int width = 0;
  int height = 0;
  int count = 0;
  int central = 0;  ///< label of the central source (0 = none found)

  int label_at(int x, int y) const {
    return labels[static_cast<std::size_t>(y) * width + x];
  }
};

/// Flood-fill labeling over the flat pixel array, membership `above[idx]`.
/// Central source: brightest member pixel (by `px`) in the centered box
/// covering the middle `central_box_fraction` of each axis.
inline void label_components(int width, int height, const float* px,
                             const std::uint8_t* above, double central_box_fraction,
                             Segmentation& seg) {
  seg.width = width;
  seg.height = height;
  seg.count = 0;
  seg.central = 0;
  const std::size_t n = static_cast<std::size_t>(width) * height;
  seg.labels.assign(n, 0);
  int* labels = seg.labels.data();
  std::vector<std::uint32_t> frontier;
  for (std::size_t idx = 0; idx < n; ++idx) {
    if (labels[idx] != 0 || above[idx] == 0) continue;
    const int label = ++seg.count;
    frontier.clear();
    frontier.push_back(static_cast<std::uint32_t>(idx));
    labels[idx] = label;
    for (std::size_t head = 0; head < frontier.size(); ++head) {
      const std::uint32_t at = frontier[head];
      const int cx = static_cast<int>(at % width);
      const bool has[4] = {cx > 0, cx + 1 < width, at >= static_cast<std::uint32_t>(width),
                           at + width < n};
      const std::uint32_t nidx4[4] = {at - 1, at + 1,
                                      at - static_cast<std::uint32_t>(width),
                                      at + static_cast<std::uint32_t>(width)};
      for (int k = 0; k < 4; ++k) {
        if (!has[k]) continue;
        const std::uint32_t nidx = nidx4[k];
        if (labels[nidx] != 0 || above[nidx] == 0) continue;
        labels[nidx] = label;
        frontier.push_back(nidx);
      }
    }
  }

  const int bx = static_cast<int>(width * (1.0 - central_box_fraction) / 2.0);
  const int by = static_cast<int>(height * (1.0 - central_box_fraction) / 2.0);
  float best = -1e30f;
  for (int y = by; y < height - by; ++y) {
    const std::size_t row = static_cast<std::size_t>(y) * width;
    for (int x = bx; x < width - bx; ++x) {
      if (labels[row + x] == 0) continue;
      if (px[row + x] > best) {
        best = px[row + x];
        seg.central = labels[row + x];
      }
    }
  }
}

/// Zeroes every pixel of every non-central component (and of every
/// non-central deblended core of the central one), dilated by
/// `dilate_pixels` without eating into the central component.
inline void mask_companions(image::Image& img, double background_sigma,
                            double threshold_sigma = 2.0, int dilate_pixels = 2,
                            double deblend_sigma = 10.0) {
  const double threshold = std::max(threshold_sigma * background_sigma, 1e-6);
  const float* px = img.data();
  const float thr = static_cast<float>(threshold);
  const std::size_t n = img.size();
  std::vector<std::uint8_t> above(n);
  for (std::size_t i = 0; i < n; ++i) above[i] = px[i] >= thr ? 1 : 0;
  Segmentation seg;
  label_components(img.width(), img.height(), px, above.data(), 0.3, seg);
  if (seg.central == 0) return;

  std::vector<std::uint8_t> mask(n, 0);
  const int* labels = seg.labels.data();
  for (std::size_t i = 0; i < n; ++i) {
    mask[i] = (labels[i] != 0 && labels[i] != seg.central) ? 1 : 0;
  }

  // Deblend: the high-threshold cores inside the central component.
  {
    const double high = std::max(deblend_sigma * background_sigma,
                                 10.0 * threshold / threshold_sigma);
    const float highf = static_cast<float>(high);
    for (std::size_t i = 0; i < n; ++i) {
      above[i] = (labels[i] == seg.central && px[i] >= highf) ? 1 : 0;
    }
    Segmentation cores;
    label_components(img.width(), img.height(), px, above.data(), 0.3, cores);
    if (cores.count >= 2 && cores.central != 0) {
      std::vector<double> peak_x(static_cast<std::size_t>(cores.count) + 1, 0.0);
      std::vector<double> peak_y(static_cast<std::size_t>(cores.count) + 1, 0.0);
      std::vector<float> peak_v(static_cast<std::size_t>(cores.count) + 1, -1e30f);
      for (int y = 0; y < seg.height; ++y) {
        for (int x = 0; x < seg.width; ++x) {
          const int c = cores.label_at(x, y);
          if (c == 0) continue;
          const float v = px[static_cast<std::size_t>(y) * seg.width + x];
          if (v > peak_v[static_cast<std::size_t>(c)]) {
            peak_v[static_cast<std::size_t>(c)] = v;
            peak_x[static_cast<std::size_t>(c)] = x;
            peak_y[static_cast<std::size_t>(c)] = y;
          }
        }
      }
      for (int y = 0; y < seg.height; ++y) {
        for (int x = 0; x < seg.width; ++x) {
          if (seg.label_at(x, y) != seg.central) continue;
          int best_core = 0;
          double best_d2 = 1e300;
          for (int c = 1; c <= cores.count; ++c) {
            const double dx = x - peak_x[static_cast<std::size_t>(c)];
            const double dy = y - peak_y[static_cast<std::size_t>(c)];
            const double d2 = dx * dx + dy * dy;
            if (d2 < best_d2) {
              best_d2 = d2;
              best_core = c;
            }
          }
          if (best_core != cores.central) {
            mask[static_cast<std::size_t>(y) * seg.width + x] = 1;
          }
        }
      }
    }
  }
  if (seg.count <= 1 && std::find(mask.begin(), mask.end(), 1) == mask.end()) {
    return;
  }
  // Wavefront dilation: each pass visits only the pixels the previous pass
  // masked, and never masks a central-component pixel.
  {
    const int width = seg.width;
    std::vector<std::uint32_t> frontier;
    std::vector<std::uint32_t> rim;
    for (std::size_t i = 0; i < n; ++i) {
      if (mask[i]) frontier.push_back(static_cast<std::uint32_t>(i));
    }
    for (int pass = 0; pass < dilate_pixels && !frontier.empty(); ++pass) {
      rim.clear();
      for (const std::uint32_t at : frontier) {
        const int cx = static_cast<int>(at % width);
        const bool has[4] = {cx > 0, cx + 1 < width,
                             at >= static_cast<std::uint32_t>(width), at + width < n};
        const std::uint32_t nidx4[4] = {at - 1, at + 1,
                                        at - static_cast<std::uint32_t>(width),
                                        at + static_cast<std::uint32_t>(width)};
        for (int k = 0; k < 4; ++k) {
          if (!has[k]) continue;
          const std::uint32_t nidx = nidx4[k];
          if (mask[nidx] != 0 || labels[nidx] == seg.central) continue;
          mask[nidx] = 1;
          rim.push_back(nidx);
        }
      }
      std::swap(frontier, rim);
    }
  }

  float* dst = img.data();
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] = mask[i] ? 0.0f : dst[i];
  }
}

}  // namespace nvo::core::oracle
