#include "core/segmentation.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

namespace nvo::core {

namespace {

/// Flood-fill labeling, 4-connectivity, over the flat pixel array, with
/// membership decided by `pred(idx)`. One BFS queue shared by all
/// components (head index instead of pop_front), so a noisy frame with
/// hundreds of single-pixel components costs one allocation, not one per
/// component. Central source: brightest member pixel (by `px`) in the
/// centered box covering the middle `central_box_fraction` of each axis.
template <class Pred>
void label_components(int width, int height, const float* px, Pred pred,
                      double central_box_fraction, Segmentation& seg,
                      std::vector<std::uint32_t>& frontier) {
  seg.width = width;
  seg.height = height;
  seg.count = 0;
  seg.central = 0;
  const std::size_t n = static_cast<std::size_t>(width) * height;
  seg.labels.assign(n, 0);
  int* labels = seg.labels.data();
  // The frontier holds flat pixel indices (one 32-bit store per push); the
  // four neighbor offsets are resolved from the index's row position.
  for (std::size_t idx = 0; idx < n; ++idx) {
    if (labels[idx] != 0 || !pred(idx)) continue;
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
        if (labels[nidx] != 0 || !pred(nidx)) continue;
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

}  // namespace

Segmentation segment(const image::Image& img, double threshold,
                     double central_box_fraction) {
  Segmentation seg;
  std::vector<std::uint32_t> frontier;
  const float* px = img.data();
  const float thr = static_cast<float>(threshold);
  label_components(
      img.width(), img.height(), px,
      [px, thr](std::size_t idx) { return px[idx] >= thr; },
      central_box_fraction, seg, frontier);
  return seg;
}

image::Image mask_companions(const image::Image& img, double background_sigma,
                             double threshold_sigma, int dilate_pixels,
                             double deblend_sigma) {
  image::Image out = img;
  mask_companions_inplace(out, background_sigma, threshold_sigma, dilate_pixels,
                          deblend_sigma);
  return out;
}

void mask_companions_inplace(image::Image& img, double background_sigma,
                             double threshold_sigma, int dilate_pixels,
                             double deblend_sigma) {
  SegmentationScratch scratch;
  mask_companions_inplace(img, background_sigma, scratch, threshold_sigma,
                          dilate_pixels, deblend_sigma);
}

void mask_companions_inplace(image::Image& img, double background_sigma,
                             SegmentationScratch& scratch,
                             double threshold_sigma, int dilate_pixels,
                             double deblend_sigma) {
  const double threshold = std::max(threshold_sigma * background_sigma, 1e-6);
  const float* px = img.data();
  const float thr = static_cast<float>(threshold);
  Segmentation& seg = scratch.seg;
  // Membership is precomputed into a byte plane: the fill loop vectorizes,
  // and the BFS predicate becomes a byte load instead of a float compare.
  const std::size_t n = img.size();
  // Reserved for the frame, not its content: no queue or wavefront holds
  // more than n pixels, and 4-connected cores are at most n/2 + 1, so
  // scratch that has seen one frame of this size never grows for another.
  scratch.frontier.reserve(n);
  scratch.rim.reserve(n);
  scratch.peak_x.reserve(n / 2 + 2);
  scratch.peak_y.reserve(n / 2 + 2);
  scratch.peak_v.reserve(n / 2 + 2);
  scratch.above.resize(n);
  std::uint8_t* above = scratch.above.data();
  for (std::size_t i = 0; i < n; ++i) above[i] = px[i] >= thr ? 1 : 0;
  label_components(
      img.width(), img.height(), px,
      [above](std::size_t idx) { return above[idx] != 0; }, 0.3, seg,
      scratch.frontier);
  if (seg.central == 0) return;

  // Mark pixels of every non-central low-threshold component.
  scratch.mask.assign(n, 0);
  std::uint8_t* mask = scratch.mask.data();
  const int* labels = seg.labels.data();
  for (std::size_t i = 0; i < n; ++i) {
    mask[i] = (labels[i] != 0 && labels[i] != seg.central) ? 1 : 0;
  }

  // Deblend the central component: find high-threshold cores inside it.
  // The cores are the components of (label == central && value >= high) —
  // exactly the components a materialized central-only frame thresholded at
  // `high` would have, without building that frame.
  {
    const double high = std::max(deblend_sigma * background_sigma,
                                 10.0 * threshold / threshold_sigma);
    const float highf = static_cast<float>(high);
    const int central = seg.central;
    Segmentation& cores = scratch.cores;
    for (std::size_t i = 0; i < n; ++i) {
      above[i] = (labels[i] == central && px[i] >= highf) ? 1 : 0;
    }
    label_components(
        img.width(), img.height(), px,
        [above](std::size_t idx) { return above[idx] != 0; }, 0.3, cores,
        scratch.frontier);
    if (cores.count >= 2 && cores.central != 0) {
      // Peak position of each core.
      scratch.peak_x.assign(static_cast<std::size_t>(cores.count) + 1, 0.0);
      scratch.peak_y.assign(static_cast<std::size_t>(cores.count) + 1, 0.0);
      scratch.peak_v.assign(static_cast<std::size_t>(cores.count) + 1, -1e30f);
      auto& peak_x = scratch.peak_x;
      auto& peak_y = scratch.peak_y;
      auto& peak_v = scratch.peak_v;
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
      // Assign every central-component pixel to the nearest core; mask
      // pixels claimed by non-central cores.
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
  if (seg.count <= 1 &&
      std::find(scratch.mask.begin(), scratch.mask.end(), 1) ==
          scratch.mask.end()) {
    return;
  }
  // Wavefront dilation: each pass only visits the pixels masked in the
  // previous pass. Equivalent to re-scanning the whole mask each pass —
  // neighbor eligibility (bounds, central label) is static, so a pixel
  // masked two passes ago has already set every neighbor it ever will.
  {
    const int width = seg.width;
    scratch.frontier.clear();
    for (std::size_t i = 0; i < n; ++i) {
      if (mask[i]) scratch.frontier.push_back(static_cast<std::uint32_t>(i));
    }
    for (int pass = 0; pass < dilate_pixels && !scratch.frontier.empty();
         ++pass) {
      scratch.rim.clear();
      for (const std::uint32_t at : scratch.frontier) {
        const int cx = static_cast<int>(at % width);
        const bool has[4] = {cx > 0, cx + 1 < width,
                             at >= static_cast<std::uint32_t>(width),
                             at + width < n};
        const std::uint32_t nidx4[4] = {at - 1, at + 1,
                                        at - static_cast<std::uint32_t>(width),
                                        at + static_cast<std::uint32_t>(width)};
        for (int k = 0; k < 4; ++k) {
          if (!has[k]) continue;
          const std::uint32_t nidx = nidx4[k];
          // Never eat into the central component itself.
          if (mask[nidx] != 0 || labels[nidx] == seg.central) continue;
          mask[nidx] = 1;
          scratch.rim.push_back(nidx);
        }
      }
      std::swap(scratch.frontier, scratch.rim);
    }
  }

  float* dst = img.data();
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] = mask[i] ? 0.0f : dst[i];
  }
}

}  // namespace nvo::core
