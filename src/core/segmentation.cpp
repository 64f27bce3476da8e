#include "core/segmentation.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <vector>

#include "core/lanes.hpp"

namespace nvo::core {

namespace {

using lanes::f64x4;
using lanes::mask64x4;

/// The central source's brightest pixel must lie in the centered box
/// covering this fraction of each axis.
constexpr double kCentralBoxFraction = 0.3;

/// Appends the runs of row `y` whose pixels are at or above `thr`, left to
/// right. The row's membership is packed into 64-bit words (bit i of word k
/// is column 64k + i), and a run starts or ends wherever a bit differs from
/// the one before it, so the loop visits runs, not pixels. `bytes` holds the
/// row's membership bytes, padded to whole words; the bytes past the row
/// stay zero.
void append_row_runs(const float* row, int y, int width, float thr, std::uint8_t* bytes,
                     std::vector<PixelRun>& runs) {
  for (int x = 0; x < width; ++x) bytes[x] = row[x] >= thr ? 1 : 0;
  bool open = false;
  int start = 0;
  std::uint64_t carry = 0;  // the previous word's last bit
  const std::size_t words = (static_cast<std::size_t>(width) + 63) / 64;
  for (std::size_t k = 0; k < words; ++k) {
    std::uint64_t bits = 0;
    for (int c = 0; c < 8; ++c) {
      std::uint64_t chunk = 0;
      std::memcpy(&chunk, bytes + 64 * k + 8 * c, sizeof chunk);
      // Eight 0/1 bytes to eight bits: the product's top byte gathers
      // byte i into bit i.
      bits |= ((chunk * 0x0102040810204080ull) >> 56) << (8 * c);
    }
    std::uint64_t edges = bits ^ ((bits << 1) | carry);
    carry = bits >> 63;
    while (edges != 0) {
      const int x = static_cast<int>(64 * k) + std::countr_zero(edges);
      edges &= edges - 1;
      if (open) runs.push_back({y, start, x});
      start = x;
      open = !open;
    }
  }
  if (open) runs.push_back({y, start, width});
}

/// Appends the runs of columns [x0, x1) of row `y` whose pixels are at or
/// above `thr`, left to right.
void append_span_runs(const float* row, int y, int x0, int x1, float thr,
                      std::vector<PixelRun>& runs) {
  int x = x0;
  while (x < x1) {
    while (x < x1 && !(row[x] >= thr)) ++x;
    if (x == x1) break;
    const int start = x;
    while (x < x1 && row[x] >= thr) ++x;
    runs.push_back({y, start, x});
  }
}

/// Labels the 4-connected components of `runs` (raster order): two runs
/// touch when their rows are adjacent and they share a column. Union-find
/// always links the later root under the earlier one, so a component's root
/// is its first run, the one holding its first pixel in raster order, and
/// numbering the roots in run order numbers the components as a raster-order
/// flood fill does. `labels` holds the parent links until the final pass
/// turns them into component numbers 1..count; returns count.
std::uint32_t label_runs(const std::vector<PixelRun>& runs,
                         std::vector<std::uint32_t>& labels) {
  const auto n = static_cast<std::uint32_t>(runs.size());
  labels.resize(n);
  std::uint32_t* parent = labels.data();
  const PixelRun* run = runs.data();
  const auto find = [parent](std::uint32_t r) {
    while (parent[r] != r) {
      parent[r] = parent[parent[r]];
      r = parent[r];
    }
    return r;
  };
  std::uint32_t prev_begin = 0;  // the previous row's runs
  std::uint32_t prev_end = 0;
  for (std::uint32_t begin = 0; begin < n;) {
    const int y = run[begin].y;
    std::uint32_t end = begin;
    for (; end < n && run[end].y == y; ++end) parent[end] = end;
    if (prev_end > prev_begin && run[prev_begin].y == y - 1) {
      // Sweep both rows left to right, always stepping past the run that
      // ends first: it cannot touch anything further right in the other row.
      std::uint32_t i = prev_begin;
      std::uint32_t j = begin;
      while (i < prev_end && j < end) {
        if (run[i].x0 < run[j].x1 && run[j].x0 < run[i].x1) {
          const std::uint32_t a = find(i);
          const std::uint32_t b = find(j);
          parent[std::max(a, b)] = std::min(a, b);
        }
        if (run[i].x1 < run[j].x1) {
          ++i;
        } else {
          ++j;
        }
      }
    }
    prev_begin = begin;
    prev_end = end;
    begin = end;
  }
  // Every non-root's parent is an earlier run, already numbered.
  std::uint32_t count = 0;
  for (std::uint32_t r = 0; r < n; ++r) {
    labels[r] = parent[r] == r ? ++count : labels[parent[r]];
  }
  return count;
}

/// Component of the brightest run pixel inside the central box (the first
/// in raster order on ties), or 0 when no run crosses the box.
std::uint32_t central_component(const float* px, int width, int height,
                                const std::vector<PixelRun>& runs,
                                const std::vector<std::uint32_t>& labels) {
  const int bx = static_cast<int>(width * (1.0 - kCentralBoxFraction) / 2.0);
  const int by = static_cast<int>(height * (1.0 - kCentralBoxFraction) / 2.0);
  float best = -1e30f;
  std::uint32_t central = 0;
  const auto first = std::partition_point(
      runs.begin(), runs.end(), [by](const PixelRun& run) { return run.y < by; });
  for (auto it = first; it != runs.end() && it->y < height - by; ++it) {
    const float* row = px + static_cast<std::size_t>(it->y) * width;
    const int xa = std::max(it->x0, bx);
    const int xb = std::min(it->x1, width - bx);
    for (int x = xa; x < xb; ++x) {
      if (row[x] > best) {
        best = row[x];
        central = labels[static_cast<std::size_t>(it - runs.begin())];
      }
    }
  }
  return central;
}

/// Marks in `mask_row` the pixels of `run` whose nearest core peak is not
/// `keep`: the squared distance to each peak in turn, the first strictly
/// smallest winning, four columns at a time (the lanes past the run's end
/// are computed and ignored). Returns whether it marked any.
bool mask_foreign_cores(const PixelRun& run, const double* peak_x, const double* peak_y,
                        std::uint32_t core_count, std::uint32_t keep,
                        std::uint8_t* mask_row) {
  bool marked = false;
  for (int x = run.x0; x < run.x1; x += 4) {
    const f64x4 xs = static_cast<double>(x) + lanes::kLaneIndex;
    f64x4 best_d2 = {1e300, 1e300, 1e300, 1e300};
    mask64x4 best = {};
    for (std::uint32_t c = 1; c <= core_count; ++c) {
      const f64x4 dx = xs - peak_x[c];
      const double dy = run.y - peak_y[c];
      const f64x4 d2 = dx * dx + dy * dy;
      const mask64x4 nearer = d2 < best_d2;
      best_d2 = nearer ? d2 : best_d2;
      best = nearer ? mask64x4{} + c : best;
    }
    const int lanes_in_run = std::min(4, run.x1 - x);
    for (int j = 0; j < lanes_in_run; ++j) {
      if (best[j] != keep) {
        mask_row[x + j] = 1;
        marked = true;
      }
    }
  }
  return marked;
}

}  // namespace

void mask_companions_inplace(image::Image& img, double background_sigma,
                             SegmentationScratch& scratch,
                             double threshold_sigma, int dilate_pixels,
                             double deblend_sigma) {
  const double threshold = std::max(threshold_sigma * background_sigma, 1e-6);
  const float thr = static_cast<float>(threshold);
  const int width = img.width();
  const int height = img.height();
  const std::size_t n = img.size();
  const float* px = img.data();
  // Everything is reserved for the frame, not its content, before the first
  // early return: scratch that has seen one frame of this size never grows.
  const std::size_t max_runs = static_cast<std::size_t>(height) * ((width + 1) / 2);
  const std::size_t plane = n + 2 * static_cast<std::size_t>(width);
  const std::size_t row_bytes = 64 * ((static_cast<std::size_t>(width) + 63) / 64);
  scratch.row_bytes.reserve(row_bytes);
  scratch.central.reserve(n);
  scratch.mask.reserve(plane);
  scratch.grown.reserve(plane);
  scratch.runs.reserve(max_runs);
  scratch.labels.reserve(max_runs);
  scratch.core_runs.reserve(max_runs);
  scratch.core_labels.reserve(max_runs);
  scratch.peak_x.reserve(max_runs + 1);
  scratch.peak_y.reserve(max_runs + 1);
  scratch.peak_v.reserve(max_runs + 1);

  auto& runs = scratch.runs;
  runs.clear();
  scratch.row_bytes.assign(row_bytes, 0);
  for (int y = 0; y < height; ++y) {
    append_row_runs(px + static_cast<std::size_t>(y) * width, y, width, thr,
                    scratch.row_bytes.data(), runs);
  }
  const std::uint32_t count = label_runs(runs, scratch.labels);
  const std::uint32_t central = central_component(px, width, height, runs, scratch.labels);
  if (central == 0) return;

  // Membership planes: the central component, and the pixels of every other
  // component. The mask carries a zero row above and below the frame, so a
  // dilation pass reads both vertical neighbors of every pixel unguarded.
  scratch.central.assign(n, 0);
  scratch.mask.assign(plane, 0);
  std::uint8_t* in_central = scratch.central.data();
  std::uint8_t* mask = scratch.mask.data() + width;
  for (std::size_t r = 0; r < runs.size(); ++r) {
    std::uint8_t* plane = scratch.labels[r] == central ? in_central : mask;
    std::memset(plane + static_cast<std::size_t>(runs[r].y) * width + runs[r].x0, 1,
                static_cast<std::size_t>(runs[r].x1 - runs[r].x0));
  }

  // Deblend the central component: its high-threshold cores are the
  // components of its pixels at or above `high`, found by re-thresholding
  // only its own runs.
  bool deblended = false;
  {
    const double high = std::max(deblend_sigma * background_sigma,
                                 10.0 * threshold / threshold_sigma);
    const float highf = static_cast<float>(high);
    auto& cores = scratch.core_runs;
    cores.clear();
    for (std::size_t r = 0; r < runs.size(); ++r) {
      if (scratch.labels[r] != central) continue;
      append_span_runs(px + static_cast<std::size_t>(runs[r].y) * width, runs[r].y,
                       runs[r].x0, runs[r].x1, highf, cores);
    }
    const std::uint32_t core_count = label_runs(cores, scratch.core_labels);
    const std::uint32_t central_core =
        central_component(px, width, height, cores, scratch.core_labels);
    if (core_count >= 2 && central_core != 0) {
      // Peak of each core: its brightest pixel, the first in raster order.
      scratch.peak_x.assign(static_cast<std::size_t>(core_count) + 1, 0.0);
      scratch.peak_y.assign(static_cast<std::size_t>(core_count) + 1, 0.0);
      scratch.peak_v.assign(static_cast<std::size_t>(core_count) + 1, -1e30f);
      for (std::size_t r = 0; r < cores.size(); ++r) {
        const std::uint32_t c = scratch.core_labels[r];
        const float* row = px + static_cast<std::size_t>(cores[r].y) * width;
        for (int x = cores[r].x0; x < cores[r].x1; ++x) {
          if (row[x] > scratch.peak_v[c]) {
            scratch.peak_v[c] = row[x];
            scratch.peak_x[c] = x;
            scratch.peak_y[c] = cores[r].y;
          }
        }
      }
      // Assign every central pixel to the nearest peak (the lowest-numbered
      // core on ties); mask the pixels claimed by non-central cores.
      for (std::size_t r = 0; r < runs.size(); ++r) {
        if (scratch.labels[r] != central) continue;
        deblended |= mask_foreign_cores(runs[r], scratch.peak_x.data(),
                                        scratch.peak_y.data(), core_count, central_core,
                                        mask + static_cast<std::size_t>(runs[r].y) * width);
      }
    }
  }
  if (count <= 1 && !deblended) return;

  // Dilation: each pass masks every pixel outside the central component with
  // a masked 4-neighbor, reading the previous pass's plane and writing the
  // other one. The pass runs over the frame as one flat array, so it is one
  // branchless byte sweep; the first and last pixel of each row, whose flat
  // left or right neighbor sits on the adjacent row, are then redone.
  scratch.grown.assign(plane, 0);
  std::uint8_t* next = scratch.grown.data() + width;
  const auto total = static_cast<std::ptrdiff_t>(n);
  const std::ptrdiff_t w = width;
  for (int pass = 0; pass < dilate_pixels; ++pass) {
    const auto grow = [&](std::ptrdiff_t i, int sideways) {
      next[i] = static_cast<std::uint8_t>(
          mask[i] | ((sideways | mask[i - w] | mask[i + w]) & (in_central[i] ^ 1)));
    };
    for (std::ptrdiff_t i = 0; i < total; ++i) grow(i, mask[i - 1] | mask[i + 1]);
    for (std::ptrdiff_t row = 0; row < total; row += w) {
      const std::ptrdiff_t last = row + w - 1;
      grow(row, w > 1 ? mask[row + 1] : 0);
      if (w > 1) grow(last, mask[last - 1]);
    }
    std::swap(mask, next);
  }

  float* dst = img.data();
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] = mask[i] ? 0.0f : dst[i];
  }
}

}  // namespace nvo::core
