#include "sim/render_cache.hpp"

#include <bit>
#include <cstring>

#include "common/digest.hpp"

namespace nvo::sim {

void ContentHash::bytes(const void* data, std::size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    h_ ^= p[i];
    h_ *= 1099511628211ull;
  }
}

void ContentHash::u64(std::uint64_t v) { bytes(&v, sizeof v); }

void ContentHash::i32(std::int32_t v) { bytes(&v, sizeof v); }

void ContentHash::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

void ContentHash::text(std::string_view s) {
  u64(s.size());
  bytes(s.data(), s.size());
}

RenderCache& RenderCache::instance() {
  static RenderCache cache;
  return cache;
}

std::shared_ptr<const EncodedFrame> RenderCache::get_or_render(
    std::uint64_t key, const std::function<image::FitsFile()>& render) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = frames_.find(key);
    if (it != frames_.end()) {
      ++hits_;
      return it->second;
    }
    ++misses_;
  }
  auto stored = std::make_shared<EncodedFrame>();
  stored->fits = image::write_fits(render());
  stored->digest = content_digest(stored->fits);
  std::shared_ptr<const EncodedFrame> frame = std::move(stored);
  const std::size_t cost = frame->fits.size();
  std::lock_guard<std::mutex> lock(mu_);
  if (bytes_ + cost > byte_budget_ && !frames_.empty()) {
    frames_.clear();
    bytes_ = 0;
    ++clears_;
  }
  if (cost <= byte_budget_) {
    if (frames_.insert_or_assign(key, frame).second) bytes_ += cost;
  }
  return frame;
}

RenderCache::Stats RenderCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats out;
  out.hits = hits_;
  out.misses = misses_;
  out.clears = clears_;
  out.entries = frames_.size();
  out.bytes = bytes_;
  return out;
}

void RenderCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  frames_.clear();
  bytes_ = 0;
}

image::FitsFile decode_frame(const EncodedFrame& frame) {
  // The bytes are write_fits output, which read_fits always accepts.
  return image::read_fits(frame.fits).value();
}

}  // namespace nvo::sim
