#include "common/ids.hpp"

#include <atomic>
#include <charconv>

namespace nvo {

struct IdGenerator::Impl {
  std::atomic<std::uint64_t> counter{0};
};

IdGenerator::IdGenerator(std::string prefix)
    : prefix_(std::move(prefix)), impl_(std::make_shared<Impl>()) {}

std::string numbered_id(std::string_view prefix, std::uint64_t n) {
  char digits[20];  // UINT64_MAX has 20 decimal digits
  const std::size_t len =
      static_cast<std::size_t>(std::to_chars(digits, digits + sizeof digits, n).ptr - digits);
  const std::size_t pad = len < 6 ? 6 - len : 0;
  std::string id;
  id.reserve(prefix.size() + 1 + pad + len);
  id.append(prefix).append(1, '-').append(pad, '0').append(digits, len);
  return id;
}

std::string IdGenerator::next() {
  return numbered_id(prefix_, impl_->counter.fetch_add(1, std::memory_order_relaxed) + 1);
}

std::uint64_t IdGenerator::count() const {
  return impl_->counter.load(std::memory_order_relaxed);
}

}  // namespace nvo
