// Unique request/job identifier generation. The paper's web service "creates
// a unique identifier for each request which is included as a part of the
// returned URL"; we generate deterministic, monotonically increasing ids per
// prefix so test output is stable.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

namespace nvo {

/// "prefix-" and n in decimal, zero-padded to at least six digits: the bytes
/// of printf("%s-%06llu", prefix, n).
std::string numbered_id(std::string_view prefix, std::uint64_t n);

/// Thread-safe generator producing "prefix-000001", "prefix-000002", ...
class IdGenerator {
 public:
  explicit IdGenerator(std::string prefix);

  /// Next id; safe to call from multiple threads.
  std::string next();

  /// Number of ids handed out so far.
  std::uint64_t count() const;

 private:
  std::string prefix_;
  // Atomic counter lives in the cpp to keep <atomic> out of the interface.
  struct Impl;
  std::shared_ptr<Impl> impl_;
};

}  // namespace nvo
