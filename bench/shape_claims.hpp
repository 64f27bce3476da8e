// Shape claims of the paper-figure experiments (T1, F1-F7, A1, A2). Each
// program prints its EXPERIMENTS.md table and then checks the claim that
// EXPERIMENTS.md makes about the table's shape: orderings, counts and
// structure, never a simulated value, which a model change may legitimately
// move. `ctest -L experiments -V` runs all ten and shows their tables.
#pragma once

#include <cstdio>
#include <string>

namespace nvo::bench {

class ShapeClaims {
 public:
  /// Prints one `claim ok|FAILED: <claim>` line and records a failure.
  void check(bool holds, const std::string& claim) {
    std::printf("claim %s: %s\n", holds ? "ok" : "FAILED", claim.c_str());
    if (!holds) ++failures_;
  }

  /// main's exit status: 0 when every claim held.
  int exit_code() const { return failures_ == 0 ? 0 : 1; }

 private:
  int failures_ = 0;
};

}  // namespace nvo::bench
