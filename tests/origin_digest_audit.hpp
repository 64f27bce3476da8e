// Test-only gate on origin signing: a handler that serves a stored payload
// hands the fabric the digest it recorded when it stored the bytes, and the
// fabric signs with it unchecked. Including this header in a test binary
// installs HttpFabric's origin-digest audit for the whole run: every
// supplied digest is compared with content_digest(body) before any chaos
// tamperer acts, and the run fails if one ever differs.
#pragma once

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>

#include "services/http.hpp"
#include "services/integrity.hpp"

class OriginDigestAudit : public ::testing::Environment {
 public:
  static std::uint64_t checked() { return checked_.load(); }
  static std::uint64_t mismatched() { return mismatched_.load(); }

  void SetUp() override { nvo::services::HttpFabric::set_origin_digest_audit(&audit); }
  void TearDown() override {
    nvo::services::HttpFabric::set_origin_digest_audit(nullptr);
    EXPECT_EQ(mismatched(), 0u) << "of " << checked()
                                << " origin digests, some differ from their body";
  }

 private:
  static void audit(const nvo::services::Url&, const nvo::services::HttpResponse& response) {
    checked_.fetch_add(1);
    if (response.origin_digest != nvo::services::integrity::content_digest(response.body)) {
      mismatched_.fetch_add(1);
    }
  }

  inline static std::atomic<std::uint64_t> checked_{0};
  inline static std::atomic<std::uint64_t> mismatched_{0};
};

inline ::testing::Environment* const kOriginDigestAudit =
    ::testing::AddGlobalTestEnvironment(new OriginDigestAudit);
