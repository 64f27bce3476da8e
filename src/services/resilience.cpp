#include "services/resilience.hpp"

#include <algorithm>
#include <limits>
#include <optional>

#include "common/strings.hpp"

namespace nvo::services {

const char* to_string(BreakerState state) {
  switch (state) {
    case BreakerState::kClosed:
      return "closed";
    case BreakerState::kOpen:
      return "open";
    case BreakerState::kHalfOpen:
      return "half-open";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// CircuitBreaker
// ---------------------------------------------------------------------------

bool CircuitBreaker::allow(double now_ms) {
  if (state_ == BreakerState::kOpen) {
    if (now_ms - opened_at_ms_ >= policy_.cooldown_ms) {
      state_ = BreakerState::kHalfOpen;
      return true;
    }
    return false;
  }
  return true;
}

void CircuitBreaker::record_success() {
  consecutive_failures_ = 0;
  state_ = BreakerState::kClosed;
}

void CircuitBreaker::record_failure(double now_ms) {
  ++consecutive_failures_;
  if (state_ == BreakerState::kHalfOpen ||
      consecutive_failures_ >= policy_.failure_threshold) {
    trip(now_ms);
  }
}

void CircuitBreaker::trip(double now_ms) {
  if (state_ != BreakerState::kOpen) ++trips_;
  state_ = BreakerState::kOpen;
  opened_at_ms_ = now_ms;
  consecutive_failures_ = 0;
}

// ---------------------------------------------------------------------------
// ResilientClient
// ---------------------------------------------------------------------------

namespace {

/// Failures worth retrying / breaker-counting: the 503 class (down archives,
/// sampled transient faults) and client-side timeouts. Protocol-level errors
/// (bad parameters, genuinely missing data) are returned to the caller
/// unchanged — retrying a 404 only burns the deadline.
bool retryable(const Error& e) {
  return e.code == ErrorCode::kServiceUnavailable || e.code == ErrorCode::kTimeout ||
         e.code == ErrorCode::kDataCorruption;
}

}  // namespace

ResilientClient::ResilientClient(HttpFabric& fabric, RetryPolicy retry,
                                 BreakerPolicy breaker, const std::string& label)
    : fabric_(fabric),
      retry_(retry),
      breaker_policy_(breaker),
      // Seed lineage: the fabric's construction seed, mixed with the client
      // label — never the fabric's live generator, which would perturb the
      // fault-free request-jitter stream.
      jitter_rng_(fabric.seed() ^ hash64(label) ^ 0x5E11E47ull) {}

void ResilientClient::add_mirror(const std::string& host,
                                 const std::string& mirror_host) {
  mirrors_[host] = mirror_host;
}

ResilientClient::Endpoint& ResilientClient::endpoint(const std::string& host) {
  auto it = endpoints_.find(host);
  if (it == endpoints_.end()) {
    it = endpoints_.emplace(host, Endpoint{CircuitBreaker(breaker_policy_), {}}).first;
  }
  return it->second;
}

const EndpointStats* ResilientClient::stats_for(const std::string& host) const {
  const auto it = endpoints_.find(host);
  return it == endpoints_.end() ? nullptr : &it->second.stats;
}

EndpointStats ResilientClient::totals() const {
  EndpointStats sum;
  for (const auto& [host, ep] : endpoints_) {
    sum.attempts += ep.stats.attempts;
    sum.successes += ep.stats.successes;
    sum.failures += ep.stats.failures;
    sum.retries += ep.stats.retries;
    sum.breaker_trips += ep.stats.breaker_trips;
    sum.short_circuits += ep.stats.short_circuits;
    sum.failovers += ep.stats.failovers;
    sum.integrity_failures += ep.stats.integrity_failures;
    sum.quarantine_skips += ep.stats.quarantine_skips;
    sum.backoff_wait_ms += ep.stats.backoff_wait_ms;
  }
  return sum;
}

std::vector<std::string> ResilientClient::known_hosts() const {
  std::vector<std::string> hosts;
  hosts.reserve(endpoints_.size());
  for (const auto& [host, ep] : endpoints_) hosts.push_back(host);
  return hosts;
}

BreakerState ResilientClient::breaker_state(const std::string& host) const {
  const auto it = endpoints_.find(host);
  return it == endpoints_.end() ? BreakerState::kClosed : it->second.breaker.state();
}

Expected<HttpResponse> ResilientClient::get_from_host(const Url& url,
                                                      double deadline_ms,
                                                      Endpoint& ep) {
  // One canonical string per host: every attempt hands it to the fabric,
  // which signs against it, and verifies against it here.
  const std::string canonical = url.to_string();
  std::optional<Error> last;
  for (int attempt = 1; attempt <= retry_.max_attempts; ++attempt) {
    const double now = fabric_.now_ms();
    if (ctx_.cancelled()) {
      return Error(ErrorCode::kCancelled,
                   "request cancelled before attempt at " + url.host + url.path);
    }
    if (now >= deadline_ms) {
      return Error(ErrorCode::kTimeout,
                   "deadline exhausted before attempt at " + url.host + url.path);
    }
    if (!ep.breaker.allow(now)) {
      ++ep.stats.short_circuits;
      return Error(ErrorCode::kServiceUnavailable,
                   "circuit open for " + url.host + " (cooling down)");
    }

    ++ep.stats.attempts;
    if (attempt > 1) ++ep.stats.retries;
    auto response = fabric_.get(url, canonical);
    const double attempt_ms = fabric_.now_ms() - now;

    if (response.ok()) {
      const bool timed_out =
          retry_.attempt_timeout_ms > 0.0 && attempt_ms > retry_.attempt_timeout_ms;
      const bool server_error = response->status >= 500;
      // Post-transfer integrity check: a "successful" reply whose bytes do
      // not match the serve-time signature is a transport fault in disguise
      // (bit flip, short read, stale replica) and is retried like a 503.
      const bool corrupted = !timed_out && !server_error && retry_.verify_digests &&
                             integrity::payload_mismatch(*response, canonical);
      if (!timed_out && !server_error && !corrupted) {
        // Success — or a protocol-level reply (4xx) the caller must see.
        // Verified bytes also lift any standing quarantine on this replica.
        quarantine_.release(url.host, integrity::resource_key(url));
        ep.breaker.record_success();
        ++ep.stats.successes;
        return response;
      }
      if (corrupted) {
        ++ep.stats.integrity_failures;
        quarantine_.quarantine(url.host, integrity::resource_key(url),
                               fabric_.now_ms(), retry_.quarantine_ms);
        last = Error(ErrorCode::kDataCorruption,
                     format("payload digest mismatch at %s%s (%zu bytes)",
                            url.host.c_str(), url.path.c_str(),
                            response->body.size()));
      } else {
        last = timed_out
                   ? Error(ErrorCode::kTimeout,
                           format("attempt took %.0f ms (budget %.0f) at %s%s",
                                  attempt_ms, retry_.attempt_timeout_ms,
                                  url.host.c_str(), url.path.c_str()))
                   : Error(ErrorCode::kServiceUnavailable,
                           format("server error %d at %s%s", response->status,
                                  url.host.c_str(), url.path.c_str()));
      }
    } else if (!retryable(response.error())) {
      // Application-level miss (404 and friends): no breaker penalty, no
      // retry — hammering an endpoint for data it does not have is not a
      // fault-tolerance strategy.
      return response.error();
    } else {
      last = response.error();
    }

    const std::uint64_t trips_before = ep.breaker.trips();
    ep.breaker.record_failure(fabric_.now_ms());
    ep.stats.breaker_trips += ep.breaker.trips() - trips_before;
    ++ep.stats.failures;

    if (attempt == retry_.max_attempts) break;
    if (ep.breaker.state() == BreakerState::kOpen) break;  // no point waiting

    // Capped exponential backoff with seeded jitter, spent on the simulated
    // clock (and therefore visible in every elapsed-time account upstream).
    double wait = retry_.base_backoff_ms;
    for (int i = 1; i < attempt; ++i) wait *= retry_.backoff_multiplier;
    wait = std::min(wait, retry_.max_backoff_ms);
    if (retry_.jitter_fraction > 0.0) {
      wait *= 1.0 + retry_.jitter_fraction * (jitter_rng_.uniform() - 0.5);
    }
    // A backoff that would cross the deadline is clamped to the remaining
    // budget: the clock advances exactly to the deadline — elapsed-time
    // accounting upstream stays exact — and the timeout is reported AT the
    // deadline, never a full jittered backoff later.
    const double remaining = deadline_ms - fabric_.now_ms();
    if (wait >= remaining) {
      if (remaining > 0.0) {
        fabric_.advance_clock(remaining);
        ep.stats.backoff_wait_ms += remaining;
      }
      return Error(ErrorCode::kTimeout,
                   "retry deadline exhausted at " + url.host + url.path);
    }
    fabric_.advance_clock(wait);
    ep.stats.backoff_wait_ms += wait;
  }
  if (!last) return Error(ErrorCode::kServiceUnavailable, url.host + " unreachable");
  return *last;
}

Expected<HttpResponse> ResilientClient::get(const std::string& url_text) {
  const auto parsed = Url::parse(url_text);
  if (!parsed.ok()) return parsed.error();

  if (ctx_.cancelled()) {
    return Error(ErrorCode::kCancelled,
                 "request cancelled before fetch of " + url_text);
  }
  // The per-call deadline is the TIGHTER of the policy's own budget and the
  // request's remaining end-to-end budget: a request running out of SLO
  // must not spend a fresh full retry budget on one late fetch.
  const double deadline_ms =
      std::min(retry_.deadline_ms > 0.0
                   ? fabric_.now_ms() + retry_.deadline_ms
                   : std::numeric_limits<double>::infinity(),
               ctx_.budget.deadline_ms);

  Endpoint& primary = endpoint(parsed->host);
  const auto mirror = mirrors_.find(parsed->host);

  // Quarantine reroute: if this endpoint recently served bytes for this
  // resource that failed verification, do not re-trust it while the
  // quarantine lasts — go straight to the alternate archive/mirror.
  if (mirror != mirrors_.end() &&
      quarantine_.is_quarantined(parsed->host, integrity::resource_key(parsed.value()),
                                 fabric_.now_ms())) {
    quarantine_.count_skip();
    ++primary.stats.quarantine_skips;
    Url mirrored = parsed.value();
    mirrored.host = mirror->second;
    auto fallback = get_from_host(mirrored, deadline_ms, endpoint(mirror->second));
    if (fallback.ok()) {
      ++primary.stats.failovers;
      return fallback;
    }
    if (!retryable(fallback.error())) return fallback;
    // Mirror also unhealthy: fall through and give the primary its chance.
  }

  auto response = get_from_host(parsed.value(), deadline_ms, primary);
  if (response.ok()) return response;
  if (!retryable(response.error())) return response;

  // Failover: re-issue against the registered mirror, same path and query.
  if (mirror == mirrors_.end()) return response;
  Url mirrored = parsed.value();
  mirrored.host = mirror->second;
  auto fallback = get_from_host(mirrored, deadline_ms, endpoint(mirror->second));
  if (fallback.ok()) ++primary.stats.failovers;
  return fallback;
}

}  // namespace nvo::services
