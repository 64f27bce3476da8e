// In-process HTTP GET fabric: the transport beneath every simulated NVO
// service. The paper's interfaces are deliberately simple — "based on HTTP
// Get operations" (§3.1) — so the fabric models exactly that: URL in, typed
// response out, with a per-endpoint performance model (connection latency,
// bandwidth, failure rate, up/down state) that reproduces the WAN behaviour
// the prototype saw: per-request overhead dominating many-small-image
// workloads, and archives occasionally being down. Every successful
// response leaves the fabric signed (services/integrity.hpp): the fabric
// hashes the body, unless the handler serves an immutable payload it
// stored earlier and hands over the digest it recorded then, in which case
// the fabric only binds that digest to the URL. Chaos tampering acts after
// signing either way.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/expected.hpp"
#include "common/rng.hpp"
#include "obs/clock.hpp"

namespace nvo::services {

/// A parsed URL: scheme://host/path?query.
struct Url {
  std::string scheme = "http";
  std::string host;
  std::string path;                          ///< begins with '/'
  std::map<std::string, std::string> query;  ///< decoded key -> value

  /// The canonical form: keys and values percent-encoded, keys in sorted
  /// order. parse(to_string()) gives this Url back whenever `host` holds
  /// no '/' and `path` begins with '/' and holds no '?', which every
  /// parsed Url satisfies.
  std::string to_string() const;
  static Expected<Url> parse(const std::string& text);

  bool operator==(const Url&) const = default;

  /// Query parameter lookup.
  std::optional<std::string> param(const std::string& key) const;
  std::optional<double> param_double(const std::string& key) const;
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain";
  std::vector<std::uint8_t> body;
  double elapsed_ms = 0.0;  ///< simulated wall time for this request
  /// Serve-time integrity signature: content digest of `body` bound to the
  /// canonical request URL, attached by the fabric on every successful
  /// dispatch (see services/integrity.hpp). 0 means "unsigned" (hand-built
  /// fixture responses); verification treats unsigned as trivially valid.
  std::uint64_t digest = 0;
  /// Set by a handler that serves an immutable payload it stored earlier:
  /// the content digest of `body` it recorded when it stored the bytes.
  /// The fabric then binds it to the URL instead of re-hashing the body.
  /// 0 (the default) makes the fabric hash the body itself.
  std::uint64_t origin_digest = 0;

  std::string body_text() const { return std::string(body.begin(), body.end()); }
  static HttpResponse text(std::string_view s, const std::string& type = "text/plain");
  static HttpResponse binary(std::vector<std::uint8_t> bytes, const std::string& type);
};

/// Endpoint handler: path + query in, response out.
using Handler = std::function<Expected<HttpResponse>(const Url&)>;

/// Performance/fault model for one endpoint.
struct EndpointModel {
  double latency_ms = 50.0;         ///< per-request setup cost (the SIA killer)
  double bandwidth_mbps = 8.0;      ///< payload transfer rate
  double failure_rate = 0.0;        ///< probability of a 503 per request
  bool up = true;                   ///< hard down switch (archive outage)
};

/// Anything a protocol client can issue GETs through: the raw fabric or a
/// resilience wrapper (ResilientClient). Cone Search / SIA clients are
/// written against this interface so callers choose the tolerance layer.
class HttpChannel {
 public:
  virtual ~HttpChannel() = default;
  virtual Expected<HttpResponse> get(const std::string& url_text) = 0;
};

/// The fabric: a routing table plus metrics and the simulated clock.
/// Thread-safe: dispatch (routing, fault sampling, jitter draws, metric
/// charging) runs under an internal lock, so a fabric shared between the
/// portal thread and the compute-service pool keeps well-defined RNG draws
/// and per-route counters. Handlers run on the calling thread while the
/// lock is held; the lock is recursive so a handler may legitimately issue
/// nested fabric requests (service-to-service calls).
class HttpFabric : public HttpChannel {
 public:
  explicit HttpFabric(std::uint64_t seed = 7);

  /// Registers `handler` for all URLs on `host` whose path begins with
  /// `path_prefix` (longest prefix wins).
  void route(const std::string& host, const std::string& path_prefix, Handler handler,
             EndpointModel model = {});

  /// Toggles an endpoint's availability (e.g. "MAST is down").
  Status set_up(const std::string& host, const std::string& path_prefix, bool up);

  /// Issues a GET. On success the response's elapsed_ms includes the
  /// endpoint model's latency + transfer time. Parses `url_text` and
  /// delegates to the parsed-URL entry point below.
  Expected<HttpResponse> get(const std::string& url_text) override;

  /// Issues a GET for an already parsed URL. `canonical` must be
  /// `url.to_string()`: the response is signed against it, so a client that
  /// parsed the text once verifies against the same string without
  /// re-serializing. Routing, fault draws, signing and clock charges are
  /// those of the text entry point for the text `canonical`.
  Expected<HttpResponse> get(const Url& url, std::string_view canonical);

  /// Cumulative metrics. `failures` counts every unsuccessful request:
  /// sampled 503s, hard-down endpoints (`up == false`), handler errors,
  /// and unrouted requests (the latter also itemized in `unrouted`).
  struct Metrics {
    std::uint64_t requests = 0;
    std::uint64_t failures = 0;
    std::uint64_t unrouted = 0;           ///< no service matched the URL
    std::uint64_t hard_down = 0;          ///< endpoint was switched off
    std::uint64_t transient_failures = 0; ///< sampled 503s
    std::uint64_t corruptions_injected = 0; ///< responses tampered post-handler
    std::uint64_t bytes_transferred = 0;
    double total_elapsed_ms = 0.0;
  };
  Metrics metrics() const;
  /// Zeroes the cumulative counters (process-wide and per-route). Does NOT
  /// touch the simulated clock: now_ms() is monotonic across resets, so
  /// circuit-breaker cool-downs and chaos fault windows keep their phase.
  /// (Historically the clock WAS metrics_.total_elapsed_ms, and resetting
  /// metrics rewound time — see obs/clock.hpp.)
  void reset_metrics();

  /// Per-route metrics breakdown (same counters, scoped to one endpoint).
  /// Returns nullopt when no such route is registered; `unrouted` is always
  /// zero here (an unrouted request has no route to charge).
  std::optional<Metrics> metrics_for(const std::string& host,
                                     const std::string& path_prefix) const;

  /// Every registered (host, path_prefix) pair, in registration order —
  /// lets the metrics bridge enumerate per-route counters.
  std::vector<std::pair<std::string, std::string>> route_keys() const;

  /// The fabric's simulated clock: monotonic simulated milliseconds spent
  /// in requests (and injected waits). Drives retry backoff deadlines,
  /// circuit-breaker cool-downs, and chaos fault windows. Unlike the
  /// metrics counters, the clock survives reset_metrics().
  double now_ms() const { return clock_.now_ms(); }

  /// The underlying monotonic clock — attach it to an obs::Tracer to get
  /// the simulated timeline alongside wall time.
  const obs::SimClock& sim_clock() const { return clock_; }

  /// Advances the simulated clock without issuing a request (retry backoff
  /// sleeps). The wait is accounted into total_elapsed_ms like any other
  /// simulated cost.
  void advance_clock(double ms);

  /// The construction seed; resilience wrappers derive their jitter streams
  /// from this lineage (without consuming this fabric's own generator, so
  /// installing a wrapper does not perturb the fault-free request timings).
  std::uint64_t seed() const { return seed_; }

  /// Fault injector hook (the chaos harness): called per request with the
  /// target URL, the route's configured model, and the simulated clock;
  /// returns an overriding model for this request, or nullopt to pass
  /// through unchanged.
  using FaultInjector =
      std::function<std::optional<EndpointModel>(const Url&, const EndpointModel&,
                                                 double now_ms)>;
  void set_fault_injector(FaultInjector injector) {
    std::lock_guard lock(mu_);
    injector_ = std::move(injector);
  }

  /// Origin-digest audit, a process-wide test seam: when installed, every
  /// fabric calls it with each response whose handler supplied an
  /// origin_digest, after signing and before any tamperer acts. Test
  /// binaries install it once, before any request, to check each supplied
  /// digest against the body it came with. It must not alter the response.
  using OriginDigestAudit = void (*)(const Url&, const HttpResponse&);
  static void set_origin_digest_audit(OriginDigestAudit audit);

  /// Response tamperer hook (the chaos corruption harness): called after a
  /// handler succeeds and the response has been signed, with the fabric's
  /// RNG for seeded corruption draws. Returns true when it actually altered
  /// the response (counted in Metrics::corruptions_injected). The hook MUST
  /// only consume RNG draws for requests matching an active corruption
  /// window, so a schedule without corruption leaves the fault-free request
  /// timings bit-identical.
  using ResponseTamperer =
      std::function<bool(const Url&, HttpResponse&, double now_ms, Rng& rng)>;
  void set_response_tamperer(ResponseTamperer tamperer) {
    std::lock_guard lock(mu_);
    tamperer_ = std::move(tamperer);
  }

 private:
  struct Route {
    std::string host;
    std::string path_prefix;
    Handler handler;
    EndpointModel model;
    Metrics metrics;
  };
  Route* find_route(const Url& url);
  void charge_elapsed(double ms);  ///< metrics + clock together (locked)

  /// Recursive so a handler running under dispatch can issue nested GETs.
  mutable std::recursive_mutex mu_;
  std::vector<Route> routes_;
  std::uint64_t seed_;
  Rng rng_;
  Metrics metrics_;
  obs::SimClock clock_;
  FaultInjector injector_;
  ResponseTamperer tamperer_;
};

}  // namespace nvo::services
