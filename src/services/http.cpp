#include "services/http.hpp"

#include <algorithm>
#include <atomic>

#include "common/strings.hpp"
#include "services/integrity.hpp"

namespace nvo::services {

namespace {

int hex_value(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

std::string url_decode(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '%' && i + 2 < s.size()) {
      const int hi = hex_value(s[i + 1]);
      const int lo = hex_value(s[i + 2]);
      if (hi >= 0 && lo >= 0) {
        out += static_cast<char>(hi * 16 + lo);
        i += 2;
        continue;
      }
    }
    out += s[i] == '+' ? ' ' : s[i];
  }
  return out;
}

/// Appends `s` percent-encoded: every byte outside the unreserved set
/// (and ',') becomes %XX.
void append_encoded(std::string& out, std::string_view s) {
  static constexpr char kHex[] = "0123456789ABCDEF";
  for (const char c : s) {
    const bool safe = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '-' || c == '_' || c == '.' ||
                      c == '~' || c == ',';
    if (safe) {
      out += c;
    } else {
      const auto byte = static_cast<unsigned char>(c);
      out += '%';
      out += kHex[byte >> 4];
      out += kHex[byte & 0xF];
    }
  }
}

std::atomic<HttpFabric::OriginDigestAudit> g_origin_audit{nullptr};

}  // namespace

void HttpFabric::set_origin_digest_audit(OriginDigestAudit audit) {
  g_origin_audit.store(audit, std::memory_order_release);
}

std::string Url::to_string() const {
  std::string out = scheme + "://" + host + path;
  bool first = true;
  for (const auto& [k, v] : query) {
    out += first ? '?' : '&';
    first = false;
    append_encoded(out, k);
    out += '=';
    append_encoded(out, v);
  }
  return out;
}

Expected<Url> Url::parse(const std::string& text) {
  Url url;
  std::string_view rest = text;
  const std::size_t scheme_end = rest.find("://");
  if (scheme_end == std::string_view::npos) {
    return Error(ErrorCode::kParseError, "no scheme in URL: " + text);
  }
  url.scheme = std::string(rest.substr(0, scheme_end));
  rest.remove_prefix(scheme_end + 3);
  const std::size_t path_start = rest.find('/');
  if (path_start == std::string_view::npos) {
    url.host = std::string(rest);
    url.path = "/";
    return url;
  }
  url.host = std::string(rest.substr(0, path_start));
  rest.remove_prefix(path_start);
  const std::size_t query_start = rest.find('?');
  if (query_start == std::string_view::npos) {
    url.path = std::string(rest);
    return url;
  }
  url.path = std::string(rest.substr(0, query_start));
  rest.remove_prefix(query_start + 1);
  while (!rest.empty()) {
    const std::size_t amp = rest.find('&');
    const std::string_view pair = rest.substr(0, amp);
    rest.remove_prefix(amp == std::string_view::npos ? rest.size() : amp + 1);
    if (pair.empty()) continue;
    const std::size_t eq = pair.find('=');
    if (eq == std::string_view::npos) {
      url.query[url_decode(pair)] = "";
    } else {
      url.query[url_decode(pair.substr(0, eq))] = url_decode(pair.substr(eq + 1));
    }
  }
  return url;
}

std::optional<std::string> Url::param(const std::string& key) const {
  const auto it = query.find(key);
  if (it == query.end()) return std::nullopt;
  return it->second;
}

std::optional<double> Url::param_double(const std::string& key) const {
  const auto v = param(key);
  if (!v) return std::nullopt;
  return parse_double(*v);
}

HttpResponse HttpResponse::text(std::string_view s, const std::string& type) {
  HttpResponse r;
  r.content_type = type;
  r.body.assign(s.begin(), s.end());
  return r;
}

HttpResponse HttpResponse::binary(std::vector<std::uint8_t> bytes,
                                  const std::string& type) {
  HttpResponse r;
  r.content_type = type;
  r.body = std::move(bytes);
  return r;
}

HttpFabric::HttpFabric(std::uint64_t seed) : seed_(seed), rng_(seed) {}

void HttpFabric::route(const std::string& host, const std::string& path_prefix,
                       Handler handler, EndpointModel model) {
  std::lock_guard lock(mu_);
  routes_.push_back(Route{host, path_prefix, std::move(handler), model, {}});
}

void HttpFabric::reset_metrics() {
  std::lock_guard lock(mu_);
  // Counters only. clock_ is deliberately left alone: simulated time is
  // monotonic, and breakers/chaos windows are scheduled against it.
  metrics_ = {};
  for (Route& r : routes_) r.metrics = {};
}

HttpFabric::Metrics HttpFabric::metrics() const {
  std::lock_guard lock(mu_);
  return metrics_;
}

std::optional<HttpFabric::Metrics> HttpFabric::metrics_for(
    const std::string& host, const std::string& path_prefix) const {
  std::lock_guard lock(mu_);
  for (const Route& r : routes_) {
    if (r.host == host && r.path_prefix == path_prefix) return r.metrics;
  }
  return std::nullopt;
}

std::vector<std::pair<std::string, std::string>> HttpFabric::route_keys() const {
  std::lock_guard lock(mu_);
  std::vector<std::pair<std::string, std::string>> keys;
  keys.reserve(routes_.size());
  for (const Route& r : routes_) keys.emplace_back(r.host, r.path_prefix);
  return keys;
}

void HttpFabric::charge_elapsed(double ms) {
  metrics_.total_elapsed_ms += ms;
  clock_.advance(ms);
}

void HttpFabric::advance_clock(double ms) {
  std::lock_guard lock(mu_);
  if (ms > 0.0) charge_elapsed(ms);
}

Status HttpFabric::set_up(const std::string& host, const std::string& path_prefix,
                          bool up) {
  std::lock_guard lock(mu_);
  for (Route& r : routes_) {
    if (r.host == host && r.path_prefix == path_prefix) {
      r.model.up = up;
      return Status::Ok();
    }
  }
  return Error(ErrorCode::kNotFound, "no route " + host + path_prefix);
}

HttpFabric::Route* HttpFabric::find_route(const Url& url) {
  Route* best = nullptr;
  for (Route& r : routes_) {
    if (r.host != url.host) continue;
    if (!starts_with(url.path, r.path_prefix)) continue;
    if (!best || r.path_prefix.size() > best->path_prefix.size()) best = &r;
  }
  return best;
}

Expected<HttpResponse> HttpFabric::get(const std::string& url_text) {
  const auto parsed = Url::parse(url_text);
  if (!parsed.ok()) return parsed.error();
  return get(parsed.value(), parsed->to_string());
}

Expected<HttpResponse> HttpFabric::get(const Url& url, std::string_view canonical) {
  // One lock around the whole dispatch keeps the RNG stream, the fault
  // injector, and the metric charges atomic per request — the draw order
  // (and therefore every simulated timing) is identical to the historical
  // single-threaded behaviour as long as requests arrive in the same order.
  std::lock_guard lock(mu_);

  ++metrics_.requests;
  Route* route = find_route(url);
  if (!route) {
    ++metrics_.failures;
    ++metrics_.unrouted;
    return Error(ErrorCode::kNotFound, "no service at " + url.host + url.path);
  }
  ++route->metrics.requests;

  // Effective model for this request: the route's configuration, optionally
  // overridden by the chaos injector (outage windows, flaky periods,
  // bandwidth brownouts scripted against the simulated clock).
  EndpointModel model = route->model;
  if (injector_) {
    if (auto override_model = injector_(url, model, now_ms())) {
      model = *override_model;
    }
  }

  const auto charge_failure = [&](double elapsed_ms) {
    ++metrics_.failures;
    ++route->metrics.failures;
    charge_elapsed(elapsed_ms);
    route->metrics.total_elapsed_ms += elapsed_ms;
  };

  if (!model.up) {
    ++metrics_.hard_down;
    ++route->metrics.hard_down;
    charge_failure(model.latency_ms);
    return Error(ErrorCode::kServiceUnavailable, url.host + " is down");
  }
  if (model.failure_rate > 0.0 && rng_.bernoulli(model.failure_rate)) {
    ++metrics_.transient_failures;
    ++route->metrics.transient_failures;
    charge_failure(model.latency_ms);
    return Error(ErrorCode::kServiceUnavailable,
                 "transient failure at " + url.host + url.path);
  }

  auto result = route->handler(url);
  if (!result.ok()) {
    charge_failure(model.latency_ms);
    return result;
  }
  HttpResponse response = std::move(result.value());
  // Sign the payload at serve time: content digest bound to the canonical
  // request URL. Clients recompute after transfer; anything that alters the
  // bytes in flight (or replays another resource's bytes) breaks the match.
  // An origin serving bytes it stored earlier hands over the digest it
  // recorded then, so only the URL binding is computed here.
  if (response.origin_digest != 0) {
    response.digest = integrity::bind_digest(response.origin_digest, canonical);
    if (const auto audit = g_origin_audit.load(std::memory_order_acquire)) {
      audit(url, response);
    }
  } else {
    response.digest = integrity::sign_payload(response.body, canonical);
  }
  // Chaos corruption: the tamperer may alter the already-signed response
  // (bit flips, truncation, stale replays). Counted so tests can assert
  // every injected corruption was detected downstream.
  if (tamperer_ && tamperer_(url, response, now_ms(), rng_)) {
    ++metrics_.corruptions_injected;
    ++route->metrics.corruptions_injected;
  }
  // Simulated cost: connection latency + payload / bandwidth, with a mild
  // stochastic jitter so repeated queries are not suspiciously identical.
  const double megabits = static_cast<double>(response.body.size()) * 8.0 / 1e6;
  const double transfer_ms =
      model.bandwidth_mbps > 0.0 ? megabits / model.bandwidth_mbps * 1000.0 : 0.0;
  const double jitter = 1.0 + 0.1 * (rng_.uniform() - 0.5);
  response.elapsed_ms = (model.latency_ms + transfer_ms) * jitter;

  metrics_.bytes_transferred += response.body.size();
  charge_elapsed(response.elapsed_ms);
  route->metrics.bytes_transferred += response.body.size();
  route->metrics.total_elapsed_ms += response.elapsed_ms;
  return response;
}

}  // namespace nvo::services
