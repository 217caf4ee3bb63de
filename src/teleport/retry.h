#ifndef TELEPORT_TELEPORT_RETRY_H_
#define TELEPORT_TELEPORT_RETRY_H_

#include <algorithm>
#include <cstdint>
#include <string>

#include "common/rng.h"
#include "common/units.h"
#include "net/fabric.h"

namespace teleport::tp {

/// Capped exponential backoff with deterministic jitter, applied to the
/// RPCs the paper's runtime retries after silence: pushdown requests,
/// heartbeats, and page-fault RPCs (§3.2 failure handling). All waiting is
/// accounted on the caller's virtual clock; jitter comes from a seeded
/// common/rng stream so runs are reproducible bit-for-bit.
///
/// The core is header-inline because the ddc layer (page-fault path) uses
/// it without linking against teleport_core.
struct RetryPolicy {
  /// Total send attempts before the caller gives up (>= 1). Exhaustion
  /// surfaces Unavailable — or the §3.2 local fallback when enabled.
  int max_attempts = 5;
  /// Retransmission timeout: how long the caller waits in silence before
  /// declaring an attempt lost.
  Nanos rto_ns = 50 * kMicrosecond;
  /// Backoff added to the k-th retry: base * multiplier^k, capped.
  Nanos base_backoff_ns = 20 * kMicrosecond;
  Nanos max_backoff_ns = 2 * kMillisecond;
  double multiplier = 2.0;
  /// Backoff is scaled by a factor drawn uniformly from
  /// [1 - jitter_frac, 1 + jitter_frac].
  double jitter_frac = 0.25;

  /// Backoff wait before retry number `retry` (0-based), with deterministic
  /// jitter drawn from `rng`. Always >= 0.
  Nanos BackoffFor(int retry, Rng& rng) const {
    double b = static_cast<double>(base_backoff_ns);
    for (int i = 0; i < retry; ++i) {
      b *= multiplier;
      if (b >= static_cast<double>(max_backoff_ns)) break;
    }
    b = std::min(b, static_cast<double>(max_backoff_ns));
    if (jitter_frac > 0.0) {
      b *= 1.0 + jitter_frac * (2.0 * rng.NextDouble() - 1.0);
    }
    return std::max<Nanos>(0, static_cast<Nanos>(b));
  }

  std::string ToString() const;
};

/// Accumulated retry accounting for one logical RPC (or a whole run).
struct RetryStats {
  uint64_t attempts = 0;  ///< total send attempts, including the first
  uint64_t retries = 0;   ///< attempts repeated after a drop
  Nanos backoff_ns = 0;   ///< virtual time spent waiting (RTO + backoff)

  void Add(const RetryStats& o) {
    attempts += o.attempts;
    retries += o.retries;
    backoff_ns += o.backoff_ns;
  }

  std::string ToString() const;
};

/// Outcome of a retried RPC: on success `done` is the completion time and
/// `gave_up_at` the winning attempt's send time; on exhaustion `gave_up_at`
/// is where the caller's clock stands after burning every attempt (so the
/// caller can continue from there).
struct RetryOutcome {
  bool ok = false;
  Nanos done = 0;
  Nanos gave_up_at = 0;
  /// RetryRoundTripFromCompute only: queue backlog on the link just before
  /// the winning attempt was sent, so it never includes that attempt's own
  /// queue residency (the heartbeat deadline excuses exactly this).
  Nanos send_backlog_ns = 0;
};

/// The one attempt loop behind every retried send (§3.2). Calls
/// `try_once(t)` — returning a net::RpcOutcome — at most
/// `policy.max_attempts` times. Each failed attempt costs one RTO plus
/// jittered backoff of virtual time; if `dst`'s link is down with a known
/// heal time the retry also waits the outage out (the heartbeat thread tells
/// the kernel when the pool answers again). `on_retry(t, wait)` then reports
/// the resend time and the wait, so each site keeps its own counters and
/// trace instants. Backoff is drawn from `rng` once per failed attempt, in
/// attempt order, at every site.
template <typename TryOnce, typename OnRetry>
RetryOutcome RetryAttempts(const net::Fabric& fabric, const RetryPolicy& policy,
                           Rng& rng, Nanos now, int dst, TryOnce&& try_once,
                           OnRetry&& on_retry) {
  Nanos t = now;
  const int attempts = std::max(1, policy.max_attempts);
  for (int a = 0; a < attempts; ++a) {
    const net::RpcOutcome rpc = try_once(t);
    if (rpc.ok) return RetryOutcome{true, rpc.done, t};
    Nanos wait = policy.rto_ns + policy.BackoffFor(a, rng);
    t += wait;
    const Nanos heal = fabric.NextReachableAt(t, dst);
    if (heal > t) {
      wait += heal - t;
      t = heal;
    }
    on_retry(t, wait);
  }
  return RetryOutcome{false, 0, t};
}

/// Runs a compute-side round trip (page-fault RPC, heartbeat) under
/// `policy` in up to 16 rounds of RetryAttempts, counting into `stats`.
/// Between rounds the caller waits out any scheduled outage; a pool that
/// never heals ends the rounds early. Without a fault injector the first
/// attempt always succeeds with timing identical to
/// Fabric::RoundTripFromCompute.
inline RetryOutcome RetryRoundTripFromCompute(
    net::Fabric& fabric, const RetryPolicy& policy, Rng& rng, Nanos now,
    uint64_t req_bytes, uint64_t resp_bytes, Nanos handler_ns,
    net::MessageKind req_kind, net::MessageKind resp_kind, RetryStats& stats,
    net::Link link) {
  Nanos backlog = 0;
  const auto try_once = [&](Nanos t) {
    ++stats.attempts;
    backlog = fabric.QueueBacklogNs(link, t);
    return fabric.TryRoundTripFromCompute(link, t, req_bytes, resp_bytes,
                                          handler_ns, req_kind, resp_kind);
  };
  const auto on_retry = [&](Nanos, Nanos wait) {
    ++stats.retries;
    stats.backoff_ns += wait;
  };
  Nanos t = now;
  for (int round = 0; round < 16; ++round) {
    RetryOutcome out =
        RetryAttempts(fabric, policy, rng, t, link.dst, try_once, on_retry);
    if (out.ok) {
      out.send_backlog_ns = backlog;
      return out;
    }
    t = out.gave_up_at;
    const Nanos heal = fabric.NextReachableAt(t, link.dst);
    if (heal == net::Fabric::kNeverHeals) break;
    if (heal > t) t = heal;
  }
  return RetryOutcome{false, 0, t};
}

}  // namespace teleport::tp

#endif  // TELEPORT_TELEPORT_RETRY_H_
