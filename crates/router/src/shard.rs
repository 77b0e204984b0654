//! Per-shard state: the pooled upstream client, the health circuit
//! breaker, and the last-known snapshot version.
//!
//! The breaker is fed from two places: the background prober (a
//! `/healthz` GET on every shard each interval) and the data path
//! (every failed forward). `FAILS_TO_OPEN` *consecutive* failures open
//! the circuit — the shard's slice answers `503 shard-unavailable`
//! without dialing — and a single successful probe closes it again, so
//! a restarted shard rejoins within one probe interval.

use crate::merge;
use crate::{Upstream, UpstreamResponse};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Consecutive failures (probe or data-path) that open the circuit.
pub(crate) const FAILS_TO_OPEN: u32 = 3;

/// One shard as the router sees it.
pub(crate) struct Shard {
    /// Shard slot on the hash ring.
    pub id: u32,
    /// Child process id when the router's CLI spawned this shard;
    /// `None` for adopted shards.
    pub pid: Option<u32>,
    /// The pooled HTTP client to this shard.
    pub upstream: Upstream,
    /// How much of `upstream.stats()` the obs counters have seen.
    published: [AtomicU64; 2],
    upstream_totals: [flatnet_obs::Counter; 2],
    healthy: AtomicBool,
    fails: AtomicU32,
    version: AtomicU64,
    last_error: Mutex<String>,
    failures_total: flatnet_obs::Counter,
}

impl Shard {
    /// A shard handle for slot `id` at `addr`. Starts optimistically
    /// healthy so the first requests don't wait for a probe round.
    pub(crate) fn new(id: u32, addr: String, pid: Option<u32>, timeout: Duration) -> Shard {
        Shard {
            id,
            pid,
            upstream: Upstream::new(addr, timeout),
            published: [AtomicU64::new(0), AtomicU64::new(0)],
            upstream_totals: ["router.upstream_connects", "router.upstream_reuse"]
                .map(|name| flatnet_obs::global().counter(name)),
            healthy: AtomicBool::new(true),
            fails: AtomicU32::new(0),
            version: AtomicU64::new(0),
            last_error: Mutex::new(String::new()),
            failures_total: flatnet_obs::global().counter("router.shard_failures"),
        }
    }

    /// Adds what the client (which sits below obs) dialed and reused
    /// since the last call to `router.upstream_connects` /
    /// `router.upstream_reuse`. Called after every probe and before
    /// every client-facing response; `fetch_max` keeps concurrent
    /// callers from counting the same dial twice.
    pub(crate) fn publish_upstream_stats(&self) {
        let (connects, reuse) = self.upstream.stats();
        for (i, now) in [connects, reuse].into_iter().enumerate() {
            let before = self.published[i].fetch_max(now, Ordering::Relaxed);
            if now > before {
                self.upstream_totals[i].add(now - before);
            }
        }
    }

    /// Whether the circuit is closed (requests may be routed here).
    pub(crate) fn healthy(&self) -> bool {
        self.healthy.load(Ordering::SeqCst)
    }

    /// Consecutive failures so far.
    pub(crate) fn fails(&self) -> u32 {
        self.fails.load(Ordering::SeqCst)
    }

    /// Last `/healthz`-reported snapshot version.
    pub(crate) fn snapshot_version(&self) -> u64 {
        self.version.load(Ordering::SeqCst)
    }

    /// Stores a version observed outside the prober (the reload health
    /// gate reads it straight off the shard's `/healthz`), so the fleet
    /// view is current the moment a roll finishes rather than one probe
    /// interval later.
    pub(crate) fn set_snapshot_version(&self, version: u64) {
        self.version.store(version, Ordering::SeqCst);
    }

    /// The most recent failure message (empty when none).
    pub(crate) fn last_error(&self) -> String {
        self.last_error.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Records a successful round trip: resets the failure streak and
    /// closes the circuit.
    pub(crate) fn record_ok(&self) {
        self.fails.store(0, Ordering::SeqCst);
        if !self.healthy.swap(true, Ordering::SeqCst) {
            flatnet_obs::info!("router: shard {} ({}) healthy again", self.id, self.upstream.addr());
        }
    }

    /// Feeds one failure into the breaker; at [`FAILS_TO_OPEN`]
    /// consecutive failures the circuit opens and the connection pool is
    /// drained (its sockets are all suspect).
    pub(crate) fn record_failure(&self, err: &str) {
        self.failures_total.inc();
        *self.last_error.lock().unwrap_or_else(|e| e.into_inner()) = err.to_string();
        let fails = self.fails.fetch_add(1, Ordering::SeqCst) + 1;
        if fails >= FAILS_TO_OPEN && self.healthy.swap(false, Ordering::SeqCst) {
            self.upstream.drain_pool();
            flatnet_obs::warn!(
                "router: shard {} ({}) circuit OPEN after {fails} failures: {err}",
                self.id,
                self.upstream.addr()
            );
        }
    }

    /// One health probe: `GET /healthz`, feeding the breaker either way
    /// and refreshing the shard's snapshot version. Returns whether the
    /// probe succeeded.
    pub(crate) fn probe(&self, trace_id: u64) -> bool {
        let reply = self.upstream.request("GET", "/healthz", None, trace_id);
        self.publish_upstream_stats();
        match reply {
            Ok(UpstreamResponse { status: 200, body, .. }) => {
                if let Some(v) = merge::member_u64(&body, "snapshot_version") {
                    self.version.store(v, Ordering::SeqCst);
                }
                self.record_ok();
                true
            }
            Ok(resp) => {
                self.record_failure(&format!("healthz returned {}", resp.status));
                false
            }
            Err(e) => {
                self.record_failure(&format!("healthz probe failed: {e}"));
                false
            }
        }
    }
}
