//! The snapshot manager: topology ingestion, the health gate, versioned
//! hot-reload, and the crash-safe store integration.
//!
//! A [`ServeSnapshot`] bundles everything a query needs — the graph and
//! the tier sets — under one version number; every solve runs on the
//! graph, whose topology keeps the simulator's pooled scratch. Its
//! `topo` field, a [`TopologySnapshot`] handle on the same graph, is
//! still filled here (the `compile` phase) because the `benchmark/`
//! package builds the struct literally; nothing in the daemon reads it.
//! It is the store's [`flatnet_store::StoredSnapshot`], so what
//! the store loads is what the daemon serves and what the daemon serves
//! is what it persists. The manager holds the current snapshot behind
//! `RwLock<Arc<..>>`: a query grabs the `Arc` once (one refcount bump)
//! and keeps computing against it even if `/admin/reload` swaps in a
//! successor mid-flight; the old snapshot is freed when the last
//! in-flight query drops its handle. Reload *builds and health-gates the
//! candidate before swapping*, so a topology that fails the PR-1 health
//! checks leaves the serving snapshot untouched.
//!
//! ## The fallback ladder
//!
//! With a store path configured, startup walks a strict ladder and
//! always lands on a healthy snapshot or a typed error — never a panic,
//! never a silently wrong snapshot:
//!
//! 1. **Warm start** — load + checksum-verify the store (which compiles
//!    the stored graph: a handle on its links and a bit per node), re-run the health gate on the stored graph, and
//!    serve it without reading, parsing or building from the source and
//!    without inferring tiers (`serve.store_warm_start` increments).
//! 2. **Rebuild fallback** — on *any* store corruption, truncation,
//!    or version mismatch (an image of an earlier format included), log
//!    a structured diagnostic, count it (`serve.store_rejected`), and
//!    rebuild from the source exactly as a store-less start would.
//! 3. **Rewrite** — after a fallback (or a fresh start), atomically
//!    rewrite the store so the next restart is warm again. A failed
//!    write is logged and counted but never fatal: serving beats
//!    persisting.
//!
//! Reload persists the new version on success and keeps serving the old
//! `Arc` on failure; repeated failures arm an exponential backoff
//! surfaced in `/healthz`.
//!
//! ## Where a start or reload spends its time
//!
//! Every step on the way to a snapshot is timed into a
//! `serve.snapshot_us{phase="…"}` histogram — `read`, `parse`, `build`
//! (the graph out of the parsed links, or out of the generator), `tiers`,
//! `validate`, `compile`, `persist`, and `store_load` on a warm start —
//! and summed up in one `info` line per snapshot; `/healthz` reports the
//! serving snapshot's total as `snapshot_ready_ms`. A warm start records
//! `store_load` (the file read, the decode and the compile of the stored
//! graph) and `validate` and nothing else.

use crate::error::ServeError;
use flatnet_asgraph::graph::RelConflict;
use flatnet_asgraph::ingest::ParseOptions;
use flatnet_asgraph::tiers::declared_or_inferred;
use flatnet_asgraph::{caida, validate_topology, AsGraph, AsId, Tiers, ValidateOptions};
use flatnet_bgpsim::TopologySnapshot;
use flatnet_core::error::FlatnetError;
use flatnet_netgen::{generate, NetGenConfig};
use flatnet_obs::PhaseTimer;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

/// Where the daemon's topology comes from; reload re-ingests from here.
#[derive(Debug, Clone)]
pub enum TopologySource {
    /// A CAIDA as-rel file (serial-1 or serial-2, sniffed).
    CaidaFile {
        /// Path to the file; re-read on every reload.
        path: String,
        /// Explicit Tier-1 ASNs (empty = infer AS-Rank style; the rule is
        /// [`declared_or_inferred`], which the CLI's commands share).
        tier1: Vec<AsId>,
        /// Explicit Tier-2 ASNs (used only with an explicit `tier1`).
        tier2: Vec<AsId>,
        /// Skip malformed records instead of refusing the file.
        lenient: bool,
    },
    /// A deterministic synthetic topology (`NetGenConfig::paper_2020`).
    Generated {
        /// Number of ASes.
        ases: usize,
        /// Generation seed.
        seed: u64,
    },
    /// A pre-built graph handed in by the embedding process (tests, the
    /// bench harness). Reload re-validates and recompiles from the same
    /// graph, bumping the version — which is exactly what the cache
    /// invalidation tests need.
    Preloaded {
        /// The graph to serve.
        graph: AsGraph,
        /// Its tier sets.
        tiers: Tiers,
    },
}

/// One immutable, health-gated topology version: the struct the store
/// loads and saves.
pub(crate) use flatnet_store::StoredSnapshot as ServeSnapshot;

/// The phases of one snapshot's way into service, each timed into its
/// `serve.snapshot_us{phase="…"}` histogram, with the split kept for the
/// one log line the snapshot gets once it is ready.
struct PhaseClock {
    started: Instant,
    split: String,
}

impl PhaseClock {
    fn start() -> Self {
        PhaseClock { started: Instant::now(), split: String::new() }
    }

    fn time<T>(&mut self, phase: &str, f: impl FnOnce() -> T) -> T {
        let (out, took) = PhaseTimer::new("serve.snapshot_us").timed(phase, f);
        let _ = write!(self.split, " {phase}={:.1}ms", took.as_secs_f64() * 1e3);
        out
    }

    /// Logs the split and returns the total, in milliseconds.
    fn ready(&self, how: &str, version: u64) -> u64 {
        let total = self.started.elapsed();
        flatnet_obs::info!(
            "snapshot v{version} ready ({how}) in {:.1} ms:{}",
            total.as_secs_f64() * 1e3,
            self.split
        );
        total.as_millis() as u64
    }
}

/// First-failure backoff; doubles per consecutive failure.
const BACKOFF_BASE: Duration = Duration::from_millis(250);
/// Backoff ceiling.
const BACKOFF_CAP: Duration = Duration::from_secs(10);

/// Reload bookkeeping surfaced in `/healthz`.
#[derive(Debug, Default)]
struct ReloadState {
    /// Kind + message of the most recent failure, until a success clears it.
    last_error: Option<(&'static str, String)>,
    /// Consecutive failures since the last success.
    consecutive_failures: u32,
    /// Reloads are refused until this instant (exponential backoff).
    not_before: Option<Instant>,
    /// What the serving snapshot took from start (or reload) to ready.
    ready_ms: u64,
}

/// A point-in-time copy of the reload/store health for `/healthz`.
#[derive(Debug, Clone)]
pub(crate) struct ManagerStatus {
    /// Kind label of the last reload failure (`None` after a success).
    pub last_error_kind: Option<&'static str>,
    /// Message of the last reload failure.
    pub last_error: Option<String>,
    /// Consecutive reload failures since the last success.
    pub consecutive_failures: u32,
    /// Milliseconds until the next reload attempt will be accepted.
    pub backoff_remaining_ms: u64,
    /// Whether the first snapshot came from the store, not the source.
    pub warm_start: bool,
    /// Milliseconds the serving snapshot took from the beginning of its
    /// start or reload until it was ready, store write included.
    pub snapshot_ready_ms: u64,
    /// Whether a store path is configured.
    pub store_configured: bool,
}

/// Holds the current [`ServeSnapshot`] and knows how to build the next.
pub(crate) struct SnapshotManager {
    source: TopologySource,
    store_path: Option<String>,
    warm_start: bool,
    current: RwLock<Arc<ServeSnapshot>>,
    state: Mutex<ReloadState>,
    /// Held by a reload from its version read to its swap. Not `state`:
    /// `/healthz` reads that and must not wait behind a rebuild.
    reload_turn: Mutex<()>,
    reloads: flatnet_obs::Counter,
    reload_failures: flatnet_obs::Counter,
    lock_poisoned: flatnet_obs::Counter,
    store_writes: flatnet_obs::Counter,
    store_write_failures: flatnet_obs::Counter,
}

impl SnapshotManager {
    /// Ingests, health-gates, and compiles the first snapshot, with an
    /// optional snapshot-store path.
    /// A valid store warm-starts without touching the source; any
    /// corruption, truncation, or version mismatch degrades to
    /// rebuild-and-rewrite (see the module docs for the full ladder).
    pub(crate) fn with_store(
        source: TopologySource,
        store_path: Option<String>,
    ) -> Result<Self, ServeError> {
        let reg = flatnet_obs::global();
        let store_faults = reg.counter("serve.store_rejected");
        let warm_starts = reg.counter("serve.store_warm_start");

        let mut clock = PhaseClock::start();
        let mut warm = None;
        if let Some(path) = &store_path {
            if std::path::Path::new(path).exists() {
                match try_warm_start(path, &mut clock) {
                    Ok(snap) => {
                        warm_starts.inc();
                        flatnet_obs::info!(
                            "store warm start: {path} v{} ({} ASes, {} links) — source not read",
                            snap.version,
                            snap.graph.len(),
                            snap.graph.edge_count()
                        );
                        warm = Some(snap);
                    }
                    Err(e) => {
                        store_faults.inc();
                        flatnet_obs::warn!(
                            "store rejected: path={path} kind={} detail={e}; \
                             falling back to a rebuild from source",
                            e.kind()
                        );
                    }
                }
            }
        }

        let warm_start = warm.is_some();
        let first = match warm {
            Some(snap) => snap,
            None => load(&source, 1, &mut clock)?,
        };
        let mgr = SnapshotManager {
            source,
            store_path,
            warm_start,
            current: RwLock::new(Arc::new(first)),
            state: Mutex::new(ReloadState::default()),
            reload_turn: Mutex::new(()),
            reloads: reg.counter("serve.reloads"),
            reload_failures: reg.counter("serve.reload_failures"),
            lock_poisoned: reg.counter("serve.lock_poisoned"),
            store_writes: reg.counter("serve.store_writes"),
            store_write_failures: reg.counter("serve.store_write_failures"),
        };
        if !warm_start {
            // Built from the source (first start, or fallback after a
            // rejected store): rewrite the store so the next restart is warm.
            mgr.persist(&mgr.current(), &mut clock);
        }
        let how = if warm_start { "warm start" } else { "cold start" };
        mgr.lock_state().ready_ms = clock.ready(how, mgr.current().version);
        Ok(mgr)
    }

    /// The current snapshot; cheap (one `Arc` clone under a read lock).
    /// Recovers from a poisoned lock — the data is an `Arc` swap, never
    /// left half-written, so a reloader that panicked mid-swap must not
    /// take down every subsequent query.
    pub(crate) fn current(&self) -> Arc<ServeSnapshot> {
        match self.current.read() {
            Ok(g) => Arc::clone(&g),
            Err(poisoned) => {
                self.lock_poisoned.inc();
                Arc::clone(&poisoned.into_inner())
            }
        }
    }

    /// Reload/store health for `/healthz`.
    pub(crate) fn status(&self) -> ManagerStatus {
        let state = self.lock_state();
        let backoff_remaining_ms = state
            .not_before
            .and_then(|t| t.checked_duration_since(Instant::now()))
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        ManagerStatus {
            last_error_kind: state.last_error.as_ref().map(|(k, _)| *k),
            last_error: state.last_error.as_ref().map(|(_, m)| m.clone()),
            consecutive_failures: state.consecutive_failures,
            backoff_remaining_ms,
            warm_start: self.warm_start,
            snapshot_ready_ms: state.ready_ms,
            store_configured: self.store_path.is_some(),
        }
    }

    /// Re-ingests from the source and atomically swaps the new snapshot
    /// in. On any failure (unreadable file, failed health gate) the
    /// current snapshot keeps serving, the error is recorded for
    /// `/healthz`, and repeated failures arm an exponential backoff that
    /// refuses further attempts until it expires. On success the new
    /// version is persisted to the store (best-effort) before the swap.
    /// Concurrent callers take turns, so no two snapshots ever share a
    /// version (the result cache keys on it).
    pub(crate) fn reload(&self) -> Result<Arc<ServeSnapshot>, ServeError> {
        // The guard protects no data, so a poisoned turn is still a turn.
        let _turn = self.reload_turn.lock().unwrap_or_else(|e| e.into_inner());
        {
            let state = self.lock_state();
            if let Some(not_before) = state.not_before {
                if let Some(remaining) = not_before.checked_duration_since(Instant::now()) {
                    let last = state
                        .last_error
                        .as_ref()
                        .map(|(_, m)| m.clone())
                        .unwrap_or_else(|| "unknown".into());
                    return Err(ServeError::ReloadBackoff {
                        retry_after_ms: remaining.as_millis().max(1) as u64,
                        last_error: last,
                    });
                }
            }
        }

        let next_version = self.current().version + 1;
        let mut clock = PhaseClock::start();
        match load(&self.source, next_version, &mut clock) {
            Ok(fresh) => {
                let fresh = Arc::new(fresh);
                self.persist(&fresh, &mut clock);
                match self.current.write() {
                    Ok(mut cur) => *cur = Arc::clone(&fresh),
                    Err(poisoned) => {
                        self.lock_poisoned.inc();
                        *poisoned.into_inner() = Arc::clone(&fresh);
                    }
                }
                self.reloads.inc();
                let mut state = self.lock_state();
                state.last_error = None;
                state.consecutive_failures = 0;
                state.not_before = None;
                state.ready_ms = clock.ready("reload", fresh.version);
                Ok(fresh)
            }
            Err(e) => {
                self.reload_failures.inc();
                let mut state = self.lock_state();
                state.consecutive_failures += 1;
                let exp = state.consecutive_failures.saturating_sub(1).min(16);
                let delay = BACKOFF_BASE.saturating_mul(1u32 << exp).min(BACKOFF_CAP);
                state.not_before = Some(Instant::now() + delay);
                state.last_error = Some((e.kind(), e.to_string()));
                flatnet_obs::warn!(
                    "reload failed (kind={}, consecutive={}, backoff={}ms): {e}; \
                     old snapshot still serving",
                    e.kind(),
                    state.consecutive_failures,
                    delay.as_millis()
                );
                Err(e)
            }
        }
    }

    fn lock_state(&self) -> std::sync::MutexGuard<'_, ReloadState> {
        match self.state.lock() {
            Ok(g) => g,
            Err(poisoned) => {
                self.lock_poisoned.inc();
                poisoned.into_inner()
            }
        }
    }

    /// Best-effort atomic store rewrite; failure is counted and logged,
    /// never fatal.
    fn persist(&self, snap: &ServeSnapshot, clock: &mut PhaseClock) {
        let Some(path) = &self.store_path else { return };
        match clock.time("persist", || flatnet_store::save_atomic(path, snap)) {
            Ok(()) => {
                self.store_writes.inc();
                flatnet_obs::info!("store written: {path} v{}", snap.version);
            }
            Err(e) => {
                self.store_write_failures.inc();
                flatnet_obs::warn!("store write failed: path={path} kind={} detail={e}", e.kind());
            }
        }
    }
}

/// Loads and health-gates a stored snapshot. Every store-level fault is
/// a typed [`flatnet_store::StoreError`]; a stored graph that no longer
/// passes the health gate is reported as a malformed store (it must not
/// be served, and rewriting it from source is the right recovery).
fn try_warm_start(
    path: &str,
    clock: &mut PhaseClock,
) -> Result<ServeSnapshot, flatnet_store::StoreError> {
    let mut stored = clock.time("store_load", || flatnet_store::load(path))?;
    let report = clock.time("validate", || {
        let (t1, t2) = stored.tiers.asns(&stored.graph);
        validate_topology(&stored.graph, &t1, &t2, &[], &ValidateOptions::default())
    });
    if !report.is_usable() {
        return Err(flatnet_store::StoreError::Malformed {
            section: flatnet_store::SectionId::Graph,
            detail: format!("stored topology fails the health gate:\n{}", report.render()),
        });
    }
    stored.version = stored.version.max(1);
    Ok(stored)
}

impl TopologySource {
    /// Ingest, health gate, compile: the one way a source becomes a
    /// snapshot. Startup and reload go through it, and so does `flatnet
    /// snapshot save`, so a store is only ever written from a topology
    /// the daemon would serve.
    pub fn build(&self, version: u64) -> Result<ServeSnapshot, ServeError> {
        load(self, version, &mut PhaseClock::start())
    }
}

/// [`TopologySource::build`] on the caller's clock.
fn load(
    source: &TopologySource,
    version: u64,
    clock: &mut PhaseClock,
) -> Result<ServeSnapshot, ServeError> {
    // `checked` is what the health gate sees: a source's declared tier
    // lists as given (a member the graph lacks is a finding), none for
    // inferred sets (`declared_or_inferred`), else the resolved sets.
    let (graph, tiers, checked, conflicts) = match source {
        TopologySource::CaidaFile { path, tier1, tier2, lenient } => {
            let (graph, conflicts) = load_caida(path, *lenient, clock)?;
            let (tiers, checked) =
                clock.time("tiers", || declared_or_inferred(&graph, tier1, tier2));
            (graph, tiers, checked, conflicts)
        }
        TopologySource::Generated { ases, seed } => {
            let net = clock.time("generate", || generate(&NetGenConfig::paper_2020(*ases, *seed)));
            let tiers = clock.time("tiers", || net.tiers_for(&net.truth));
            let checked = tiers.asns(&net.truth);
            (net.truth, tiers, checked, Vec::new())
        }
        TopologySource::Preloaded { graph, tiers } => {
            (graph.clone(), tiers.clone(), tiers.asns(graph), Vec::new())
        }
    };

    // The PR-1 health gate: a daemon serving answers from a topology with
    // a broken Tier-1 clique or an empty graph would be confidently wrong
    // for every query, so critical findings refuse the snapshot.
    let report = clock.time("validate", || {
        validate_topology(&graph, &checked.0, &checked.1, &conflicts, &ValidateOptions::default())
    });
    if !report.is_usable() {
        return Err(ServeError::HealthGate { report: report.render() });
    }
    if !report.is_clean() {
        flatnet_obs::warn!("snapshot v{version} health findings:\n{}", report.render());
    }

    let topo = clock.time("compile", || TopologySnapshot::compile(&graph));
    flatnet_obs::info!(
        "snapshot v{version}: {} ASes, {} links, {} Tier-1s, {} Tier-2s",
        graph.len(),
        graph.edge_count(),
        tiers.tier1().len(),
        tiers.tier2().len()
    );
    Ok(ServeSnapshot { version, graph, tiers, topo })
}

/// Reads and parses an as-rel file of either serial
/// ([`caida::parse_auto`]) and builds its graph.
fn load_caida(
    path: &str,
    lenient: bool,
    clock: &mut PhaseClock,
) -> Result<(AsGraph, Vec<RelConflict>), ServeError> {
    let data = clock.time("read", || std::fs::read(path)).map_err(|e| {
        ServeError::Ingest(FlatnetError::Io { path: path.into(), message: e.to_string() })
    })?;
    let mode = if lenient { ParseOptions::lenient() } else { ParseOptions::strict() };
    let (b, diag) = clock.time("parse", || caida::parse_auto(&data, &mode)).map_err(|e| {
        ServeError::Ingest(FlatnetError::Invalid(format!(
            "{path}: not a CAIDA as-rel file: {e}"
        )))
    })?;
    // The text is dead weight from here on; the graph is built without it.
    drop(data);
    if !diag.is_clean() {
        flatnet_obs::warn!("{path}: {}", diag.summary());
    }
    let conflicts = b.conflicts().to_vec();
    let graph = clock.time("build", || b.build());
    Ok((graph, conflicts))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_source() -> TopologySource {
        TopologySource::Generated { ases: 400, seed: 7 }
    }

    fn temp_store(tag: &str) -> String {
        let dir =
            std::env::temp_dir().join(format!("flatnet-serve-store-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("snap.store").display().to_string()
    }

    /// Same graph, same tiers; the compiled topology follows from the
    /// graph, since `compile` is the only way to make one.
    fn assert_same_topology(a: &ServeSnapshot, b: &ServeSnapshot) {
        assert!(a.graph.asns().eq(b.graph.asns()));
        assert!(a.graph.edges().eq(b.graph.edges()));
        assert_eq!(a.tiers, b.tiers);
        assert_eq!(a.topo.len(), b.topo.len());
        assert_eq!(a.topo.edge_entries(), b.topo.edge_entries());
    }

    #[test]
    fn first_snapshot_is_version_one() {
        let mgr = SnapshotManager::with_store(tiny_source(), None).unwrap();
        let snap = mgr.current();
        assert_eq!(snap.version, 1);
        assert_eq!(snap.graph.len(), snap.topo.len());
        assert!(!snap.tiers.tier1().is_empty());
        let status = mgr.status();
        assert!(!status.warm_start);
        assert!(!status.store_configured);
        assert_eq!(status.consecutive_failures, 0);
    }

    #[test]
    fn reload_bumps_version_and_old_arc_survives() {
        let mgr = SnapshotManager::with_store(tiny_source(), None).unwrap();
        let old = mgr.current();
        let new = mgr.reload().unwrap();
        assert_eq!(old.version, 1);
        assert_eq!(new.version, 2);
        assert_eq!(mgr.current().version, 2);
        // The old snapshot is still fully usable by an in-flight query.
        assert_eq!(old.graph.len(), new.graph.len());
    }

    #[test]
    fn unreadable_file_is_an_error_not_a_panic() {
        let result = SnapshotManager::with_store(
            TopologySource::CaidaFile {
                path: "/nonexistent/as-rel.txt".into(),
                tier1: vec![],
                tier2: vec![],
                lenient: false,
            },
            None,
        );
        let err = result.err().expect("expected an ingestion error");
        assert_eq!(err.kind(), "ingest");
        assert!(err.to_string().contains("/nonexistent"), "{err}");
    }

    #[test]
    fn a_file_with_no_data_lines_is_refused_by_the_health_gate() {
        // Nothing to sniff a serial from: serial-1 is assumed, the graph
        // is empty, and the gate — not the parser — says no.
        let dir = std::env::temp_dir().join(format!("flatnet-serve-empty-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        for (name, text) in [("empty.txt", ""), ("comments.txt", "# as1|as2|rel\n\n# nothing\n")] {
            let path = dir.join(name);
            std::fs::write(&path, text).unwrap();
            let err = SnapshotManager::with_store(
                TopologySource::CaidaFile {
                    path: path.display().to_string(),
                    tier1: vec![],
                    tier2: vec![],
                    lenient: false,
                },
                None,
            )
            .err()
            .expect("an empty topology must not be served");
            assert_eq!(err.kind(), "health-gate", "{name}: {err}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_reload_keeps_serving_the_old_snapshot() {
        // A Preloaded empty graph fails the health gate ("empty-graph" is
        // critical)…
        let empty = AsGraph::empty();
        let tiers = Tiers::from_lists(&empty, &[], &[]);
        let err = SnapshotManager::with_store(TopologySource::Preloaded { graph: empty, tiers }, None)
            .err()
            .expect("health gate must refuse an empty graph");
        assert_eq!(err.kind(), "health-gate");
    }

    #[test]
    fn cold_start_writes_the_store_and_next_start_is_warm() {
        let path = temp_store("warm");
        let mgr = SnapshotManager::with_store(tiny_source(), Some(path.clone())).unwrap();
        assert!(!mgr.status().warm_start, "no store existed yet");
        assert!(std::path::Path::new(&path).exists(), "cold start must write the store");
        let cold = mgr.current();
        drop(mgr);

        let mgr2 = SnapshotManager::with_store(tiny_source(), Some(path.clone())).unwrap();
        let warm = mgr2.current();
        assert!(mgr2.status().warm_start, "second start must be warm");
        assert_eq!(warm.version, cold.version);
        assert_same_topology(&warm, &cold);
    }

    #[test]
    fn corrupted_store_degrades_to_recompile_and_rewrite() {
        let path = temp_store("heal");
        {
            SnapshotManager::with_store(tiny_source(), Some(path.clone())).unwrap();
        }
        // Flip one byte somewhere in the payload region.
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();

        let mgr = SnapshotManager::with_store(tiny_source(), Some(path.clone())).unwrap();
        let status = mgr.status();
        assert!(!status.warm_start, "corrupted store must not warm-start");
        // The healed store must verify and hold the from-source topology.
        let report = flatnet_store::verify(&path, false).expect("store rewritten after corruption");
        assert_eq!(report.nodes, mgr.current().graph.len());
        let direct = tiny_source().build(1).unwrap();
        assert_same_topology(&flatnet_store::load(&path).unwrap(), &direct);
        assert_same_topology(&mgr.current(), &direct);
    }

    #[test]
    fn reload_persists_the_new_version() {
        let path = temp_store("reload");
        let mgr = SnapshotManager::with_store(tiny_source(), Some(path.clone())).unwrap();
        mgr.reload().unwrap();
        let report = flatnet_store::verify(&path, false).unwrap();
        assert_eq!(report.version, 2);
        drop(mgr);
        // A restart resumes at the persisted version, keeping cache keys
        // monotonic across restarts.
        let mgr2 = SnapshotManager::with_store(tiny_source(), Some(path)).unwrap();
        assert_eq!(mgr2.current().version, 2);
        assert!(mgr2.status().warm_start);
    }

    /// Two reloads released together take turns: the versions are 2 and
    /// 3, never 2 twice, and the store ends on the last one.
    #[test]
    fn concurrent_reloads_mint_distinct_versions() {
        let path = temp_store("concurrent-reload");
        let mgr = SnapshotManager::with_store(tiny_source(), Some(path.clone())).unwrap();
        let go = std::sync::Barrier::new(2);
        let mut versions: Vec<u64> = std::thread::scope(|s| {
            let reloads: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        go.wait();
                        mgr.reload().map(|snap| snap.version)
                    })
                })
                .collect();
            reloads.into_iter().map(|r| r.join().unwrap().unwrap()).collect()
        });
        versions.sort_unstable();
        assert_eq!(versions, [2, 3]);
        assert_eq!(mgr.current().version, 3);
        assert_eq!(flatnet_store::verify(&path, false).unwrap().version, 3);
    }

    #[test]
    fn failed_reloads_surface_in_status_and_arm_backoff() {
        let dir = std::env::temp_dir()
            .join(format!("flatnet-serve-backoff-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let rel = dir.join("as-rel.txt");
        // Valid 5-node topology: 1 and 2 peer at the top.
        let valid = "1|2|0|bgp\n1|3|-1|bgp\n2|3|-1|bgp\n1|4|-1|bgp\n2|5|-1|bgp\n3|4|0|bgp\n";
        std::fs::write(&rel, valid).unwrap();
        let source = TopologySource::CaidaFile {
            path: rel.display().to_string(),
            tier1: vec![AsId(1), AsId(2)],
            tier2: vec![],
            lenient: false,
        };
        let mgr = SnapshotManager::with_store(source, None).unwrap();

        // Break the source; reload must fail, record the error, and arm
        // the backoff.
        std::fs::remove_file(&rel).unwrap();
        let err = mgr.reload().expect_err("reload with a missing file must fail");
        assert_eq!(err.kind(), "ingest");
        let status = mgr.status();
        assert_eq!(status.last_error_kind, Some("ingest"));
        assert_eq!(status.consecutive_failures, 1);
        assert!(status.backoff_remaining_ms > 0, "{status:?}");
        assert_eq!(mgr.current().version, 1, "old snapshot still serving");

        // Within the backoff window the reload is refused as such.
        let err = mgr.reload().expect_err("backoff must refuse the retry");
        assert_eq!(err.kind(), "backoff");

        // Restore the source, wait out the backoff: reload succeeds and
        // clears the failure state.
        std::fs::write(&rel, valid).unwrap();
        std::thread::sleep(Duration::from_millis(300));
        let snap = mgr.reload().expect("reload after backoff");
        assert_eq!(snap.version, 2);
        let status = mgr.status();
        assert_eq!(status.last_error_kind, None);
        assert_eq!(status.consecutive_failures, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
