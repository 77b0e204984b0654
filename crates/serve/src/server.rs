//! The daemon's lifecycle handle: ingest, bind, spawn the worker pool
//! and the accept loop ([`crate::front::Front::accept`], which hands
//! each socket to the bounded queue; a full queue writes its `503`
//! itself, so it can never stall `accept()`), and stop. All protocol
//! work happens in the workers.

use crate::engine::{spawn_warmup, worker_loop, Shared};
use crate::error::ServeError;
use crate::snapshot::{SnapshotManager, TopologySource};
use std::net::SocketAddr;
use std::sync::Arc;
use std::thread::JoinHandle;

/// Daemon configuration; see field docs for defaults.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`host:port`; port 0 picks a free port).
    pub addr: String,
    /// Worker threads; 0 = one per core (capped at 16).
    pub workers: usize,
    /// Bounded request queue length; beyond it, 503 + `Retry-After`.
    pub queue_cap: usize,
    /// Result cache capacity in entries.
    pub cache_cap: usize,
    /// Per-request deadline, covering queue wait + parse + compute.
    pub deadline_ms: u64,
    /// Background cache warm-up: after startup and every successful
    /// reload, sweep the `warm` highest-degree origins through the
    /// bit-parallel kernel and pre-fill the reachability cache. 0 = off.
    pub warm: usize,
    /// Per-connection socket read/write timeout. A client that opens a
    /// socket and then stalls (a slowloris, a dead NAT entry) would
    /// otherwise pin a worker forever; on expiry the worker answers 408
    /// and moves on. 0 = no timeout.
    pub io_timeout_ms: u64,
    /// Requests served per connection before the server closes it (a
    /// fairness bound: one chatty client cannot pin a worker forever).
    /// 0 is treated as 1 (close after every request).
    pub keepalive_max: u64,
    /// How long a persistent connection may sit idle between requests
    /// before the server closes it.
    pub keepalive_idle_ms: u64,
    /// Snapshot-store path: warm-start from it when valid, self-heal it
    /// when not, persist every successful reload to it. `None` = no
    /// persistence.
    pub store: Option<String>,
    /// Shard identity as `(id, count)` when this process is one slice of
    /// a sharded layout behind `flatnet router`; surfaced in `/healthz`
    /// so the router (and an operator) can tell shards apart. `None` =
    /// standalone daemon.
    pub shard: Option<(u32, u32)>,
    /// Where the topology comes from.
    pub source: TopologySource,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:8080".into(),
            workers: 0,
            queue_cap: 256,
            cache_cap: 4096,
            deadline_ms: 5000,
            warm: 0,
            io_timeout_ms: 10_000,
            keepalive_max: 1024,
            keepalive_idle_ms: 5000,
            store: None,
            shard: None,
            source: TopologySource::Generated { ases: 4000, seed: 2020 },
        }
    }
}

/// A running daemon. Dropping the handle does *not* stop the server;
/// call [`Server::shutdown`] (tests, bench) or let `/admin/shutdown`
/// end `Server::wait` (CLI).
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Ingests the topology (warm-starting from the snapshot store when
    /// one is configured and valid, failing fast if the health gate
    /// refuses it), binds the listener, and spawns the accept loop +
    /// worker pool.
    pub fn start(cfg: ServeConfig) -> Result<Server, ServeError> {
        let mgr = SnapshotManager::with_store(cfg.source.clone(), cfg.store.clone())?;
        let n_workers = if cfg.workers == 0 {
            std::thread::available_parallelism().map(|p| p.get()).unwrap_or(4).min(16)
        } else {
            cfg.workers
        };
        let shared = Arc::new(Shared::new(mgr, &cfg, n_workers));
        let (listener, addr) = shared
            .front
            .listen(&cfg.addr)
            .map_err(|e| ServeError::Bind { addr: cfg.addr.clone(), message: e.to_string() })?;
        spawn_warmup(&shared, shared.mgr.current());

        let workers: Vec<JoinHandle<()>> = (0..n_workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(shared, i))
                    .map_err(|e| ServeError::Spawn { what: "worker", message: e.to_string() })
            })
            .collect::<Result<_, _>>()?;

        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::Builder::new()
            .name("serve-accept".into())
            .spawn(move || {
                accept_shared.front.accept(listener, |stream| accept_shared.submit(stream))
            })
            .map_err(|e| ServeError::Spawn { what: "accept loop", message: e.to_string() })?;

        flatnet_obs::info!("flatnet-serve listening on http://{addr} ({n_workers} workers)");
        Ok(Server { addr, shared, accept_thread: Some(accept_thread), workers })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks until the daemon stops (via `POST /admin/shutdown`),
    /// joining every thread. Queued requests are drained first.
    pub(crate) fn wait(mut self) {
        self.join_all();
    }

    /// Stops the daemon from the embedding process: flags shutdown,
    /// unblocks the accept loop, drains the queue, joins every thread.
    pub fn shutdown(mut self) {
        self.shared.begin_shutdown();
        self.join_all();
    }

    fn join_all(&mut self) {
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        // Workers park on the queue condvar; the accept loop only returns
        // once shutdown is flagged, and a second notify wakes any worker
        // that checked the flag just before the first.
        self.shared.begin_shutdown();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Runs a daemon in the foreground until `/admin/shutdown` (the CLI
/// entry point).
pub fn serve(cfg: ServeConfig) -> Result<(), ServeError> {
    let server = Server::start(cfg)?;
    println!("flatnet-serve listening on http://{}", server.addr());
    server.wait();
    println!("flatnet-serve: shut down cleanly");
    Ok(())
}
