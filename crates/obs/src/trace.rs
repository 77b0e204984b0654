//! Request-scoped tracing: per-request stage timings, a bounded ring of
//! recent requests, a slowest-K reservoir, and the `flatnet-trace/v1`
//! dump format.
//!
//! The serve path allocates a [`TraceCtx`] at accept time and carries it
//! through HTTP parse → bounded queue → worker → cache probe → engine →
//! response write. Each boundary calls [`TraceCtx::mark`], attributing
//! the interval since the previous boundary to one [`Stage`]. The worker
//! finishes the context into a fixed-size [`TraceEvent`] and hands it to
//! the [`Tracer`], which:
//!
//! - appends it to the ring of the most recent events — one bounded
//!   queue behind a mutex that any thread may write, held for a 112-byte
//!   copy (34–40 ns a push uncontended, against requests of ≥ 16 µs);
//! - offers it to a global slowest-K reservoir (small `Mutex`, guarded
//!   by an atomic floor so the common fast request never takes it).
//!
//! Readers ([`Tracer::recent`], [`Tracer::slow`], `/debug/trace/*`) copy
//! out under the same locks, so an event is read whole or not at all.
//! Drained events serialize as a [`TraceDump`] — an integer-only JSON
//! document (`flatnet-trace/v1`) the `flatnet trace top` subcommand
//! summarizes offline.

use crate::registry::lock;
use crate::snapshot::doc;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Instant, SystemTime};

/// The pipeline stages a request passes through, in order. `Panic` is
/// terminal and replaces whatever stage the worker died in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(usize)]
pub enum Stage {
    /// Accept → worker dequeue.
    QueueWait = 0,
    /// Parked on a persistent connection waiting for the next request.
    KeepaliveIdle = 1,
    /// Reading and parsing the HTTP request head.
    Parse = 2,
    /// Result-cache lookup (hit or miss).
    CacheProbe = 3,
    /// Engine / lane-kernel propagation on a cache miss.
    Propagate = 4,
    /// Rendering the response body.
    Serialize = 5,
    /// Writing the response to the socket.
    Write = 6,
    /// The worker panicked during this request.
    Panic = 7,
}

/// Number of distinct stages.
pub const STAGES: usize = 8;

impl Stage {
    /// Every stage, in pipeline order.
    pub const ALL: [Stage; STAGES] = [
        Stage::QueueWait,
        Stage::KeepaliveIdle,
        Stage::Parse,
        Stage::CacheProbe,
        Stage::Propagate,
        Stage::Serialize,
        Stage::Write,
        Stage::Panic,
    ];

    /// The stable snake_case name used in metrics labels and dumps.
    pub fn name(self) -> &'static str {
        match self {
            Stage::QueueWait => "queue_wait",
            Stage::KeepaliveIdle => "keepalive_idle",
            Stage::Parse => "parse",
            Stage::CacheProbe => "cache_probe",
            Stage::Propagate => "propagate",
            Stage::Serialize => "serialize",
            Stage::Write => "write",
            Stage::Panic => "panic",
        }
    }

    /// Inverse of [`Stage::name`].
    pub(crate) fn from_name(name: &str) -> Option<Stage> {
        Stage::ALL.into_iter().find(|s| s.name() == name)
    }
}

/// Maximum endpoint-tag length stored inline in a [`TraceEvent`].
pub(crate) const TAG_BYTES: usize = 12;

/// One finished request, fixed-size and `Copy` so ring slots never
/// allocate and a push is a plain memcpy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceEvent {
    /// Nonzero request id (also in the `X-Flatnet-Trace-Id` header).
    pub trace_id: u64,
    /// Wall-clock completion time, milliseconds since the Unix epoch.
    pub end_unix_ms: u64,
    /// Accept-to-written total, microseconds.
    pub total_us: u64,
    /// Per-stage elapsed microseconds (meaningful where the mask bit is
    /// set).
    pub stages_us: [u64; STAGES],
    /// Bit `1 << stage` set for every stage the request entered.
    pub stage_mask: u32,
    /// Origin AS of the query, 0 when not applicable.
    pub origin: u32,
    /// HTTP status written.
    pub status: u16,
    /// Served from the result cache.
    pub cached: bool,
    /// Terminated by a worker panic.
    pub panicked: bool,
    /// Endpoint tag, NUL-padded ASCII (`"reachability"`, `"metrics"`…).
    pub tag: [u8; TAG_BYTES],
}

impl TraceEvent {
    /// The elapsed time of `stage`, if the request entered it.
    pub fn stage_us(&self, stage: Stage) -> Option<u64> {
        (self.stage_mask & (1 << stage as usize) != 0).then(|| self.stages_us[stage as usize])
    }

    /// Stores `tag` (truncated to `TAG_BYTES`) as the endpoint tag.
    pub fn set_tag(&mut self, tag: &str) {
        self.tag = [0; TAG_BYTES];
        for (slot, b) in self.tag.iter_mut().zip(tag.bytes()) {
            *slot = b;
        }
    }

    /// The endpoint tag as a string slice.
    pub fn tag_str(&self) -> &str {
        let end = self.tag.iter().position(|&b| b == 0).unwrap_or(TAG_BYTES);
        std::str::from_utf8(&self.tag[..end]).unwrap_or("")
    }
}

/// A live per-request context: the trace id, the accept instant, and the
/// event being accumulated. Created once at accept time and moved with
/// the job through the queue into the worker.
#[derive(Debug)]
pub struct TraceCtx {
    started: Instant,
    /// Microseconds since `started` at the last stage boundary.
    last_us: u64,
    ev: TraceEvent,
}

impl TraceCtx {
    /// Opens a context for trace id `id` (use [`Tracer::next_id`]).
    /// The clock starts now; the first [`mark`](Self::mark) attributes
    /// everything since this call.
    pub fn new(id: u64) -> TraceCtx {
        let ev = TraceEvent { trace_id: id, ..TraceEvent::default() };
        TraceCtx { started: Instant::now(), last_us: 0, ev }
    }

    /// The trace id.
    pub fn id(&self) -> u64 {
        self.ev.trace_id
    }

    /// Replaces the trace id — used when an upstream hop (a router in
    /// front of this process) already assigned one and propagated it via
    /// `X-Flatnet-Trace-Id`, so the two processes' traces stitch
    /// together under a single id. Timing state is untouched.
    pub fn set_id(&mut self, id: u64) {
        self.ev.trace_id = id;
    }

    /// Closes the interval since the previous boundary (or since
    /// [`new`](Self::new)) and attributes it to `stage`. Stages may
    /// repeat (durations add) and may be skipped entirely; skipped
    /// stages stay absent from the mask. Marking [`Stage::Panic`] also
    /// sets the panicked flag.
    pub fn mark(&mut self, stage: Stage) {
        let now_us = self.started.elapsed().as_micros() as u64;
        self.ev.stages_us[stage as usize] += now_us - self.last_us;
        self.ev.stage_mask |= 1 << stage as usize;
        self.last_us = now_us;
        if stage == Stage::Panic {
            self.ev.panicked = true;
        }
    }

    /// Sets the origin AS the request queried.
    pub fn set_origin(&mut self, origin: u32) {
        self.ev.origin = origin;
    }

    /// Marks the request as served from the result cache.
    pub fn set_cached(&mut self, cached: bool) {
        self.ev.cached = cached;
    }

    /// Sets the endpoint tag (`"reachability"`, `"healthz"`, …).
    pub fn set_tag(&mut self, tag: &str) {
        self.ev.set_tag(tag);
    }

    /// Seals the context into its terminal event: stamps the HTTP
    /// status, the wall-clock end time, and the total accept-to-now
    /// duration. Takes `&mut self` (not `self`) so the panic-recovery
    /// path can finish a context it only holds by reference.
    pub fn finish(&mut self, status: u16) -> TraceEvent {
        self.ev.status = status;
        self.ev.total_us = self.started.elapsed().as_micros() as u64;
        self.ev.end_unix_ms = SystemTime::now()
            .duration_since(SystemTime::UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        self.ev
    }
}

/// SplitMix64 — the id mixer; full-period, so ids never collide within
/// a process lifetime.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// Process-wide trace collection: the ring of recent events, a
/// slowest-K reservoir, and the trace-id generator. Every method is safe
/// from any thread.
#[derive(Debug)]
pub struct Tracer {
    /// The most recent `capacity` events, oldest first.
    ring: Mutex<VecDeque<TraceEvent>>,
    capacity: usize,
    /// Slowest events ever recorded, sorted by `total_us` descending,
    /// truncated to [`Tracer::SLOW_K`].
    slow: Mutex<Vec<TraceEvent>>,
    /// `total_us` of the reservoir's current tail once full — events
    /// below it skip the lock entirely.
    slow_floor: AtomicU64,
    next: AtomicU64,
    seed: u64,
}

impl Tracer {
    /// Capacity of the slowest-K reservoir.
    pub const SLOW_K: usize = 64;

    /// A tracer whose ring holds the last `capacity` events (at least
    /// one).
    pub fn new(capacity: usize) -> Tracer {
        let seed = SystemTime::now()
            .duration_since(SystemTime::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0x5eed)
            | 1;
        Tracer::with_seed(capacity, seed)
    }

    /// Like [`Tracer::new`] with a fixed id seed, for deterministic
    /// tests.
    pub(crate) fn with_seed(capacity: usize, seed: u64) -> Tracer {
        let capacity = capacity.max(1);
        Tracer {
            ring: Mutex::new(VecDeque::with_capacity(capacity)),
            capacity,
            slow: Mutex::new(Vec::new()),
            slow_floor: AtomicU64::new(0),
            next: AtomicU64::new(0),
            seed,
        }
    }

    /// A fresh nonzero trace id. Thread-safe.
    pub fn next_id(&self) -> u64 {
        loop {
            let n = self.next.fetch_add(1, Ordering::Relaxed);
            let id = splitmix64(self.seed.wrapping_add(n));
            if id != 0 {
                return id;
            }
        }
    }

    /// Records a finished event: appends it to the ring, dropping the
    /// oldest one when full, and offers it to the slowest-K reservoir.
    pub fn record(&self, ev: TraceEvent) {
        {
            let mut ring = lock(&self.ring);
            if ring.len() == self.capacity {
                ring.pop_front();
            }
            ring.push_back(ev);
        }
        if ev.total_us >= self.slow_floor.load(Ordering::Relaxed) {
            let mut slow = lock(&self.slow);
            slow.push(ev);
            slow.sort_by(|a, b| {
                b.total_us.cmp(&a.total_us).then(a.trace_id.cmp(&b.trace_id))
            });
            slow.truncate(Tracer::SLOW_K);
            if slow.len() == Tracer::SLOW_K {
                self.slow_floor.store(slow[Tracer::SLOW_K - 1].total_us, Ordering::Relaxed);
            }
        }
    }

    /// The most recent `n` events in the ring, newest first.
    pub fn recent(&self, n: usize) -> Vec<TraceEvent> {
        lock(&self.ring).iter().rev().take(n).copied().collect()
    }

    /// Up to `n` reservoir events at least `min_us` slow, slowest
    /// first.
    pub fn slow(&self, min_us: u64, n: usize) -> Vec<TraceEvent> {
        let slow = lock(&self.slow);
        slow.iter().filter(|ev| ev.total_us >= min_us).take(n).copied().collect()
    }
}

/// A drained set of trace events with its JSON document form
/// (`flatnet-trace/v1`) — what `/debug/trace/*` serves and
/// `flatnet trace top` consumes.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TraceDump {
    /// The events, in whatever order the producer chose (recent: newest
    /// first; slow: slowest first).
    pub events: Vec<TraceEvent>,
}

/// Schema identifier of trace dump documents.
pub(crate) const TRACE_SCHEMA: &str = "flatnet-trace/v1";

impl TraceDump {
    /// Serializes to the canonical integer-only JSON document. Booleans
    /// encode as 0/1 because the obs JSON dialect (shared with
    /// `flatnet-obs/v2`) is integers and strings only.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema\": \"{TRACE_SCHEMA}\",");
        out.push_str("  \"events\": [");
        for (i, ev) in self.events.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            let _ = write!(
                out,
                "    {{\"trace_id\": {}, \"end_unix_ms\": {}, \"total_us\": {}, \
                 \"origin\": {}, \"status\": {}, \"cached\": {}, \"panicked\": {}, \
                 \"endpoint\": \"{}\", \"stages\": {{",
                ev.trace_id,
                ev.end_unix_ms,
                ev.total_us,
                ev.origin,
                ev.status,
                ev.cached as u8,
                ev.panicked as u8,
                ev.tag_str(),
            );
            let mut first = true;
            for stage in Stage::ALL {
                if let Some(us) = ev.stage_us(stage) {
                    if !first {
                        out.push_str(", ");
                    }
                    first = false;
                    let _ = write!(out, "\"{}\": {us}", stage.name());
                }
            }
            out.push_str("}}");
        }
        if !self.events.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }

    /// Parses a document produced by [`TraceDump::to_json`];
    /// re-serializing the result is byte-identical.
    pub fn from_json(text: &str) -> Result<TraceDump, String> {
        let top = doc::parse(text)?;
        doc::object(&top, "top level")?;
        let schema = doc::string(top.get("schema").ok_or("missing \"schema\"")?, "schema")?;
        if schema != TRACE_SCHEMA {
            return Err(format!("unsupported schema {schema:?} (want {TRACE_SCHEMA:?})"));
        }
        let mut dump = TraceDump::default();
        let events = match top.get("events") {
            Some(v) => doc::array(v, "events")?,
            None => return Ok(dump),
        };
        for entry in events {
            doc::object(entry, "event")?;
            let get = |k: &str| entry.get(k).ok_or_else(|| format!("event missing {k:?}"));
            let uint = |k: &str| doc::uint(get(k)?, k);
            let mut ev = TraceEvent {
                trace_id: uint("trace_id")?,
                end_unix_ms: uint("end_unix_ms")?,
                total_us: uint("total_us")?,
                origin: uint("origin")? as u32,
                status: uint("status")? as u16,
                cached: uint("cached")? != 0,
                panicked: uint("panicked")? != 0,
                ..TraceEvent::default()
            };
            ev.set_tag(doc::string(get("endpoint")?, "endpoint")?);
            for (name, us) in doc::object(get("stages")?, "stages")? {
                let stage = Stage::from_name(name)
                    .ok_or_else(|| format!("unknown stage {name:?}"))?;
                ev.stages_us[stage as usize] = doc::uint(us, "stage us")?;
                ev.stage_mask |= 1 << stage as usize;
            }
            dump.events.push(ev);
        }
        Ok(dump)
    }

    /// Renders the `flatnet trace top` summary: stage breakdown across
    /// all events, then the `top` slowest origins and requests.
    pub fn render_top(&self, top: usize) -> String {
        let mut out = String::new();
        let n = self.events.len();
        let panicked = self.events.iter().filter(|e| e.panicked).count();
        let cached = self.events.iter().filter(|e| e.cached).count();
        let _ = writeln!(
            out,
            "trace dump: {n} events ({cached} cached, {panicked} panicked)"
        );
        if n == 0 {
            return out;
        }

        let total_us: u64 = self.events.iter().map(|e| e.total_us).sum();
        out.push_str("stage breakdown:\n");
        for stage in Stage::ALL {
            let (mut sum, mut count) = (0u64, 0u64);
            for ev in &self.events {
                if let Some(us) = ev.stage_us(stage) {
                    sum += us;
                    count += 1;
                }
            }
            if count == 0 {
                continue;
            }
            let pct = if total_us == 0 { 0.0 } else { 100.0 * sum as f64 / total_us as f64 };
            let _ = writeln!(
                out,
                "  {:<14}  {:>7} hits  {:>12} us total  {pct:>5.1}%",
                stage.name(),
                count,
                sum,
            );
        }

        let mut by_origin: std::collections::BTreeMap<u32, (u64, u64, u64)> =
            std::collections::BTreeMap::new();
        for ev in &self.events {
            let entry = by_origin.entry(ev.origin).or_default();
            entry.0 += 1;
            entry.1 += ev.total_us;
            entry.2 = entry.2.max(ev.total_us);
        }
        let mut origins: Vec<_> = by_origin.into_iter().collect();
        origins.sort_by(|a, b| b.1 .1.cmp(&a.1 .1).then(a.0.cmp(&b.0)));
        out.push_str("slowest origins:\n");
        for (origin, (count, sum, max)) in origins.into_iter().take(top) {
            let _ = writeln!(
                out,
                "  AS{origin:<10}  {count:>7} reqs  {sum:>12} us total  \
                 {:>10} us mean  {max:>10} us max",
                sum / count,
            );
        }

        let mut slowest: Vec<&TraceEvent> = self.events.iter().collect();
        slowest.sort_by(|a, b| b.total_us.cmp(&a.total_us).then(a.trace_id.cmp(&b.trace_id)));
        out.push_str("slowest requests:\n");
        for ev in slowest.into_iter().take(top) {
            let _ = writeln!(
                out,
                "  {:016x}  {:>10} us  status {}  AS{:<10}  {:<12}{}{}",
                ev.trace_id,
                ev.total_us,
                ev.status,
                ev.origin,
                ev.tag_str(),
                if ev.cached { "  cached" } else { "" },
                if ev.panicked { "  PANIC" } else { "" },
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(id: u64, total_us: u64) -> TraceEvent {
        let mut ev = TraceEvent {
            trace_id: id,
            total_us,
            end_unix_ms: 1_000 + id,
            origin: 15169,
            status: 200,
            ..TraceEvent::default()
        };
        ev.set_tag("reachability");
        ev.stages_us[Stage::QueueWait as usize] = total_us / 2;
        ev.stage_mask = 1 << Stage::QueueWait as usize;
        ev
    }

    /// `record` runs outside the daemon's `catch_unwind`: a lock some
    /// request died under must not kill every later one.
    #[test]
    fn a_poisoned_tracer_keeps_recording() {
        let t = Tracer::with_seed(4, 1);
        t.record(event(1, 500));
        crate::registry::tests::poison(&t.ring);
        crate::registry::tests::poison(&t.slow);
        t.record(event(2, 900));
        let ids = |evs: Vec<TraceEvent>| evs.iter().map(|e| e.trace_id).collect::<Vec<_>>();
        assert_eq!(ids(t.slow(0, 8)), [2, 1]);
        assert_eq!(ids(t.recent(8)), [2, 1]);
    }

    #[test]
    fn ctx_attributes_intervals_to_stages() {
        let mut ctx = TraceCtx::new(42);
        ctx.mark(Stage::Parse);
        ctx.set_origin(64500);
        ctx.set_cached(true);
        ctx.set_tag("reachability");
        let ev = ctx.finish(200);
        assert_eq!(ev.trace_id, 42);
        assert_eq!(ev.status, 200);
        assert_eq!(ev.origin, 64500);
        assert!(ev.cached && !ev.panicked);
        assert!(ev.stage_us(Stage::Parse).is_some());
        assert_eq!(ev.stage_us(Stage::Propagate), None, "never entered");
        assert_eq!(ev.tag_str(), "reachability");
    }

    #[test]
    fn marking_panic_sets_the_flag() {
        let mut ctx = TraceCtx::new(7);
        ctx.mark(Stage::Panic);
        let ev = ctx.finish(500);
        assert!(ev.panicked);
        assert!(ev.stage_us(Stage::Panic).is_some());
    }

    #[test]
    fn ring_keeps_the_newest_events() {
        let tracer = Tracer::with_seed(4, 1);
        for i in 1..=10u64 {
            tracer.record(event(i, i * 100));
        }
        let ids = |n| tracer.recent(n).iter().map(|e| e.trace_id).collect::<Vec<_>>();
        assert_eq!(ids(100), vec![10, 9, 8, 7]);
        assert_eq!(ids(2), vec![10, 9]);
    }

    /// An event every field of which is a function of its id.
    fn derived(writer: u64, k: u64) -> TraceEvent {
        let id = (writer << 32) | (k + 1);
        let h = splitmix64(id);
        let mut ev = TraceEvent {
            trace_id: id,
            end_unix_ms: h,
            total_us: h >> 7,
            stages_us: std::array::from_fn(|i| h.rotate_left(i as u32 * 8)),
            stage_mask: h as u32 & 0xff,
            origin: (h >> 32) as u32,
            status: h as u16,
            cached: h & 1 == 1,
            panicked: h & 2 == 2,
            ..TraceEvent::default()
        };
        ev.set_tag(&format!("{:012x}", h >> 16));
        ev
    }

    /// The ring under attack (CI runs this crate's tests in `--release`
    /// too): 8 threads write 50 000 events each through one `Tracer`
    /// while two readers keep copying the ring out. Every event read is
    /// whole, every window read is a window of the push sequence — each
    /// writer's events in it are consecutive and in order — a reader's
    /// window never shrinks, and what is left at the end are the last
    /// `capacity` pushes.
    #[test]
    fn ring_survives_eight_writers_and_concurrent_readers() {
        const WRITERS: u64 = 8;
        const EVENTS: u64 = 50_000;
        const CAPACITY: usize = 768;
        let tracer = Tracer::with_seed(CAPACITY, 1);
        // `window` is newest first. Returns each writer's newest `k` in it.
        let check = |window: &[TraceEvent]| {
            let mut newest = [None::<u64>; WRITERS as usize];
            let mut oldest = [0u64; WRITERS as usize];
            for ev in window {
                let (w, k) = (ev.trace_id >> 32, (ev.trace_id & 0xffff_ffff) - 1);
                assert_eq!(*ev, derived(w, k), "torn or foreign event");
                match newest[w as usize] {
                    None => newest[w as usize] = Some(k),
                    Some(_) => assert_eq!(k + 1, oldest[w as usize], "writer {w}: gap or reorder"),
                }
                oldest[w as usize] = k;
            }
            newest
        };
        let writing = std::sync::atomic::AtomicBool::new(true);
        let start = std::sync::Barrier::new(WRITERS as usize + 2);
        std::thread::scope(|s| {
            let writers: Vec<_> = (0..WRITERS)
                .map(|w| {
                    let (tracer, start) = (&tracer, &start);
                    s.spawn(move || {
                        start.wait();
                        for k in 0..EVENTS {
                            tracer.record(derived(w, k));
                        }
                    })
                })
                .collect();
            for _ in 0..2 {
                s.spawn(|| {
                    start.wait();
                    let (mut reads, mut len) = (0u64, 0);
                    while writing.load(Ordering::SeqCst) || reads == 0 {
                        let window = tracer.recent(CAPACITY);
                        assert!(window.len() >= len, "the ring shrank");
                        len = window.len();
                        check(&window);
                        reads += 1;
                    }
                });
            }
            for w in writers {
                w.join().expect("writer finished");
            }
            writing.store(false, Ordering::SeqCst);
        });
        let last = tracer.recent(usize::MAX);
        assert_eq!(last.len(), CAPACITY);
        // The last pushes: whoever is in the final window is there with
        // its own last event, and the very last push is some writer's.
        let newest = check(&last);
        assert!(newest.iter().flatten().all(|&k| k == EVENTS - 1), "{newest:?}");
        assert_eq!(last[0].trace_id & 0xffff_ffff, EVENTS);
    }

    #[test]
    fn tracer_ids_are_nonzero_and_unique() {
        let tracer = Tracer::with_seed(8, 0xfeed);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..10_000 {
            let id = tracer.next_id();
            assert_ne!(id, 0);
            assert!(seen.insert(id), "duplicate id {id}");
        }
    }

    #[test]
    fn slow_reservoir_keeps_the_slowest_k() {
        let tracer = Tracer::with_seed(4, 1);
        for i in 1..=200u64 {
            tracer.record(event(i, i * 10));
        }
        let slow = tracer.slow(0, 3);
        assert_eq!(slow.iter().map(|e| e.total_us).collect::<Vec<_>>(), vec![2000, 1990, 1980]);
        assert!(tracer.slow(1_995, 10).len() == 1);
        assert_eq!(tracer.slow(0, 1000).len(), Tracer::SLOW_K);
    }

    #[test]
    fn dump_round_trips_and_is_byte_stable() {
        let mut panic_ev = event(9, 900);
        panic_ev.panicked = true;
        panic_ev.status = 500;
        panic_ev.stages_us[Stage::Panic as usize] = 5;
        panic_ev.stage_mask |= 1 << Stage::Panic as usize;
        let dump = TraceDump { events: vec![event(1, 100), panic_ev] };
        let json = dump.to_json();
        assert!(json.contains("\"schema\": \"flatnet-trace/v1\""), "{json}");
        assert!(json.contains("\"panic\": 5"), "{json}");
        let back = TraceDump::from_json(&json).unwrap();
        assert_eq!(back, dump);
        assert_eq!(back.to_json(), json);
        assert!(TraceDump::from_json("{\"schema\": \"bogus\"}").is_err());
    }

    #[test]
    fn render_top_summarizes_stages_origins_and_requests() {
        let mut events = vec![event(1, 100), event(2, 5_000), event(3, 50)];
        events[1].origin = 64500;
        let text = TraceDump { events }.render_top(2);
        assert!(text.contains("3 events"), "{text}");
        assert!(text.contains("queue_wait"), "{text}");
        assert!(text.contains("AS64500"), "{text}");
        assert!(text.contains("0000000000000002"), "{text}");
        // top=2 truncates the request list.
        assert!(!text.contains("0000000000000003"), "{text}");
        assert!(TraceDump::default().render_top(5).contains("0 events"));
    }
}
