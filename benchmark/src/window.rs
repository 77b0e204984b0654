//! The closed-loop measurement window: `n` caller threads each run one op
//! after another for a fixed time, and the window reports what completed
//! inside it.

use crate::ops::Kind;
use crate::procstat::{self, ProcSample};
use crate::stats::{samples_beyond, LatencyHist};
use std::time::{Duration, Instant};

/// What a caller reports for one completed op.
#[derive(Debug, Clone, Copy)]
pub struct OpDone {
    pub kind: Kind,
    /// Response body bytes (0 for library calls).
    pub bytes: u64,
    /// Origins the op resolved.
    pub origins: u64,
    /// For HTTP ops: when the request was fully written and when the
    /// first response byte arrived.
    pub io: Option<(Instant, Instant)>,
    /// The op had to dial a new connection first.
    pub dialed: bool,
}

/// One caller: runs its `i`-th op, or says why it failed.
pub type Caller<'a> = Box<dyn FnMut(usize) -> Result<OpDone, String> + Send + 'a>;

/// The four client-side moments of an op kept for the trace file.
#[derive(Debug, Clone, Copy)]
pub struct OpSpan {
    pub kind: Kind,
    pub start: Instant,
    pub end: Instant,
    pub io: Option<(Instant, Instant)>,
}

#[derive(Debug, Default)]
struct CallerLog {
    /// Latencies of the ops that completed in the window, per
    /// [`Kind::ALL`] index.
    by_kind: Vec<LatencyHist>,
    failed: u64,
    errors: Vec<String>,
    bytes: u64,
    origins: u64,
    dials: u64,
    write_ns: u64,
    wait_ns: u64,
    read_ns: u64,
    spans: Vec<OpSpan>,
}

/// Everything one window measured.
#[derive(Debug, Default)]
pub struct Window {
    pub seconds: f64,
    /// Latencies of all kinds together.
    pub latencies: LatencyHist,
    /// Latencies per [`Kind::ALL`] index.
    pub by_kind: Vec<LatencyHist>,
    pub failed: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
    pub bytes: u64,
    pub origins: u64,
    /// Connections dialed beyond each caller's first.
    pub reconnects: u64,
    pub cpu_before: ProcSample,
    pub cpu_after: ProcSample,
    /// `VmHWM` and `VmRSS` in MB at the end of the window.
    pub rss_peak_mb: f64,
    pub rss_end_mb: f64,
    /// Client-side time writing requests, waiting for the first byte and
    /// reading bodies, summed over the completed HTTP ops.
    pub write_ns: u64,
    pub wait_ns: u64,
    pub read_ns: u64,
    /// The first `keep_spans` ops of each caller, in caller order.
    pub spans: Vec<Vec<OpSpan>>,
}

impl Window {
    pub fn completed(&self) -> u64 {
        self.latencies.count
    }

    pub fn attempted(&self) -> u64 {
        self.completed() + self.failed
    }

    /// Ops completed ÷ window length.
    pub fn ops_per_s(&self) -> f64 {
        self.completed() as f64 / self.seconds
    }

    /// Process CPU seconds (user + system) per 1 000 completed ops.
    pub fn cpu_s_per_kop(&self) -> f64 {
        self.cpu_s() / self.kops().max(1e-9)
    }

    pub fn percentile_us(&self, p: f64) -> f64 {
        self.latencies.percentile(p).map_or(0.0, |ns| ns / 1e3)
    }

    pub fn samples_beyond(&self, p: f64) -> usize {
        samples_beyond(self.latencies.count as usize, p)
    }

    pub fn mean_latency_us(&self) -> f64 {
        self.latencies.sum_ns as f64 / self.completed().max(1) as f64 / 1e3
    }

    pub fn cpu_s(&self) -> f64 {
        (self.cpu_after.user_s - self.cpu_before.user_s)
            + (self.cpu_after.sys_s - self.cpu_before.sys_s)
    }

    pub fn kops(&self) -> f64 {
        self.completed() as f64 / 1e3
    }

    /// Median latency of one kind in µs (0 when the kind did not run).
    pub fn kind_p50_us(&self, kind: Kind) -> f64 {
        self.by_kind[kind as usize]
            .percentile(50.0)
            .map_or(0.0, |ns| ns / 1e3)
    }

    /// The kind's share of the time callers spent inside ops.
    pub fn kind_share(&self, kind: Kind) -> f64 {
        self.by_kind[kind as usize].sum_ns as f64 / self.latencies.sum_ns.max(1) as f64
    }
}

/// Runs the callers for `seconds` and gathers what completed. Every
/// caller starts at the same instant; an op still in flight when the
/// window closes is finished but not counted. This thread reads the
/// process's CPU time at both edges and its memory at the end.
pub fn run_window(callers: Vec<Caller<'_>>, seconds: f64, keep_spans: usize) -> Window {
    let start_at = Instant::now() + Duration::from_millis(20);
    let deadline = start_at + Duration::from_secs_f64(seconds);
    let mut w = Window {
        seconds,
        by_kind: vec![LatencyHist::default(); Kind::ALL.len()],
        ..Window::default()
    };
    let logs: Vec<CallerLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = callers
            .into_iter()
            .map(|mut caller| {
                scope.spawn(move || {
                    let mut log = CallerLog {
                        by_kind: vec![LatencyHist::default(); Kind::ALL.len()],
                        ..CallerLog::default()
                    };
                    std::thread::sleep(start_at.saturating_duration_since(Instant::now()));
                    for i in 0.. {
                        let start = Instant::now();
                        if start >= deadline {
                            break;
                        }
                        let result = caller(i);
                        let end = Instant::now();
                        if end > deadline {
                            break;
                        }
                        match result {
                            Ok(done) => {
                                let ns = (end - start).as_nanos().min(u32::MAX as u128) as u32;
                                log.by_kind[done.kind as usize].record(ns);
                                log.bytes += done.bytes;
                                log.origins += done.origins;
                                log.dials += u64::from(done.dialed);
                                if let Some((written, first_byte)) = done.io {
                                    log.write_ns += (written - start).as_nanos() as u64;
                                    log.wait_ns +=
                                        first_byte.saturating_duration_since(written).as_nanos()
                                            as u64;
                                    log.read_ns +=
                                        end.saturating_duration_since(first_byte).as_nanos() as u64;
                                }
                                if log.spans.len() < keep_spans {
                                    log.spans.push(OpSpan {
                                        kind: done.kind,
                                        start,
                                        end,
                                        io: done.io,
                                    });
                                }
                            }
                            Err(e) => {
                                log.failed += 1;
                                if log.errors.len() < 3 {
                                    log.errors.push(e);
                                }
                            }
                        }
                    }
                    log
                })
            })
            .collect();
        std::thread::sleep(start_at.saturating_duration_since(Instant::now()));
        w.cpu_before = procstat::sample();
        std::thread::sleep(deadline.saturating_duration_since(Instant::now()));
        w.cpu_after = procstat::sample();
        (w.rss_peak_mb, w.rss_end_mb) = procstat::rss_mb();
        handles
            .into_iter()
            .map(|h| h.join().expect("caller thread panicked"))
            .collect()
    });

    for log in logs {
        for (all, one) in w.by_kind.iter_mut().zip(&log.by_kind) {
            all.merge(one);
            w.latencies.merge(one);
        }
        w.failed += log.failed;
        w.errors.extend(log.errors);
        w.bytes += log.bytes;
        w.origins += log.origins;
        // Every caller's first op dials; only the later dials are
        // reconnects.
        w.reconnects += log.dials.saturating_sub(1);
        w.write_ns += log.write_ns;
        w.wait_ns += log.wait_ns;
        w.read_ns += log.read_ns;
        w.spans.push(log.spans);
    }
    w
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_counts_only_what_completed_inside_it() {
        let caller = |kind: Kind, ms: u64| -> Caller<'static> {
            Box::new(move |i| {
                std::thread::sleep(Duration::from_millis(ms));
                if i == 1 {
                    return Err("second op fails".into());
                }
                Ok(OpDone {
                    kind,
                    bytes: 10,
                    origins: 2,
                    io: None,
                    dialed: false,
                })
            })
        };
        let w = run_window(
            vec![caller(Kind::Single, 5), caller(Kind::Leak, 20)],
            0.5,
            2,
        );
        assert_eq!(w.failed, 2);
        assert_eq!(w.errors.len(), 2);
        let (singles, leaks) = (
            w.by_kind[Kind::Single as usize].count,
            w.by_kind[Kind::Leak as usize].count,
        );
        assert!((50..=99).contains(&singles), "{singles}");
        assert!((15..=24).contains(&leaks), "{leaks}");
        assert_eq!(w.completed(), singles + leaks);
        assert_eq!(w.attempted(), w.completed() + 2);
        assert_eq!(w.bytes, 10 * w.completed());
        assert!(w.kind_p50_us(Kind::Leak) >= 20_000.0);
        assert!(w.kind_share(Kind::Leak) > 0.3 && w.kind_share(Kind::Dense) == 0.0);
        assert_eq!(w.spans.iter().map(Vec::len).collect::<Vec<_>>(), [2, 2]);
        assert_eq!(w.ops_per_s(), w.completed() as f64 / 0.5);
    }
}
