//! Process-level counters from `/proc/self`: CPU time, resident memory
//! and context switches of the benchmark process (which, every workload
//! running in-process, is the system under test plus its load generator).

use std::fs;

/// A reading of the process's cumulative counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcSample {
    pub user_s: f64,
    pub sys_s: f64,
    pub ctx_switches: u64,
}

/// Kernel clock ticks per second; `USER_HZ` is 100 on every Linux ABI
/// (it is part of the `/proc` contract, independent of the kernel's HZ).
const USER_HZ: f64 = 100.0;

fn status_field(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.split_whitespace().next()?.parse().ok())
}

/// Cumulative `(user, system)` CPU seconds of the process.
fn cpu_times() -> (f64, f64) {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th of the line, i.e. the 12th and 13th after it.
    let mut fields = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest)
        .unwrap_or("")
        .split_whitespace();
    let user_s = fields
        .nth(11)
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(0.0)
        / USER_HZ;
    let sys_s = fields
        .next()
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(0.0)
        / USER_HZ;
    (user_s, sys_s)
}

/// Cumulative user/system CPU seconds and context switches (voluntary +
/// involuntary, summed over the threads alive now; a thread that has
/// exited takes its count with it).
pub fn sample() -> ProcSample {
    let (user_s, sys_s) = cpu_times();

    let mut ctx_switches = 0;
    if let Ok(tasks) = fs::read_dir("/proc/self/task") {
        for task in tasks.flatten() {
            if let Ok(status) = fs::read_to_string(task.path().join("status")) {
                ctx_switches += status_field(&status, "voluntary_ctxt_switches:").unwrap_or(0)
                    + status_field(&status, "nonvoluntary_ctxt_switches:").unwrap_or(0);
            }
        }
    }
    ProcSample {
        user_s,
        sys_s,
        ctx_switches,
    }
}

/// `(VmHWM, VmRSS)` in MB: the peak and the current resident set.
pub fn rss_mb() -> (f64, f64) {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    let mb = |key| status_field(&status, key).unwrap_or(0) as f64 / 1024.0;
    (mb("VmHWM:"), mb("VmRSS:"))
}
