//! Where and how a run happened: the environment fingerprint, the
//! guards that keep a meaningless run from being recorded, and the
//! process-level readings (peak memory, generator pacing).

use std::time::{Duration, Instant};

/// The most load threads (client connections, or one client and one
/// writer) the generator ever uses; clamped to the hardware.
const MAX_LOAD_THREADS: usize = 2;
const MAX_SERVER_WORKERS: usize = 4;

#[derive(Clone, Debug)]
pub struct Fingerprint {
    pub available_parallelism: usize,
    pub load_threads: usize,
    pub server_workers: usize,
    pub profile: &'static str,
    pub rustc: String,
    pub commit: String,
    pub loadavg: String,
}

fn first_line_of(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

impl Fingerprint {
    pub fn take() -> Fingerprint {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        Fingerprint {
            available_parallelism: cores,
            load_threads: cores.min(MAX_LOAD_THREADS),
            server_workers: cores.min(MAX_SERVER_WORKERS),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            // Best effort: neither tool need exist where the benchmark runs.
            rustc: first_line_of("rustc", &["-V"]),
            commit: first_line_of("git", &["rev-parse", "--short", "HEAD"]),
            loadavg: std::fs::read_to_string("/proc/loadavg")
                .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string()),
        }
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Open-loop pacing at a fixed rate: operation `i` is due at
/// `start + i / rate`, whatever happened to the ones before it.
pub struct Pacer {
    start: Instant,
    period: Duration,
}

impl Pacer {
    pub fn new(start: Instant, per_second: u32) -> Pacer {
        Pacer {
            start,
            period: Duration::from_secs(1) / per_second.max(1),
        }
    }

    /// Wait until operation `i` is due; returns its due time.
    pub fn wait_for(&self, i: u32) -> Instant {
        let due = self.start + self.period * i;
        loop {
            let now = Instant::now();
            if now >= due {
                return due;
            }
            // Sleep for the bulk of the wait and yield through the rest:
            // a sleep alone overshoots by the timer slack.
            let left = due - now;
            if left > Duration::from_micros(300) {
                std::thread::sleep(left - Duration::from_micros(200));
            } else {
                std::thread::yield_now();
            }
        }
    }
}

/// How late an otherwise idle pacer runs on this machine, in
/// nanoseconds per tick: the floor under the live writer's lateness.
pub fn pacer_probe(per_second: u32, ticks: u32) -> Vec<u64> {
    let pacer = Pacer::new(Instant::now(), per_second);
    (0..ticks)
        .map(|i| {
            let due = pacer.wait_for(i);
            (Instant::now() - due).as_nanos() as u64
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_clamps_threads_to_the_hardware() {
        let f = Fingerprint::take();
        assert!(f.load_threads >= 1 && f.load_threads <= f.available_parallelism);
        assert!(f.load_threads <= MAX_LOAD_THREADS);
        assert!(f.server_workers >= 1 && f.server_workers <= MAX_SERVER_WORKERS);
    }

    #[test]
    fn peak_rss_is_readable_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mib().is_some_and(|m| m > 0.0));
        }
    }

    #[test]
    fn pacer_never_releases_an_operation_early() {
        let start = Instant::now();
        let pacer = Pacer::new(start, 2000);
        for i in 0..20 {
            let due = pacer.wait_for(i);
            assert!(Instant::now() >= due);
            assert_eq!(due, start + Duration::from_micros(500) * i);
        }
    }
}
