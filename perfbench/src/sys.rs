//! Process and machine facts read from procfs and the environment.

use std::time::Duration;

/// Logical CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// User + system CPU time of this process so far.
pub fn self_cpu() -> Duration {
    pid_cpu(std::process::id()).unwrap_or_default()
}

/// User + system CPU time of `pid`, from procfs (10 ms resolution).
pub fn pid_cpu(pid: u32) -> Option<Duration> {
    c3_telemetry::sample_process(pid).map(|s| Duration::from_millis(s.cpu_ms))
}

/// Peak resident set size of `pid` (`VmHWM`), in MiB.
pub fn pid_peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let kb: f64 = status.lines().find_map(|line| {
        line.strip_prefix("VmHWM:")?
            .split_whitespace()
            .next()?
            .parse()
            .ok()
    })?;
    Some(kb / 1024.0)
}

/// Peak resident set size of this process, in MiB.
pub fn self_peak_rss_mb() -> f64 {
    pid_peak_rss_mb(std::process::id()).unwrap_or(0.0)
}

/// The source revision under measurement: `git rev-parse HEAD` where the
/// checkout is a git repository, else `"unknown"`.
pub fn git_revision() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}
