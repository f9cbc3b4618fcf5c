//! What the numbers were measured on: core count, CPU model, the measured
//! roofs, the commit — and the process's own peak memory.

use crate::spans::{timed, Recorder};
use mega_exec::{Backend, Calibration};
use serde::{Deserialize, Serialize};

/// The host fingerprint recorded in `latest.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct Fingerprint {
    /// `std::thread::available_parallelism`, as the product resolves it.
    pub(crate) nproc: usize,
    pub(crate) cpu_model: String,
    /// `Calibration::measure` on the `simd` backend, one thread.
    pub(crate) gemm_gflops: f64,
    pub(crate) triad_gbps: f64,
    /// `git rev-parse HEAD`, or `unknown` outside a git checkout.
    pub(crate) git_commit: String,
}

/// The first `model name` of `/proc/cpuinfo`, or `unknown`.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// `Calibration::measure` (one-thread GEMM and STREAM-triad roofs) inside
/// a driver span.
pub(crate) fn roofs(rec: &mut Recorder, backend: &dyn Backend) -> Calibration {
    timed(rec, "exec.calibrate", |_| Calibration::measure(backend)).0
}

/// Measures the roofs on `backend` and collects the rest.
pub(crate) fn fingerprint(backend: &dyn Backend) -> Fingerprint {
    let roofs = Calibration::measure(backend);
    Fingerprint {
        nproc: mega_core::parallel::host_threads(),
        cpu_model: cpu_model(),
        gemm_gflops: roofs.gemm_gflops,
        triad_gbps: roofs.triad_gbps,
        git_commit: git_commit(),
    }
}

/// Parses the `VmHWM` line of a `/proc/<pid>/status` text into megabytes.
pub(crate) fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// This process's peak resident set so far, in MB (0 where `/proc` has no
/// `VmHWM`).
pub(crate) fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm_mb(&s))
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_is_read_in_megabytes() {
        let status = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t  204800 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_mb(status), Some(200.0));
        assert_eq!(parse_vm_hwm_mb("Name:\tx\n"), None);
    }
}
