//! Host plumbing: where the repository and the build live, building the
//! `ccrp-tools` binary, and reading peak memory and steal time from
//! `/proc`.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// The repository root (this package sits five levels below it).
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../../../..")
}

/// The Cargo target directory this binary was built into.
fn target_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    exe.parent()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .ok_or_else(|| format!("{} has no target directory", exe.display()))
}

/// The benchmark's own directory under the target directory, where the
/// span files go.
pub fn output_dir() -> Result<PathBuf, String> {
    let dir = target_dir()?.join("ccrp-benchmark");
    fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    Ok(dir)
}

/// A fresh, empty scratch directory under [`output_dir`], for results
/// files and the daemon's address file.
pub fn scratch_dir(name: &str) -> Result<PathBuf, String> {
    let dir = output_dir()?.join(format!("{name}-{}", std::process::id()));
    if dir.exists() {
        fs::remove_dir_all(&dir).map_err(|e| format!("clearing {}: {e}", dir.display()))?;
    }
    fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Builds the release `ccrp-tools` binary of the repository into the
/// same target directory as this benchmark and returns its path. A
/// no-op build when it is up to date.
pub fn build_tool() -> Result<PathBuf, String> {
    let target = target_dir()?;
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "--offline", "--quiet"])
        .args(["-p", "ccrp-cli", "--bin", "ccrp-tools"])
        .arg("--manifest-path")
        .arg(repo_root().join("Cargo.toml"))
        .arg("--target-dir")
        .arg(&target)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building ccrp-tools failed: {status}"));
    }
    Ok(target.join("release").join("ccrp-tools"))
}

/// Peak resident set (`VmHWM`) of `pid` (`"self"` for this process) in
/// KiB, or `None` once the process is gone.
pub fn vm_hwm_kib(pid: &str) -> Option<u64> {
    let status = fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Seconds of CPU time the hypervisor has taken from this machine's
/// virtual CPUs since boot (the `steal` column of `/proc/stat`, in
/// Linux's fixed 100 Hz user ticks); `None` off Linux or on a kernel
/// that does not report it.
pub fn steal_seconds() -> Option<f64> {
    let stat = fs::read_to_string("/proc/stat").ok()?;
    let ticks: u64 = stat
        .lines()
        .next()?
        .split_whitespace()
        .nth(8)?
        .parse()
        .ok()?;
    Some(ticks as f64 / 100.0)
}

/// Polls a child's `VmHWM` every 5 ms on a helper thread until stopped,
/// keeping the largest reading.
pub struct PeakPoller {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<u64>,
}

impl PeakPoller {
    /// Starts polling `pid`.
    pub fn start(pid: u32) -> PeakPoller {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = thread::spawn(move || {
            let pid = pid.to_string();
            let mut peak = 0;
            while !flag.load(Ordering::Relaxed) {
                peak = peak.max(vm_hwm_kib(&pid).unwrap_or(0));
                thread::sleep(Duration::from_millis(5));
            }
            peak
        });
        PeakPoller { stop, handle }
    }

    /// Stops polling and returns the peak in KiB.
    pub fn finish(self) -> u64 {
        self.stop.store(true, Ordering::Relaxed);
        self.handle
            .join()
            .expect("the poller thread does not panic")
    }
}
