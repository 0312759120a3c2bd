//! The process's view of its host: cores, peak memory, scratch space.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set size of this process in MB (`VmHWM` from
/// `/proc/self/status`), or `None` where procfs does not offer it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Free bytes on the filesystem holding `dir`, via `df -Pk` (the standard
/// library has no `statvfs`). `None` when `df` is missing or unparsable.
pub fn free_disk_bytes(dir: &Path) -> Option<u64> {
    let out = std::process::Command::new("df")
        .arg("-Pk")
        .arg(dir)
        .output()
        .ok()?;
    let text = String::from_utf8(out.stdout).ok()?;
    let kb: u64 = text
        .lines()
        .nth(1)?
        .split_whitespace()
        .nth(3)?
        .parse()
        .ok()?;
    Some(kb * 1024)
}

/// Where build outputs go: `$CARGO_TARGET_DIR`, else `target/` under the
/// current directory. Everything the benchmark writes lives below it.
pub fn output_root() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("target"), PathBuf::from)
        .join("benchmark")
}

/// The run's one temp directory, `<output_root>/run-<pid>/`, removed when
/// the guard drops — on success, on an `Err` return and on a panic that
/// unwinds through `main`. (The tests run several workloads in one
/// process; their directories get a `-<n>` suffix.)
pub struct RunDir(PathBuf);

impl RunDir {
    pub fn create() -> std::io::Result<RunDir> {
        static RUNS: AtomicUsize = AtomicUsize::new(0);
        let name = match RUNS.fetch_add(1, Ordering::Relaxed) {
            0 => format!("run-{}", std::process::id()),
            n => format!("run-{}-{n}", std::process::id()),
        };
        let path = output_root().join(name);
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(RunDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Copy a directory of plain files (a WAL directory) to `to`.
pub fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))?;
    }
    Ok(())
}

/// Bytes of the plain files directly inside `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir).map_or(0, |entries| {
        entries
            .filter_map(|e| e.ok()?.metadata().ok())
            .map(|m| m.len())
            .sum()
    })
}
