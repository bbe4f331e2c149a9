//! What the benchmark reads from, and leaves in, its environment: the
//! machine fingerprint, the process's peak memory, and a scratch
//! directory that removes itself.

use crate::json::{self, Value};
use std::path::PathBuf;
use std::process::Command;
use std::sync::atomic::{AtomicU64, Ordering};

/// Peak resident set of this process in MB (`VmHWM`), or 0 where
/// `/proc` does not say.
pub fn peak_rss_mb() -> f64 {
    proc_field("/proc/self/status", "VmHWM:")
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The text after `key` on the first line of `path` that starts with it.
fn proc_field(path: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines()
        .find_map(|line| line.strip_prefix(key))
        .map(|rest| rest.trim_start_matches([' ', '\t', ':']).trim().to_string())
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// Where and on what a result file was produced.
pub fn fingerprint(seed: u64, scale: u64) -> Value {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    json::obj([
        ("nproc", Value::from(nproc)),
        (
            "cpu",
            Value::from(
                proc_field("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".into()),
            ),
        ),
        (
            "kernel",
            Value::from(
                std::fs::read_to_string("/proc/sys/kernel/osrelease")
                    .map_or_else(|_| "unknown".into(), |s| s.trim().to_string()),
            ),
        ),
        ("rustc", Value::from(command_line("rustc", &["-V"]))),
        (
            "git_commit",
            Value::from(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("seed", Value::from(seed)),
        ("scale", Value::from(scale)),
    ])
}

/// Parent of every [`TempDir`].  Under the working directory, not
/// `/tmp`, so a run touches nothing outside its checkout.
const TMP_ROOT: &str = ".cbibench_tmp";

/// Removes [`TMP_ROOT`] if no run (of this or another process) still
/// has a directory in it.  Called once as the process exits.
pub fn remove_tmp_root() {
    let _ = std::fs::remove_dir(TMP_ROOT);
}

/// A fresh directory under [`TMP_ROOT`], removed on drop — also when a
/// check fails or a workload panics.  Journals of up to ~100 MB live
/// here.
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// # Errors
    ///
    /// Returns the I/O error if the directory cannot be created.
    pub fn create() -> std::io::Result<TempDir> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = PathBuf::from(TMP_ROOT).join(format!("{}-{n}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(TempDir { path })
    }

    pub fn file(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn temp_dir_removes_itself_even_on_panic() {
        let kept = {
            let dir = TempDir::create().unwrap();
            std::fs::write(dir.file("journal.cbij"), b"x").unwrap();
            assert!(dir.file("journal.cbij").exists());
            dir.path.clone()
        };
        assert!(!kept.exists());

        let path = std::sync::Mutex::new(PathBuf::new());
        let result = std::panic::catch_unwind(|| {
            let dir = TempDir::create().unwrap();
            *path.lock().unwrap() = dir.path.clone();
            panic!("a failed check");
        });
        assert!(result.is_err());
        assert!(!path.lock().unwrap().exists());
    }

    #[test]
    fn fingerprint_names_machine_and_inputs() {
        let f = fingerprint(7, 2);
        for key in ["nproc", "cpu", "kernel", "rustc", "git_commit"] {
            assert!(f.get(key).is_some(), "{key}");
        }
        assert_eq!(f.get("seed").and_then(Value::as_f64), Some(7.0));
        assert_eq!(f.get("scale").and_then(Value::as_f64), Some(2.0));
        assert!(peak_rss_mb() > 0.0);
    }
}
