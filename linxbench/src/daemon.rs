//! Building and supervising the `linx serve` child process.

use std::io::{BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use linxbench::{client, procfs};

/// Dataset rows, training episodes, worker threads and data seed the daemon
/// runs with. The in-process replay uses the same values.
pub const ROWS: usize = 2000;
pub const EPISODES: usize = 80;
pub const WORKERS: usize = 2;
pub const DATA_SEED: u64 = 42;

/// Build the repository's `linx` binary (release profile) from the checkout
/// in the current directory and return its path.
pub fn build_linx() -> Result<PathBuf, String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--quiet",
            "--manifest-path",
            "Cargo.toml",
            "-p",
            "linx-cli",
            "--bin",
            "linx",
        ])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building the linx binary failed ({status})"));
    }
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"));
    let bin = target.join("release").join("linx");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("no linx binary at {}", bin.display()))
    }
}

/// A running daemon.
pub struct Daemon {
    child: Child,
    /// The loopback address it listens on.
    pub addr: SocketAddr,
    stdout: Option<JoinHandle<()>>,
}

/// Spawn `linx serve` and wait for its first `/healthz` 200. Returns the
/// daemon and the seconds from spawn to that answer.
pub fn spawn(bin: &Path, cache_dir: Option<&Path>) -> Result<(Daemon, f64), String> {
    let started = Instant::now();
    let mut cmd = Command::new(bin);
    cmd.args([
        "serve",
        "--addr",
        "127.0.0.1:0",
        "--rows",
        &ROWS.to_string(),
        "--seed",
        &DATA_SEED.to_string(),
        "--episodes",
        &EPISODES.to_string(),
        "--workers",
        &WORKERS.to_string(),
    ])
    .stdin(Stdio::piped())
    .stdout(Stdio::piped())
    .stderr(Stdio::inherit());
    if let Some(dir) = cache_dir {
        cmd.arg("--cache-dir").arg(dir);
    }
    let mut child = cmd.spawn().map_err(|e| format!("spawn linx serve: {e}"))?;

    // The banner carries the ephemeral port; the reader thread keeps draining
    // stdout afterwards so the child never blocks on a full pipe.
    let stdout = child.stdout.take().expect("stdout is piped");
    let (tx, rx) = mpsc::channel();
    let reader = std::thread::spawn(move || {
        for line in BufReader::new(stdout).lines().map_while(Result::ok) {
            if let Some(rest) = line.split("listening on http://").nth(1) {
                let addr = rest.split_whitespace().next().and_then(|a| a.parse().ok());
                let _ = tx.send(addr);
            }
        }
    });
    let mut daemon = Daemon {
        child,
        addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        stdout: Some(reader),
    };
    match rx.recv_timeout(Duration::from_secs(120)) {
        Ok(Some(addr)) => daemon.addr = addr,
        _ => {
            daemon.kill();
            return Err("linx serve printed no listening banner".to_string());
        }
    }
    loop {
        if let Ok(resp) = client::once(daemon.addr, "GET", "/healthz") {
            if resp.status == 200 {
                break;
            }
        }
        if started.elapsed() > Duration::from_secs(120) {
            daemon.kill();
            return Err("linx serve never answered /healthz with 200".to_string());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    Ok((daemon, started.elapsed().as_secs_f64()))
}

impl Daemon {
    /// The child's peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("read /proc status of the daemon: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| "no VmHWM line in /proc status".to_string())
    }

    /// CPU seconds (user plus system, all threads) the child has used so far.
    pub fn cpu_s(&self) -> Result<f64, String> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.child.id()))
            .map_err(|e| format!("read /proc stat of the daemon: {e}"))?;
        procfs::process_ticks(&stat)
            .map(|ticks| ticks as f64 / procfs::USER_HZ)
            .ok_or_else(|| "no CPU times in /proc stat of the daemon".to_string())
    }

    /// Graceful drain over stdin, bounded at 60 s.
    pub fn shutdown(mut self) -> Result<(), String> {
        if let Some(mut stdin) = self.child.stdin.take() {
            let _ = stdin.write_all(b"shutdown\n");
        }
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => {
                    self.join_stdout();
                    return if status.success() {
                        Ok(())
                    } else {
                        Err(format!("linx serve exited with {status}"))
                    };
                }
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    self.kill();
                    return Err("linx serve did not drain within 60 s".to_string());
                }
            }
        }
    }

    fn join_stdout(&mut self) {
        if let Some(reader) = self.stdout.take() {
            let _ = reader.join();
        }
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        self.join_stdout();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Only reached with the child still running on an error path.
        if self.stdout.is_some() {
            self.kill();
        }
    }
}
