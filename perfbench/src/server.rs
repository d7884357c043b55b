//! Lifecycle of one `annotation-server` process: spawn, wait for its
//! `listening on` line, read its peak RSS, drain it through
//! `POST /shutdown`, and check that it exited cleanly.

use httpshim::HttpClient;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a server may take to print its `listening on` line.
const STARTUP_TIMEOUT: Duration = Duration::from_secs(60);
/// How long a drain may take after `POST /shutdown`.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(60);

/// A running server process.
pub struct ServerProcess {
    child: Child,
    addr: String,
    cache_dir: PathBuf,
    /// Collects the rest of the server's stdout until it exits.
    stdout: Option<JoinHandle<Vec<String>>>,
}

impl ServerProcess {
    /// Spawn `bin` with two workers and a fresh cache dir; returns the
    /// process and the time from spawn to its `listening on` line.
    pub fn spawn(bin: &Path, cache_dir: &Path) -> Result<(ServerProcess, Duration), String> {
        if cache_dir.exists() {
            std::fs::remove_dir_all(cache_dir)
                .map_err(|e| format!("clearing {}: {e}", cache_dir.display()))?;
        }
        let started = Instant::now();
        let mut child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0", "--workers", "2", "--cache-dir"])
            .arg(cache_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let (tx, rx) = mpsc::channel::<String>();
        let reader = std::thread::spawn(move || {
            let mut rest = Vec::new();
            let mut sent = false;
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if !sent && line.starts_with("listening on ") {
                    sent = true;
                    let _ = tx.send(line);
                } else {
                    rest.push(line);
                }
            }
            rest
        });
        let mut server = ServerProcess {
            child,
            addr: String::new(),
            cache_dir: cache_dir.to_path_buf(),
            stdout: Some(reader),
        };
        match rx.recv_timeout(STARTUP_TIMEOUT) {
            Ok(line) => {
                let setup = started.elapsed();
                server.addr = line["listening on ".len()..].trim().to_owned();
                Ok((server, setup))
            }
            Err(_) => Err("the server never printed its `listening on` line".to_owned()),
        }
    }

    /// `host:port` it listens on.
    #[must_use]
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Its cache directory.
    #[must_use]
    pub fn cache_dir(&self) -> &Path {
        &self.cache_dir
    }

    /// Peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("reading the server's /proc status: {e}"))?;
        let kb: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or("no VmHWM line in the server's /proc status")?;
        Ok(kb / 1024.0)
    }

    /// Drain through `POST /shutdown` and wait for the exit. Fails when
    /// the server exits non-zero (a failed cache flush exits 1) or never
    /// reports `shutdown complete`.
    pub fn shutdown(mut self) -> Result<(), String> {
        let mut client = HttpClient::connect(self.addr.as_str()).map_err(|e| e.to_string())?;
        let resp = client
            .post_json("/shutdown", "{}", &[])
            .map_err(|e| format!("POST /shutdown: {e}"))?;
        drop(client);
        if resp.status != 200 {
            return Err(format!("POST /shutdown answered {}", resp.status));
        }
        let deadline = Instant::now() + DRAIN_TIMEOUT;
        let status = loop {
            match self.child.try_wait() {
                Ok(Some(status)) => break status,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Ok(None) => return Err("the server did not exit after draining".to_owned()),
                Err(e) => return Err(format!("waiting for the server: {e}")),
            }
        };
        let lines = self
            .stdout
            .take()
            .map(|h| h.join().unwrap_or_default())
            .unwrap_or_default();
        if !status.success() {
            return Err(format!("the server exited with {status}"));
        }
        if !lines.iter().any(|l| l == "shutdown complete") {
            return Err("the server exited without `shutdown complete`".to_owned());
        }
        Ok(())
    }
}

impl Drop for ServerProcess {
    /// A server left running by an error path is killed and reaped.
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        if let Some(h) = self.stdout.take() {
            let _ = h.join();
        }
    }
}

/// Total bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        total += if meta.is_dir() {
            dir_bytes(&entry.path())?
        } else {
            meta.len()
        };
    }
    Ok(total)
}
