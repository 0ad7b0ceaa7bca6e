//! Starting and stopping `impact serve` processes.

use std::io::{self, BufRead, BufReader};
use std::path::Path;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::client::Conn;

/// A running `impact serve` child.
pub struct Server {
    child: Child,
    /// Held open: EOF on the server's stdin is its shutdown signal.
    stdin: Option<ChildStdin>,
    /// Drains stdout until the server exits, so its last line never
    /// meets a closed pipe.
    drain: Option<JoinHandle<()>>,
    /// `host:port` it listens on.
    pub addr: String,
}

/// Flags for one server.
#[derive(Debug, Clone)]
pub struct Flags<'a> {
    /// `--workers`.
    pub workers: usize,
    /// `--store`, if any.
    pub store: Option<&'a Path>,
}

impl Server {
    /// Starts `impact serve` on an ephemeral port and waits until it
    /// answers `/healthz`.
    ///
    /// # Errors
    ///
    /// Spawn failures, a missing address line, or a server that never
    /// becomes healthy.
    pub fn start(impact: &Path, flags: &Flags<'_>) -> io::Result<Server> {
        let mut cmd = Command::new(impact);
        cmd.args(["serve", "--addr", "127.0.0.1:0", "--sim-jobs", "1"])
            .args(["--workers", &flags.workers.to_string()]);
        if let Some(dir) = flags.store {
            cmd.arg("--store").arg(dir);
        }
        let mut child = cmd
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().expect("stdout is piped");
        let (tx, rx) = mpsc::channel();
        let drain = std::thread::spawn(move || {
            let mut lines = BufReader::new(stdout).lines();
            let _ = tx.send(lines.next());
            lines.for_each(drop);
        });
        let first = rx.recv_timeout(Duration::from_secs(20));
        let mut server = Server {
            child,
            stdin,
            drain: Some(drain),
            addr: String::new(),
        };
        match first {
            Ok(Some(Ok(line))) if line.starts_with("serving on http://") => {
                server.addr = line["serving on http://".len()..].trim().to_string();
            }
            other => {
                server.kill();
                return Err(io::Error::other(format!("impact serve printed {other:?}")));
            }
        }
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            let healthy = Conn::open(&server.addr)
                .and_then(|mut c| c.get("/healthz"))
                .is_ok_and(|r| r.status == 200);
            if healthy {
                return Ok(server);
            }
            if Instant::now() > deadline {
                server.kill();
                return Err(io::Error::other("impact serve never became healthy"));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// The process's peak resident set so far, in KiB (`VmHWM`).
    #[must_use]
    pub fn peak_rss_kib(&self) -> Option<u64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
    }

    /// Closes the server's stdin and waits for a clean exit; kills it
    /// after 20 s.
    ///
    /// # Errors
    ///
    /// A server that had to be killed or exited non-zero.
    pub fn stop(mut self) -> io::Result<()> {
        drop(self.stdin.take());
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            if let Some(status) = self.child.try_wait()? {
                if let Some(d) = self.drain.take() {
                    let _ = d.join();
                }
                return if status.success() {
                    Ok(())
                } else {
                    Err(io::Error::other(format!(
                        "impact serve exited with {status}"
                    )))
                };
            }
            if Instant::now() > deadline {
                self.kill();
                return Err(io::Error::other("impact serve did not shut down"));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(d) = self.drain.take() {
            let _ = d.join();
        }
    }
}

impl Drop for Server {
    /// A server not stopped with [`Server::stop`] is killed and reaped.
    fn drop(&mut self) {
        if self.drain.is_some() {
            self.kill();
        }
    }
}
