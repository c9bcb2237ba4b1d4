//! A `defender serve` child process with a pinned invocation, stopped on
//! every exit path: `POST /v1/shutdown`, then kill if it has not exited.

use std::io::{self, BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use crate::client::Client;

/// Worker-pool width of the server (`--jobs`).
pub const JOBS: usize = 2;
/// Micro-batch linger (`--batch-window-ms`), the server default.
pub const BATCH_WINDOW_MS: u64 = 5;
/// Per-request solve deadline (`--deadline-ms`), the server default.
pub const DEADLINE_MS: u64 = 10_000;
/// Bound on queued solve classes (`--max-queue`), the server default.
pub const MAX_QUEUE: usize = 64;

/// The flags every benchmark server runs with, for the record.
pub fn invocation(cache: &Path) -> Vec<String> {
    [
        "serve",
        "--addr",
        "127.0.0.1:0",
        "--cache",
        &cache.display().to_string(),
        "--jobs",
        &JOBS.to_string(),
        "--batch-window-ms",
        &BATCH_WINDOW_MS.to_string(),
        "--deadline-ms",
        &DEADLINE_MS.to_string(),
        "--max-queue",
        &MAX_QUEUE.to_string(),
    ]
    .iter()
    .map(|s| (*s).to_owned())
    .collect()
}

#[derive(Debug)]
pub struct ServerProc {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

impl ServerProc {
    /// Spawns the server and returns once `/v1/healthz` answers 200.
    pub fn spawn(defender: &Path, cache: &Path) -> io::Result<ServerProc> {
        let mut child = Command::new(defender)
            .args(invocation(cache))
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        stdout.read_line(&mut line)?;
        let addr = line
            .trim()
            .strip_prefix("listening ")
            .and_then(|a| a.parse().ok());
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(io::Error::other(format!(
                "server did not report its address: {line:?}"
            )));
        };
        let server = ServerProc {
            child,
            _stdout: stdout,
            addr,
        };
        server.wait_healthy()?;
        Ok(server)
    }

    fn wait_healthy(&self) -> io::Result<()> {
        let start = Instant::now();
        loop {
            let ok = Client::connect(self.addr, Duration::from_secs(2))
                .and_then(|mut c| c.get("/v1/healthz"))
                .map(|r| r.status == 200);
            match ok {
                Ok(true) => return Ok(()),
                _ if start.elapsed() > Duration::from_secs(10) => {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "server never became healthy",
                    ))
                }
                _ => std::thread::sleep(Duration::from_millis(2)),
            }
        }
    }

    /// Asks the server to stop, waits for it, and kills it if it lingers.
    pub fn stop(&mut self) {
        if matches!(self.child.try_wait(), Ok(Some(_))) {
            return;
        }
        let _ = Client::connect(self.addr, Duration::from_secs(2))
            .and_then(|mut c| c.post("/v1/shutdown", b""));
        let start = Instant::now();
        while start.elapsed() < Duration::from_secs(10) {
            if matches!(self.child.try_wait(), Ok(Some(_))) {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        self.stop();
    }
}
