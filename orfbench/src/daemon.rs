//! One `orfpredd` child process: start it on a free port, talk to it over
//! its standard input and output, read its CPU time and peak memory from
//! `/proc`, and always stop and reap it.

use crate::client::Received;
use crate::stats::{parse_reply, StatsLine};
use crate::workload::Workload;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// How long a daemon may take to exit after `shutdown` before it is
/// killed (and the repeat fails).
const EXIT_TIMEOUT: Duration = Duration::from_secs(60);

/// Attempts at finding a port the daemon can bind.
const BIND_ATTEMPTS: usize = 5;

/// Clock ticks per second in `/proc/<pid>/stat` (Linux `USER_HZ`).
const USER_HZ: f64 = 100.0;

/// A running daemon. Dropping it kills and reaps the process, so a panic
/// anywhere in the benchmark never leaves one behind.
pub struct Daemon {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: Option<BufReader<ChildStdout>>,
    stderr_path: PathBuf,
    /// TCP address the daemon listens on (fleet daemons).
    pub addr: String,
    /// Requests written to standard input.
    pub requests: u64,
    /// Alarms and errors that arrived on standard output.
    pub received: Received,
}

/// A loopback address nobody listens on right now.
fn free_addr() -> Result<String, String> {
    let l = std::net::TcpListener::bind("127.0.0.1:0").map_err(|e| format!("probe a port: {e}"))?;
    let addr = l.local_addr().map_err(|e| format!("probe a port: {e}"))?;
    Ok(addr.to_string())
}

/// The `stats` request for one tenant (empty name: the classic daemon).
pub fn stats_request(tenant: &str) -> String {
    if tenant.is_empty() {
        "{\"type\":\"stats\"}".into()
    } else {
        format!("{{\"type\":\"stats\",\"tenant\":\"{tenant}\"}}")
    }
}

impl Daemon {
    /// Start the daemon for `w` and wait until it answers its first
    /// `stats` request. Returns the daemon and that set-up time (spawn to
    /// reply). The restart workload restores from a fresh copy of
    /// `checkpoint`, since the daemon overwrites its file at shutdown.
    pub fn start(
        bin: &Path,
        w: Workload,
        workdir: &Path,
        checkpoint: Option<&Path>,
    ) -> Result<(Daemon, f64), String> {
        let ck = workdir.join("ck.json");
        let stderr_path = workdir.join("orfpredd.stderr");
        let first_tenant = w.tenants().remove(0);
        for attempt in 1..=BIND_ATTEMPTS {
            if let Some(master) = checkpoint {
                std::fs::copy(master, &ck).map_err(|e| format!("copy checkpoint: {e}"))?;
            }
            let addr = free_addr()?;
            let stderr = std::fs::File::create(&stderr_path)
                .map_err(|e| format!("create {}: {e}", stderr_path.display()))?;
            let t0 = Instant::now();
            let mut child = Command::new(bin)
                .args(w.daemon_args(&addr, &ck.to_string_lossy()))
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .stderr(stderr)
                .spawn()
                .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
            let stdin = child.stdin.take();
            let stdout = child.stdout.take().map(BufReader::new);
            let mut d = Daemon {
                child,
                stdin,
                stdout,
                stderr_path: stderr_path.clone(),
                addr,
                requests: 0,
                received: Received::default(),
            };
            match d.stats(&first_tenant) {
                Ok(_) => return Ok((d, t0.elapsed().as_secs_f64())),
                Err(e) => {
                    drop(d);
                    let log = std::fs::read_to_string(&stderr_path).unwrap_or_default();
                    if log.contains("bind") && attempt < BIND_ATTEMPTS {
                        continue;
                    }
                    return Err(format!(
                        "daemon did not come up: {e}; stderr: {}",
                        log.trim()
                    ));
                }
            }
        }
        Err("no bindable port".into())
    }

    /// Write one request line to the daemon's standard input.
    pub fn send(&mut self, line: &str) -> Result<(), String> {
        let stdin = self.stdin.as_mut().ok_or("daemon input is closed")?;
        self.requests += 1;
        writeln!(stdin, "{line}")
            .and_then(|()| stdin.flush())
            .map_err(|e| format!("write daemon input: {e}"))
    }

    /// The daemon's standard input, for bulk writes.
    pub fn stdin(&mut self) -> Result<&mut ChildStdin, String> {
        self.stdin
            .as_mut()
            .ok_or_else(|| "daemon input is closed".into())
    }

    /// Hand the daemon's standard output to a reader thread.
    pub fn take_stdout(&mut self) -> Option<BufReader<ChildStdout>> {
        self.stdout.take()
    }

    /// Ask for one tenant's stats and read up to the reply, keeping any
    /// alarms and errors that precede it.
    pub fn stats(&mut self, tenant: &str) -> Result<StatsLine, String> {
        self.send(&stats_request(tenant))?;
        let mut line = String::new();
        loop {
            line.clear();
            let stdout = self.stdout.as_mut().ok_or("daemon output is taken")?;
            let n = stdout
                .read_line(&mut line)
                .map_err(|e| format!("read daemon output: {e}"))?;
            if n == 0 {
                return Err("daemon closed its output".into());
            }
            if let Some(s) = self.received.take_reply(parse_reply(&line)) {
                return Ok(s);
            }
        }
    }

    /// Process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// User plus system CPU time of every daemon thread so far (seconds).
    pub fn cpu_seconds(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/stat", self.pid());
        let stat = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
        // Fields after the parenthesised command name start at field 3.
        let rest = stat.rsplit_once(')').ok_or("malformed stat")?.1;
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let tick = |i: usize| -> Result<f64, String> {
            fields
                .get(i)
                .and_then(|f| f.parse::<u64>().ok())
                .map(|t| t as f64 / USER_HZ)
                .ok_or_else(|| format!("malformed {path}"))
        };
        Ok(tick(14 - 3)? + tick(15 - 3)?)
    }

    /// Peak resident set size so far (`VmHWM`, MB).
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.pid());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| format!("no VmHWM in {path}"))
    }

    /// Shut the daemon down through its primary input, read its output to
    /// the end, and wait for a clean exit. A daemon that does not exit in
    /// time is killed, and that is an error.
    pub fn shutdown(&mut self) -> Result<(), String> {
        if self.stdin.is_some() {
            self.send("{\"type\":\"shutdown\"}")?;
        }
        self.stdin = None;
        if let Some(mut stdout) = self.stdout.take() {
            let mut line = String::new();
            while stdout
                .read_line(&mut line)
                .map_err(|e| format!("read daemon output: {e}"))?
                > 0
            {
                self.received.take_reply(parse_reply(&line));
                line.clear();
            }
        }
        let deadline = Instant::now() + EXIT_TIMEOUT;
        loop {
            match self
                .child
                .try_wait()
                .map_err(|e| format!("wait daemon: {e}"))?
            {
                Some(status) if status.success() => return Ok(()),
                Some(status) => {
                    let log = std::fs::read_to_string(&self.stderr_path).unwrap_or_default();
                    return Err(format!("daemon exited with {status}: {}", log.trim()));
                }
                None if Instant::now() > deadline => {
                    return Err("daemon did not exit after shutdown".into());
                }
                None => std::thread::sleep(Duration::from_millis(5)),
            }
        }
    }
}

impl Daemon {
    /// Kill and reap the process. Errors are ignored: it may already have
    /// exited.
    pub fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.kill();
    }
}
