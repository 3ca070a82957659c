//! `orfbench`: one end-to-end benchmark of the live `orfpredd` daemon.
//!
//! The benchmark builds the daemon from the repository, starts it as a
//! separate process configured only through its command line, drives it
//! with a closed-loop load generator (at most two threads and two
//! sockets, besides the daemon's standard input and output), checks every
//! alarm it raises against an in-process replay, and reports end-to-end
//! metrics. A traced run replays the same inputs in-process once more and
//! times each layer's public calls (see `README.md`).

pub mod client;
pub mod daemon;
pub mod replay;
pub mod report;
pub mod stats;
pub mod workload;

use client::{ProbeResult, Received};
use daemon::{stats_request, Daemon};
use orfpred_core::Alarm;
use replay::{check_alarms, prepare, Layer, Reference, LAYERS};
use report::{metric, Metric};
use stats::{median, nearest_rank, parse_reply, tail_supported, StatsLine};
use std::io::{BufRead, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};
use workload::{Inputs, Scale, Workload};

/// Set-ups measured per workload and run (repeats included): set-up is a
/// few milliseconds for a fresh daemon, so one sample is too noisy.
const SETUP_SAMPLES: usize = 5;

/// How often the drain check polls the daemon's stats.
const DRAIN_POLL: Duration = Duration::from_millis(5);

/// Longest a daemon may take to apply what it was sent.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(120);

/// What to run.
#[derive(Clone, Debug)]
pub struct Options {
    /// Workloads, run round-robin.
    pub workloads: Vec<Workload>,
    /// Workload seed.
    pub seed: u64,
    /// Measured seconds per workload: repeats continue while another one
    /// is expected to fit (at least one runs).
    pub seconds: f64,
    /// Traced run: one untraced repeat for the daemon's own counters plus
    /// the traced in-process replay; reports per-layer metrics.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
    /// Daemon binary to drive instead of building the repository's.
    pub orfpredd: Option<PathBuf>,
}

/// One timed repeat against a fresh daemon.
#[derive(Debug)]
pub struct Repeat {
    /// Spawn to first `stats` reply (s).
    pub setup_s: f64,
    /// Events sent.
    pub events: u64,
    /// First byte sent to drained (s).
    pub elapsed_s: f64,
    /// Daemon CPU time over the same span (s).
    pub cpu_s: f64,
    /// Daemon peak RSS at drain (MB).
    pub rss_mb: f64,
    /// Probe round trips (ns), ascending.
    pub probe_ns: Vec<u64>,
    /// Events, probes and control requests issued.
    pub attempted: u64,
    /// Error replies received.
    pub failed: u64,
    /// Per-tenant stats at drain.
    pub stats: Vec<StatsLine>,
    /// The correctness gate: `Err` holds the first divergence.
    pub gate: Result<(), String>,
}

/// Everything measured for one workload.
pub struct WorkloadResult {
    /// The workload.
    pub workload: Workload,
    /// Timed repeats.
    pub repeats: Vec<Repeat>,
    /// Set-up samples (s).
    pub setups: Vec<f64>,
    /// Control requests of the extra set-up samples.
    pub setup_requests: u64,
    /// The replay the daemon was checked against.
    pub reference: Reference,
}

impl WorkloadResult {
    /// Whether every repeat passed its gate.
    pub fn correct(&self) -> bool {
        self.repeats.iter().all(|r| r.gate.is_ok())
    }

    /// Operations attempted.
    pub fn attempted(&self) -> u64 {
        self.setup_requests + self.repeats.iter().map(|r| r.attempted).sum::<u64>()
    }

    /// Operations that failed.
    pub fn failed(&self) -> u64 {
        self.repeats.iter().map(|r| r.failed).sum()
    }

    fn median_of(&self, f: impl Fn(&Repeat) -> f64) -> f64 {
        median(&self.repeats.iter().map(f).collect::<Vec<_>>())
    }

    /// The end-to-end metrics (medians over repeats).
    pub fn end_to_end(&self) -> Vec<Metric> {
        vec![
            metric(
                "events_per_s",
                self.median_of(|r| r.events as f64 / r.elapsed_s),
            ),
            metric(
                "cpu_us_per_event",
                self.median_of(|r| r.cpu_s * 1e6 / r.events as f64),
            ),
            metric("setup_s", median(&self.setups)),
            metric("rss_peak_mb", self.median_of(|r| r.rss_mb)),
        ]
    }

    /// The per-layer metrics of a traced run.
    pub fn per_layer(&self) -> Vec<Metric> {
        let (led, c) = self
            .reference
            .trace
            .as_ref()
            .expect("per-layer metrics need a traced run");
        let rep = &self.repeats[0];
        let summaries: Vec<_> = LAYERS.iter().map(|&(l, _)| led.summary(l)).collect();
        let s = |l: Layer| summaries[l as usize];
        let per_event = |bytes: u64, l: Layer| {
            if s(l).count > 0 && c.events > 0 {
                bytes as f64 / c.events as f64
            } else {
                0.0
            }
        };
        let pipeline = [
            Layer::WireDecode,
            Layer::ProtocolParse,
            Layer::Labeller,
            Layer::Scale,
            Layer::ForestUpdate,
            Layer::ForestScore,
            Layer::Freeze,
        ];
        let layer_sum_us =
            pipeline.iter().map(|&l| s(l).total_ns).sum::<u64>() as f64 / 1e3 / c.events as f64;
        let cpu_us = rep.cpu_s * 1e6 / rep.events as f64;
        let engine_sum = |f: fn(&StatsLine) -> u64| rep.stats.iter().map(f).sum::<u64>() as f64;
        let engine_max =
            |f: fn(&StatsLine) -> u64| rep.stats.iter().map(f).max().unwrap_or(0) as f64;
        let probe_q = |q: f64| {
            if tail_supported(rep.probe_ns.len(), q) || (q == 0.5 && !rep.probe_ns.is_empty()) {
                nearest_rank(&rep.probe_ns, q).map_or(0.0, |ns| ns as f64 / 1e3)
            } else {
                0.0
            }
        };
        vec![
            metric("core.forest.update_ns", s(Layer::ForestUpdate).mean_ns),
            metric("core.forest.updates", s(Layer::ForestUpdate).count as f64),
            metric("core.forest.trees_replaced", c.trees_replaced as f64),
            metric("core.forest.nodes_end", c.nodes_end as f64),
            metric("core.forest.test_pool_mb", c.test_pool_bytes as f64 / 1e6),
            metric("core.forest.score_ns", s(Layer::ForestScore).mean_ns),
            metric("core.forest.freeze_us", s(Layer::Freeze).mean_ns / 1e3),
            metric("core.forest.freezes", s(Layer::Freeze).count as f64),
            metric("trees.frozen.kb", c.frozen_bytes as f64 / 1024.0),
            metric("trees.frozen.score_ns", s(Layer::FrozenScore).mean_ns),
            metric("smart.scale.ns", s(Layer::Scale).mean_ns),
            metric("core.labeller.ns", s(Layer::Labeller).mean_ns),
            // Every released sample trains the forest once.
            metric(
                "core.labeller.released",
                s(Layer::ForestUpdate).count as f64,
            ),
            metric("core.labeller.pending_end", c.pending_end as f64),
            metric("fleet.wire.decode_ns", s(Layer::WireDecode).mean_ns),
            metric(
                "fleet.wire.bytes_per_event",
                per_event(c.wire_bytes, Layer::WireDecode),
            ),
            metric("serve.protocol.parse_ns", s(Layer::ProtocolParse).mean_ns),
            metric(
                "serve.protocol.bytes_per_event",
                per_event(c.wire_bytes, Layer::ProtocolParse),
            ),
            metric(
                "serve.checkpoint.load_ms",
                s(Layer::CheckpointLoad).total_ns as f64 / 1e6,
            ),
            metric(
                "serve.checkpoint.save_ms",
                s(Layer::CheckpointSave).total_ns as f64 / 1e6,
            ),
            metric("serve.checkpoint.mb", c.checkpoint_bytes as f64 / 1e6),
            metric("serve.engine.alarms", engine_sum(|s| s.alarms)),
            metric(
                "serve.engine.snapshots_published",
                engine_sum(|s| s.snapshots_published),
            ),
            metric(
                "serve.engine.trees_replaced",
                engine_sum(|s| s.trees_replaced),
            ),
            metric(
                "serve.engine.forest_samples_seen",
                engine_sum(|s| s.forest_samples_seen),
            ),
            metric("serve.engine.score_p50_ns", engine_max(|s| s.score_p50_ns)),
            metric("serve.engine.score_p99_ns", engine_max(|s| s.score_p99_ns)),
            metric("trace.layer_sum_us_per_event", layer_sum_us),
            metric("trace.gap_cpu_share", 1.0 - layer_sum_us / cpu_us),
            metric("probe.score_p50_us", probe_q(0.5)),
            metric("probe.score_p99_us", probe_q(0.99)),
            metric("probe.samples", rep.probe_ns.len() as f64),
        ]
    }
}

/// The repository root: the benchmark runs from it.
fn repo_root() -> Result<PathBuf, String> {
    let root = std::env::current_dir().map_err(|e| format!("current directory: {e}"))?;
    if root.join("crates/fleet/Cargo.toml").is_file() {
        Ok(root)
    } else {
        Err(format!(
            "{} is not the repository root (no crates/fleet)",
            root.display()
        ))
    }
}

/// Cargo's target directory for builds started here.
fn target_dir(root: &Path) -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| root.join("target"), |d| root.join(d))
}

/// Build the repository's `orfpredd` (release) and return its path.
pub fn build_daemon() -> Result<PathBuf, String> {
    let root = repo_root()?;
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = std::process::Command::new(cargo)
        .current_dir(&root)
        .args([
            "build",
            "--release",
            "--quiet",
            "-p",
            "orfpred-fleet",
            "--bin",
            "orfpredd",
        ])
        .stdout(std::process::Stdio::null())
        .status()
        .map_err(|e| format!("run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building orfpredd failed ({status})"));
    }
    Ok(target_dir(&root).join("release/orfpredd"))
}

/// Poll `poll(tenant)` for every tenant until each has applied all it was
/// sent; returns when that was seen and the final stats.
fn drain(
    tenants: &[String],
    sent: &[u64],
    mut poll: impl FnMut(&str) -> Result<StatsLine, String>,
) -> Result<(Instant, Vec<StatsLine>), String> {
    let deadline = Instant::now() + DRAIN_TIMEOUT;
    loop {
        let stats = tenants
            .iter()
            .map(|t| poll(t))
            .collect::<Result<Vec<_>, _>>()?;
        let now = Instant::now();
        if stats.iter().zip(sent).all(|(s, &n)| s.drained(n)) {
            return Ok((now, stats));
        }
        if now > deadline {
            return Err(format!(
                "daemon did not drain: sent {sent:?}, stats {stats:?}"
            ));
        }
        std::thread::sleep(DRAIN_POLL);
    }
}

/// Read the classic daemon's output during line-JSON ingest: alarms are
/// kept, stats replies go to the drain check.
fn read_replies(stdout: impl BufRead, stats: mpsc::Sender<StatsLine>) -> Result<Received, String> {
    let mut got = Received::default();
    for line in stdout.lines() {
        let reply = parse_reply(&line.map_err(|e| format!("read daemon output: {e}"))?);
        if let Some(s) = got.take_reply(reply) {
            // The drain check may have given up already.
            let _ = stats.send(s);
        }
    }
    Ok(got)
}

struct Timed {
    first_byte: Instant,
    drained: Instant,
    stats: Vec<StatsLine>,
    cpu_s: f64,
    rss_mb: f64,
}

/// One repeat: fresh daemon, timed closed-loop ingest to drained, then
/// shutdown and the correctness gate.
pub fn run_repeat(
    bin: &Path,
    w: Workload,
    inputs: Inputs,
    reference: &Reference,
    workdir: &Path,
) -> Result<Repeat, String> {
    let tenants = w.tenants();
    let sent = inputs.events_per_tenant(&tenants);
    let (mut d, setup_s) = Daemon::start(bin, w, workdir, reference.checkpoint.as_deref())?;
    let cpu0 = d.cpu_seconds()?;
    let mut got = Received::default();
    let mut probe = ProbeResult::default();
    let timed = match inputs {
        Inputs::Lanes { lanes, probe_rows } => {
            let addr = d.addr.clone();
            let stop = AtomicBool::new(false);
            let timed = std::thread::scope(|s| {
                let prober = (!probe_rows.is_empty())
                    .then(|| s.spawn(|| client::probe(&addr, &tenants[0], &probe_rows, &stop)));
                let timed = client::drive_lanes(&addr, lanes).and_then(|(r, first_byte)| {
                    got = r;
                    let (drained, stats) = drain(&tenants, &sent, |t| d.stats(t))?;
                    Ok(Timed {
                        first_byte,
                        drained,
                        stats,
                        cpu_s: d.cpu_seconds()? - cpu0,
                        rss_mb: d.peak_rss_mb()?,
                    })
                });
                stop.store(true, Ordering::Relaxed);
                if let Some(h) = prober {
                    probe = h
                        .join()
                        .map_err(|_| "probe thread panicked".to_string())??;
                }
                timed
            })?;
            d.shutdown()?;
            timed
        }
        Inputs::Lines { bytes, .. } => {
            let stdout = d.take_stdout().ok_or("daemon output already taken")?;
            let (tx, rx) = mpsc::channel();
            std::thread::scope(|s| {
                let reader = s.spawn(move || read_replies(stdout, tx));
                let first_byte = Instant::now();
                let timed = bytes
                    .chunks(1 << 16)
                    .try_for_each(|c| {
                        d.stdin()?
                            .write_all(c)
                            .map_err(|e| format!("write daemon input: {e}"))
                    })
                    .and_then(|()| {
                        drain(&tenants, &sent, |t| {
                            d.send(&stats_request(t))?;
                            rx.recv_timeout(DRAIN_TIMEOUT)
                                .map_err(|_| "no stats reply".to_string())
                        })
                    })
                    .and_then(|(drained, stats)| {
                        Ok(Timed {
                            first_byte,
                            drained,
                            stats,
                            cpu_s: d.cpu_seconds()? - cpu0,
                            rss_mb: d.peak_rss_mb()?,
                        })
                    });
                // Shutting down (or killing, on error) ends the reader.
                let down = timed.and_then(|t| d.shutdown().map(|()| t));
                if down.is_err() {
                    d.kill();
                }
                got = reader
                    .join()
                    .map_err(|_| "reader thread panicked".to_string())??;
                down
            })?
        }
    };

    let events: u64 = sent.iter().sum();
    let channels = [&got, &probe.received, &d.received];
    let alarms: Vec<Alarm> = channels.iter().flat_map(|r| r.alarms.clone()).collect();
    let failed: u64 = channels.iter().map(|r| r.errors).sum();
    let gate = if failed > 0 {
        let first = channels.iter().find_map(|r| r.first_error.clone());
        Err(format!(
            "{failed} error replies, first: {}",
            first.unwrap_or_default()
        ))
    } else if w == Workload::FleetWire && timed.stats.iter().any(|s| s.forest_samples_seen > 0) {
        Err("the wire-only workload trained a forest".into())
    } else {
        check_alarms(&reference.alarms, &alarms)
    };
    let mut probe_ns = probe.latencies_ns;
    probe_ns.sort_unstable();
    Ok(Repeat {
        setup_s,
        events,
        elapsed_s: timed.drained.duration_since(timed.first_byte).as_secs_f64(),
        cpu_s: timed.cpu_s,
        rss_mb: timed.rss_mb,
        probe_ns,
        attempted: events + probe.attempted + d.requests,
        failed,
        stats: timed.stats,
        gate,
    })
}

/// Run the selected workloads round-robin until each has used its
/// measurement budget, then top up the set-up samples.
pub fn run(opts: &Options) -> Result<Vec<WorkloadResult>, String> {
    let bin = match &opts.orfpredd {
        Some(p) => p.clone(),
        None => build_daemon()?,
    };
    let root = repo_root()?;
    let workdir = target_dir(&root)
        .join("orfbench-work")
        .join(std::process::id().to_string());
    std::fs::create_dir_all(&workdir).map_err(|e| format!("create {}: {e}", workdir.display()))?;
    let result = run_in(&bin, opts, &workdir);
    std::fs::remove_dir_all(&workdir).ok();
    result
}

fn run_in(bin: &Path, opts: &Options, workdir: &Path) -> Result<Vec<WorkloadResult>, String> {
    struct State {
        w: Workload,
        reference: Option<Reference>,
        repeats: Vec<Repeat>,
        measured: f64,
        done: bool,
    }
    let mut states: Vec<State> = opts
        .workloads
        .iter()
        .map(|&w| State {
            w,
            reference: None,
            repeats: Vec::new(),
            measured: 0.0,
            done: false,
        })
        .collect();
    while states.iter().any(|s| !s.done) {
        for st in states.iter_mut().filter(|s| !s.done) {
            let wdir = workdir.join(st.w.name());
            std::fs::create_dir_all(&wdir)
                .map_err(|e| format!("create {}: {e}", wdir.display()))?;
            let inputs = match &st.reference {
                Some(_) => workload::inputs(st.w, opts.scale, opts.seed),
                None => {
                    let (reference, inputs) =
                        prepare(st.w, opts.scale, opts.seed, opts.trace, &wdir);
                    st.reference = Some(reference);
                    inputs
                }
            };
            let reference = st.reference.as_ref().expect("prepared above");
            let rep = run_repeat(bin, st.w, inputs, reference, &wdir)?;
            st.measured += rep.elapsed_s;
            st.repeats.push(rep);
            let mean = st.measured / st.repeats.len() as f64;
            st.done = opts.trace || st.measured + mean > opts.seconds;
        }
    }
    let mut out = Vec::new();
    for st in states {
        let wdir = workdir.join(st.w.name());
        let reference = st.reference.expect("every workload ran");
        let mut setups: Vec<f64> = st.repeats.iter().map(|r| r.setup_s).collect();
        let mut setup_requests = 0;
        while !opts.trace && setups.len() < SETUP_SAMPLES {
            let (mut d, setup_s) =
                Daemon::start(bin, st.w, &wdir, reference.checkpoint.as_deref())?;
            d.shutdown()?;
            setup_requests += d.requests;
            setups.push(setup_s);
        }
        out.push(WorkloadResult {
            workload: st.w,
            repeats: st.repeats,
            setups,
            setup_requests,
            reference,
        });
    }
    Ok(out)
}

/// The human-readable summary (written to standard error).
pub fn summary(results: &[WorkloadResult], trace: bool) -> String {
    let mut out = String::new();
    for r in results {
        out.push_str(&format!(
            "== {} ({} repeats, {} events each)\n",
            r.workload.name(),
            r.repeats.len(),
            r.repeats.first().map_or(0, |x| x.events)
        ));
        for m in r.end_to_end() {
            if !trace || m.name != "setup_s" {
                out.push_str(&format!("  {:<20} {:>14.4} {}\n", m.name, m.value, m.unit));
            }
        }
        for (i, rep) in r.repeats.iter().enumerate() {
            out.push_str(&format!(
                "  repeat {i}: {:.0} events/s, {:.3} us cpu/event, gate {}\n",
                rep.events as f64 / rep.elapsed_s,
                rep.cpu_s * 1e6 / rep.events as f64,
                match &rep.gate {
                    Ok(()) => "ok".to_string(),
                    Err(e) => format!("FAILED: {e}"),
                }
            ));
            if !rep.probe_ns.is_empty() {
                let q = |q: f64| nearest_rank(&rep.probe_ns, q).unwrap_or(0) as f64 / 1e3;
                let p99 = if tail_supported(rep.probe_ns.len(), 0.99) {
                    format!("{:.1} us", q(0.99))
                } else {
                    "n/a".into()
                };
                out.push_str(&format!(
                    "  score probe: p50 {:.1} us, p99 {p99} over {} samples\n",
                    q(0.5),
                    rep.probe_ns.len()
                ));
            }
        }
        out.push_str(&format!(
            "  error rate: {} failed / {} attempted\n",
            r.failed(),
            r.attempted()
        ));
        if let Some((led, c)) = &r.reference.trace {
            out.push_str(&ledger(led, c.events));
        }
    }
    out
}

/// The ranked per-layer ledger of a traced replay.
pub fn ledger(led: &replay::Ledger, events: u64) -> String {
    let mut rows: Vec<_> = LAYERS
        .iter()
        .map(|&(l, name)| (name, led.summary(l)))
        .filter(|(_, s)| s.count > 0)
        .collect();
    rows.sort_by_key(|(_, s)| std::cmp::Reverse(s.total_ns));
    let total: u64 = rows.iter().map(|(_, s)| s.total_ns).sum();
    let mut out = format!(
        "  {:<24} {:>10} {:>10} {:>7} {:>10} {:>9} {:>9}\n",
        "layer", "calls", "total ms", "share", "us/event", "p50 ns", "p99 ns"
    );
    for (name, s) in rows {
        out.push_str(&format!(
            "  {:<24} {:>10} {:>10.1} {:>6.1}% {:>10.3} {:>9} {:>9}\n",
            name,
            s.count,
            s.total_ns as f64 / 1e6,
            100.0 * s.total_ns as f64 / total.max(1) as f64,
            s.total_ns as f64 / 1e3 / events.max(1) as f64,
            s.p50_ns,
            s.p99_ns.map_or("n/a".into(), |v| v.to_string())
        ));
    }
    out
}
