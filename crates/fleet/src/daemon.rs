//! The `orfpredd` loop (also run by `orfpred serve`): one primary input,
//! one TCP listener, two wire formats, one or more tenants.
//!
//! Mode negotiation is sniffed per connection (and on the primary input):
//! a stream that opens with the 4-byte magic `ORFB` is a binary session —
//! it must then `Hello` with a wire version, a tenant name, and that
//! tenant's schema fingerprint, and stays bound to that tenant for its
//! lifetime. Anything else is line-JSON, where each request may carry an
//! optional `"tenant"` field (omitted = the fleet's only tenant, so
//! scripts for a one-tenant daemon never name one).
//!
//! On `shutdown` (primary input only) or end of primary input, every
//! tenant drains, its remaining alarms are written, and each tenant with a
//! default checkpoint path saves its final state there atomically. A
//! tenant whose engine lost a shard saves nothing, and the run returns its
//! error once the other tenants have finished.
//!
//! Binary ingest is batched: consecutive `Sample`/`Failure` frames are
//! decoded into a local buffer and pushed under **one** tenant-lock
//! acquisition and one `Engine::ingest_batch` call per [`BATCH_EVENTS`]
//! events, which is where the ≥2× JSON-ingest speedup comes from. A
//! partial batch is pushed as soon as no complete frame is left in the
//! session's read buffer, so a slow client never waits on a full batch. Backpressure is unchanged from the
//! single-tenant engine: each tenant's bounded shard queues block the
//! ingesting session when the pipeline falls behind — one firehose tenant
//! stalls its own sessions, not the fleet.
//!
//! Alarms raised by a tenant flow to whichever session addresses that
//! tenant next (JSON lines carry a `"tenant"` tag; binary sessions only
//! ever see their bound tenant's alarms). At shutdown every tenant drains
//! and the per-tenant results — full alarm history, final checkpoint,
//! the run's counters — are returned to the caller.

use crate::engine::{FleetEngine, TenantConfig, TenantFinished};
use crate::wire::{frame_buffered, read_frame, ClientFrame, ServerFrame, WIRE_MAGIC, WIRE_VERSION};
use orfpred_core::Alarm;
use orfpred_serve::{pad_features, FaultInjector, NoFaults, ProtocolError, Request, Response};
use orfpred_smart::gen::FleetEvent;
use orfpred_smart::record::DiskDay;
use serde::{Serialize, Value};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::Arc;

/// How many binary event frames are decoded before the batch is pushed
/// into the tenant's engine under a single lock acquisition.
pub const BATCH_EVENTS: usize = 512;

/// Read buffer of a binary session: one full batch of SMART `Sample`
/// frames (5-byte header, 8 bytes of ids, 48 × f32 = 205 bytes each), so
/// under load a whole batch is decoded from one refill.
const SESSION_BUF_BYTES: usize = BATCH_EVENTS * 205;

/// Fleet daemon configuration.
#[derive(Clone, Debug)]
pub struct FleetDaemonConfig {
    /// The tenants to host (at least one).
    pub tenants: Vec<TenantConfig>,
    /// Optional TCP listen address (e.g. `127.0.0.1:7077`); every
    /// connection negotiates its own wire format.
    pub listen: Option<String>,
    /// Fault hooks consulted on the primary input (line mangling, live
    /// reshards, tenant kills). Production uses [`NoFaults`].
    pub injector: Arc<dyn FaultInjector>,
}

impl FleetDaemonConfig {
    /// A fleet daemon with no listener and no fault injection.
    pub fn new(tenants: Vec<TenantConfig>) -> Self {
        Self {
            tenants,
            listen: None,
            injector: Arc::new(NoFaults),
        }
    }
}

fn alarm_line(tenant: &str, a: &Alarm) -> String {
    serde_json::value_to_string(&Value::Obj(vec![
        ("type".into(), Value::Str("alarm".into())),
        ("tenant".into(), Value::Str(tenant.into())),
        ("disk_id".into(), Value::Int(i128::from(a.disk_id))),
        ("day".into(), Value::Int(i128::from(a.day))),
        ("score".into(), a.score.ser()),
    ]))
}

fn stats_line(stats: &crate::engine::TenantStats) -> String {
    let mut fields = vec![("type".into(), Value::Str("stats".into()))];
    match stats.ser() {
        Value::Obj(rest) => fields.extend(rest),
        // lint: allow(panic_path, reason="TenantStats is a struct; the derived ser() for structs always yields Value::Obj — anything else is a serde-layer bug worth dying loudly on")
        _ => unreachable!("TenantStats serializes to an object"),
    }
    serde_json::value_to_string(&Value::Obj(fields))
}

/// Drain a tenant's fresh alarms into JSON lines appended to `lines`.
/// Unresolvable tenants are ignored here — the request handler reports
/// the routing error itself.
fn drain_alarm_lines(fleet: &FleetEngine, tenant: Option<&str>, lines: &mut Vec<String>) {
    let Ok(name) = fleet.resolve_tenant(tenant) else {
        return;
    };
    if let Ok(alarms) = fleet.take_alarms(Some(name)) {
        for a in &alarms {
            lines.push(alarm_line(name, a));
        }
    }
}

/// Serve one parsed JSON request. Returns the response lines plus whether
/// the request asked the daemon to shut down.
fn handle_json(
    fleet: &FleetEngine,
    tenant: Option<&str>,
    req: Request,
    allow_shutdown: bool,
) -> (Vec<String>, bool) {
    let err = |message: String| (vec![Response::Error { message }.to_line()], false);
    match req {
        Request::Sample {
            disk_id,
            day,
            features,
        } => {
            let (_, n_base, _) = match fleet.schema_info(tenant) {
                Ok(info) => info,
                Err(e) => return err(e.to_string()),
            };
            let rec = DiskDay {
                disk_id,
                day,
                features: pad_features(&features, n_base),
            };
            match fleet.ingest(tenant, FleetEvent::Sample(rec)) {
                Ok(()) => (Vec::new(), false),
                Err(e) => err(e.to_string()),
            }
        }
        Request::Failure { disk_id, day } => {
            match fleet.ingest(tenant, FleetEvent::Failure { disk_id, day }) {
                Ok(()) => (Vec::new(), false),
                Err(e) => err(e.to_string()),
            }
        }
        Request::Score { features } => {
            let (_, _, n_features) = match fleet.schema_info(tenant) {
                Ok(info) => info,
                Err(e) => return err(e.to_string()),
            };
            match fleet.score(tenant, &pad_features(&features, n_features)) {
                Ok(score) => (vec![Response::Score { score }.to_line()], false),
                Err(e) => err(e.to_string()),
            }
        }
        Request::Stats => match fleet.stats(tenant) {
            Ok(stats) => (vec![stats_line(&stats)], false),
            Err(e) => err(e.to_string()),
        },
        Request::Checkpoint { path } => {
            let path = path.map(PathBuf::from);
            match fleet.checkpoint(tenant, path.as_deref()) {
                Ok(p) => (
                    vec![Response::Ok {
                        what: format!("checkpoint {}", p.display()),
                    }
                    .to_line()],
                    false,
                ),
                Err(e) => err(e.to_string()),
            }
        }
        Request::Reshard { n_shards } => match fleet.reshard(tenant, n_shards) {
            Ok(()) => (
                vec![Response::Ok {
                    what: format!("reshard to {n_shards} shards"),
                }
                .to_line()],
                false,
            ),
            Err(e) => err(e.to_string()),
        },
        Request::Shutdown => {
            if allow_shutdown {
                (
                    vec![Response::Ok {
                        what: "shutdown".into(),
                    }
                    .to_line()],
                    true,
                )
            } else {
                err("shutdown is only accepted on the primary input".into())
            }
        }
    }
}

fn write_lines(out: &mut impl Write, lines: &[String]) -> Result<(), String> {
    for line in lines {
        writeln!(out, "{line}").map_err(|e| format!("write output: {e}"))?;
    }
    out.flush().map_err(|e| format!("flush output: {e}"))
}

/// What the session preamble sniff decided.
enum Mode {
    Json,
    Binary,
    /// The stream opened with `O` but not the full `ORFB` magic.
    GarbledMagic,
}

/// Decide a stream's wire format from its first bytes. A binary session's
/// magic is consumed; a JSON stream is left untouched. JSON requests always
/// open with `{` (or whitespace), so a leading `O` unambiguously announces
/// a binary-intent client.
fn sniff_mode(reader: &mut impl BufRead) -> Result<Mode, String> {
    let buf = reader.fill_buf().map_err(|e| format!("read input: {e}"))?;
    let Some(&first) = buf.first() else {
        return Ok(Mode::Json); // empty stream; JSON loop ends at EOF
    };
    if first != WIRE_MAGIC[0] {
        return Ok(Mode::Json);
    }
    let mut magic = [0u8; 4];
    reader
        .read_exact(&mut magic)
        .map_err(|e| format!("read session magic: {e}"))?;
    if magic == WIRE_MAGIC {
        Ok(Mode::Binary)
    } else {
        Ok(Mode::GarbledMagic)
    }
}

/// Serve a binary session: handshake, then batched frames until EOF or
/// `Shutdown`. Returns whether the peer requested daemon shutdown.
fn serve_binary(
    fleet: &FleetEngine,
    reader: &mut impl BufRead,
    writer: &mut impl Write,
    allow_shutdown: bool,
) -> Result<bool, String> {
    // The session's own buffer: large enough for a full batch, and it
    // shows what is already read without blocking (the trickle rule below).
    // Reads through it bypass the smaller buffer of `reader` once empty.
    let reader = &mut BufReader::with_capacity(SESSION_BUF_BYTES, reader);
    let mut out = Vec::new();
    let send_error = |writer: &mut dyn Write, message: String| -> Result<(), String> {
        let mut buf = Vec::new();
        ServerFrame::Error { message }.encode(&mut buf);
        writer
            .write_all(&buf)
            .and_then(|()| writer.flush())
            .map_err(|e| format!("write output: {e}"))
    };

    // Handshake: the first frame must be a version- and schema-checked
    // Hello binding the session to one tenant.
    let tenant = {
        let (op, payload) = match read_frame(reader) {
            Ok(Some(f)) => f,
            Ok(None) => return Ok(false),
            Err(e) => {
                send_error(writer, e.to_string())?;
                return Ok(false);
            }
        };
        let hello = match ClientFrame::decode(op, &payload) {
            Ok(ClientFrame::Hello {
                version,
                fingerprint,
                tenant,
            }) => {
                if version != WIRE_VERSION {
                    send_error(
                        writer,
                        ProtocolError::Version {
                            ours: WIRE_VERSION,
                            theirs: version,
                        }
                        .to_string(),
                    )?;
                    return Ok(false);
                }
                (fingerprint, tenant)
            }
            Ok(_) => {
                send_error(
                    writer,
                    "binary sessions must open with a hello frame".into(),
                )?;
                return Ok(false);
            }
            Err(e) => {
                send_error(writer, e.to_string())?;
                return Ok(false);
            }
        };
        let (fingerprint, tenant) = hello;
        let (expected, n_base, n_features) = match fleet.schema_info(Some(&tenant)) {
            Ok(info) => info,
            Err(e) => {
                send_error(writer, e.to_string())?;
                return Ok(false);
            }
        };
        if fingerprint != expected {
            send_error(
                writer,
                ProtocolError::SchemaMismatch {
                    expected,
                    got: fingerprint,
                }
                .to_string(),
            )?;
            return Ok(false);
        }
        ServerFrame::HelloAck {
            version: WIRE_VERSION,
            n_base: n_base.min(u16::MAX as usize) as u16,
            n_features: n_features.min(u16::MAX as usize) as u16,
        }
        .encode(&mut out);
        writer
            .write_all(&out)
            .and_then(|()| writer.flush())
            .map_err(|e| format!("write output: {e}"))?;
        out.clear();
        tenant
    };
    let (_, n_base, n_features) = fleet
        .schema_info(Some(&tenant))
        .map_err(|e| e.to_string())?;

    let mut batch: Vec<FleetEvent> = Vec::with_capacity(BATCH_EVENTS);
    let mut shutdown = false;
    loop {
        let frame = match read_frame(reader) {
            Ok(f) => f,
            Err(e) => {
                // Binary framing cannot re-synchronise after garbage: report
                // and end the session (the daemon itself keeps running).
                send_error(writer, e.to_string())?;
                break;
            }
        };
        let at_eof = frame.is_none();

        // Decode event frames straight into the batch; everything else
        // flushes the batch first so request ordering is preserved.
        let control = match frame {
            Some((op, payload)) => match ClientFrame::decode(op, &payload) {
                Ok(ClientFrame::Sample {
                    disk_id,
                    day,
                    mut features,
                }) => {
                    // Pad (or truncate) in place, like `pad_features`.
                    features.resize(n_base, 0.0);
                    batch.push(FleetEvent::Sample(DiskDay {
                        disk_id,
                        day,
                        features,
                    }));
                    None
                }
                Ok(ClientFrame::Failure { disk_id, day }) => {
                    batch.push(FleetEvent::Failure { disk_id, day });
                    None
                }
                Ok(other) => Some(other),
                Err(e) => {
                    send_error(writer, e.to_string())?;
                    break;
                }
            },
            None => None, // EOF: flush what's batched, then leave
        };
        // Keep decoding while the batch has room and the next frame is
        // already buffered. Before a read that may block, the batch goes
        // to the engine (the trickle rule), so a client that pauses still
        // has everything it sent applied.
        if control.is_none() && batch.len() < BATCH_EVENTS && frame_buffered(reader.buffer()) {
            continue;
        }

        if !batch.is_empty() {
            if let Err(e) = fleet.ingest_batch(Some(&tenant), batch.drain(..)) {
                ServerFrame::Error {
                    message: e.to_string(),
                }
                .encode(&mut out);
            } else if control.is_none() && reader.buffer().is_empty() {
                // Nothing more is read yet: wait for the writer so the
                // alarms of everything sent so far go out before the read.
                let _ = fleet.flush(Some(&tenant));
            }
        }

        let mut done = false;
        match control {
            None if at_eof => done = true, // EOF
            None => {}                     // batch flush only
            Some(req) => match req {
                ClientFrame::Hello { .. } => {
                    ServerFrame::Error {
                        message: "session is already bound to a tenant".into(),
                    }
                    .encode(&mut out);
                }
                ClientFrame::Score { features } => {
                    match fleet.score(Some(&tenant), &pad_features(&features, n_features)) {
                        Ok(score) => ServerFrame::ScoreReply { score }.encode(&mut out),
                        Err(e) => ServerFrame::Error {
                            message: e.to_string(),
                        }
                        .encode(&mut out),
                    }
                }
                ClientFrame::Stats => match fleet.stats(Some(&tenant)) {
                    Ok(stats) => ServerFrame::StatsReply {
                        json: stats_line(&stats),
                    }
                    .encode(&mut out),
                    Err(e) => ServerFrame::Error {
                        message: e.to_string(),
                    }
                    .encode(&mut out),
                },
                ClientFrame::Checkpoint { path } => {
                    let path = path.map(PathBuf::from);
                    match fleet.checkpoint(Some(&tenant), path.as_deref()) {
                        Ok(p) => ServerFrame::Ok {
                            message: format!("checkpoint {}", p.display()),
                        }
                        .encode(&mut out),
                        Err(e) => ServerFrame::Error {
                            message: e.to_string(),
                        }
                        .encode(&mut out),
                    }
                }
                ClientFrame::Reshard { n_shards } => {
                    match fleet.reshard(Some(&tenant), n_shards as usize) {
                        Ok(()) => ServerFrame::Ok {
                            message: format!("reshard to {n_shards} shards"),
                        }
                        .encode(&mut out),
                        Err(e) => ServerFrame::Error {
                            message: e.to_string(),
                        }
                        .encode(&mut out),
                    }
                }
                ClientFrame::Shutdown => {
                    if allow_shutdown {
                        shutdown = true;
                        done = true;
                        // A tenant whose engine died is reported, and the
                        // daemon still shuts down: `run` finishes the rest.
                        match fleet.flush(Some(&tenant)) {
                            Ok(()) => ServerFrame::Ok {
                                message: "shutdown".into(),
                            },
                            Err(e) => ServerFrame::Error {
                                message: e.to_string(),
                            },
                        }
                        .encode(&mut out);
                    } else {
                        ServerFrame::Error {
                            message: "shutdown is only accepted on the primary input".into(),
                        }
                        .encode(&mut out);
                    }
                }
                // Sample/Failure were batched above, never reach here.
                ClientFrame::Sample { .. } | ClientFrame::Failure { .. } => {}
            },
        }

        // Alarms precede the direct reply, mirroring the JSON loop's order.
        let mut frames = Vec::new();
        if let Ok(alarms) = fleet.take_alarms(Some(&tenant)) {
            for a in alarms {
                ServerFrame::Alarm {
                    disk_id: a.disk_id,
                    day: a.day,
                    score: a.score,
                }
                .encode(&mut frames);
            }
        }
        frames.extend_from_slice(&out);
        out.clear();
        if !frames.is_empty() {
            writer
                .write_all(&frames)
                .and_then(|()| writer.flush())
                .map_err(|e| format!("write output: {e}"))?;
        }
        if done {
            break;
        }
    }
    Ok(shutdown)
}

/// Serve a JSON session (primary input or one TCP connection).
/// Returns whether the peer requested daemon shutdown.
fn serve_json(
    fleet: &FleetEngine,
    reader: impl BufRead,
    writer: &mut impl Write,
    allow_shutdown: bool,
    injector: Option<&Arc<dyn FaultInjector>>,
) -> Result<bool, String> {
    for (line_idx, line) in (0_u64..).zip(reader.lines()) {
        let mut line = line.map_err(|e| format!("read input: {e}"))?;
        let mut lines = Vec::new();
        if let Some(inj) = injector {
            if let Some(mangled) = inj.mangle_line(line_idx, &line) {
                line = mangled;
            }
            // Fleet-level fault hooks: a live reshard or a tenant kill
            // scheduled at this exact stream position (empty name = the
            // fleet's default tenant).
            if let Some((t, n)) = inj.reshard_event(line_idx) {
                let target = if t.is_empty() { None } else { Some(t.as_str()) };
                if let Err(e) = fleet.reshard(target, n) {
                    lines.push(
                        Response::Error {
                            message: format!("injected reshard: {e}"),
                        }
                        .to_line(),
                    );
                }
            }
            if let Some(t) = inj.kill_tenant(line_idx) {
                let target = if t.is_empty() { None } else { Some(t.as_str()) };
                if let Err(e) = fleet.kill(target) {
                    lines.push(
                        Response::Error {
                            message: format!("injected tenant kill: {e}"),
                        }
                        .to_line(),
                    );
                }
            }
        }
        if line.trim().is_empty() {
            if !lines.is_empty() {
                write_lines(writer, &lines)?;
            }
            continue;
        }
        let mut shutdown = false;
        match Request::parse_with_tenant(&line) {
            Ok((tenant, req)) => {
                drain_alarm_lines(fleet, tenant.as_deref(), &mut lines);
                let (mut responses, is_shutdown) =
                    handle_json(fleet, tenant.as_deref(), req, allow_shutdown);
                lines.append(&mut responses);
                shutdown = is_shutdown;
            }
            Err(e) => lines.push(
                Response::Error {
                    message: e.to_string(),
                }
                .to_line(),
            ),
        }
        write_lines(writer, &lines)?;
        if shutdown {
            return Ok(true);
        }
    }
    Ok(false)
}

/// Run the fleet daemon until `shutdown` or end of primary input. Returns
/// per-tenant results (full alarm history, final checkpoint, the run's
/// counters) in configuration order.
pub fn run(
    cfg: &FleetDaemonConfig,
    mut input: impl BufRead,
    mut output: impl Write,
) -> Result<Vec<TenantFinished>, String> {
    let (fleet, notes) = FleetEngine::start(cfg.tenants.clone())?;
    let fleet = Arc::new(fleet);

    // Catch-up notes (and any alarms the replay raised) go out first, one
    // per tenant with a store, before the daemon reads a single request.
    let mut lines = Vec::new();
    for note in &notes {
        drain_alarm_lines(&fleet, Some(&note.tenant), &mut lines);
        lines.push(
            Response::Ok {
                what: format!(
                    "catch-up tenant `{}`: applied {} events from {} (skipped {})",
                    note.tenant,
                    note.applied,
                    note.store.display(),
                    note.skipped
                ),
            }
            .to_line(),
        );
    }
    if !lines.is_empty() {
        write_lines(&mut output, &lines)?;
    }

    if let Some(addr) = &cfg.listen {
        let listener = TcpListener::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;
        let fleet = Arc::clone(&fleet);
        std::thread::Builder::new()
            .name("orfpredd-accept".into())
            .spawn(move || accept_loop(&listener, &fleet))
            .map_err(|e| format!("spawn acceptor: {e}"))?;
    }

    match sniff_mode(&mut input)? {
        Mode::Binary => {
            serve_binary(&fleet, &mut input, &mut output, true)?;
        }
        Mode::GarbledMagic => {
            write_lines(
                &mut output,
                &[Response::Error {
                    message: ProtocolError::Garbled(
                        "stream opened with a partial binary magic".into(),
                    )
                    .to_string(),
                }
                .to_line()],
            )?;
            serve_json(&fleet, input, &mut output, true, Some(&cfg.injector))?;
        }
        Mode::Json => {
            serve_json(&fleet, input, &mut output, true, Some(&cfg.injector))?;
        }
    }

    // Drain every tenant before the engines shut down, then finish.
    let mut lines = Vec::new();
    for name in fleet.tenant_names() {
        if fleet.flush(Some(&name)).is_ok() {
            drain_alarm_lines(&fleet, Some(&name), &mut lines);
        }
    }
    write_lines(&mut output, &lines)?;
    fleet.finish()
}

/// The shutdown report for stderr: one line for the daemon, then one per
/// finished tenant, each prefixed with `prog`.
pub fn shutdown_summary(prog: &str, fins: &[TenantFinished]) -> String {
    let mut out = format!("{prog}: clean shutdown, {} tenant(s)\n", fins.len());
    for f in fins {
        let c = &f.counters;
        out.push_str(&format!(
            "{prog}: tenant `{}`: {} events, {} alarms, {} drift events, {} rebuilds, {} reshards\n",
            f.tenant, c.events, c.alarms, c.drift_events, c.model_rebuilds, c.reshards,
        ));
    }
    out
}

/// Accept TCP connections, each served on its own thread in whichever wire
/// format it opens with. Connections cannot shut the daemon down.
fn accept_loop(listener: &TcpListener, fleet: &Arc<FleetEngine>) {
    for conn in listener.incoming() {
        let Ok(stream) = conn else { return };
        let fleet = Arc::clone(fleet);
        let _ = std::thread::Builder::new()
            .name("orfpredd-conn".into())
            .spawn(move || {
                let mut reader = BufReader::new(match stream.try_clone() {
                    Ok(s) => s,
                    Err(_) => return,
                });
                let mut writer = stream;
                match sniff_mode(&mut reader) {
                    Ok(Mode::Binary) => {
                        let _ = serve_binary(&fleet, &mut reader, &mut writer, false);
                    }
                    Ok(Mode::Json) => {
                        let _ = serve_json(&fleet, reader, &mut writer, false, None);
                    }
                    Ok(Mode::GarbledMagic) | Err(_) => {}
                }
            });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orfpred_core::OnlinePredictorConfig;
    use orfpred_serve::Checkpoint;
    use std::io::Cursor;

    fn predictor(seed: u64) -> OnlinePredictorConfig {
        let mut p = OnlinePredictorConfig::new(vec![0, 1], seed);
        p.orf.n_trees = 3;
        p.orf.warmup_age = 0;
        p.orf.min_parent_size = 10.0;
        p.orf.lambda_neg = 0.5;
        p
    }

    fn two_tenant_cfg() -> FleetDaemonConfig {
        FleetDaemonConfig::new(vec![
            TenantConfig::new("sta", predictor(5)),
            TenantConfig::new("stb", predictor(6)),
        ])
    }

    fn run_script(cfg: &FleetDaemonConfig, script: &str) -> (Vec<TenantFinished>, Vec<String>) {
        let mut out = Vec::new();
        let fins = run(cfg, Cursor::new(script.to_string()), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        (fins, text.lines().map(str::to_string).collect())
    }

    #[test]
    fn json_requests_route_by_tenant_field() {
        let mut script = String::new();
        for day in 0..20 {
            script.push_str(&format!(
                "{{\"type\":\"sample\",\"tenant\":\"sta\",\"disk_id\":1,\"day\":{day},\"features\":[{day},1.0]}}\n"
            ));
        }
        script.push_str("{\"type\":\"failure\",\"tenant\":\"sta\",\"disk_id\":1,\"day\":20}\n");
        script.push_str("{\"type\":\"stats\",\"tenant\":\"sta\"}\n");
        script.push_str("{\"type\":\"stats\",\"tenant\":\"stb\"}\n");
        script.push_str("{\"type\":\"score\",\"tenant\":\"stb\",\"features\":[1.0,1.0]}\n");
        script.push_str("{\"type\":\"stats\",\"tenant\":\"nope\"}\n");
        script.push_str("{\"type\":\"stats\"}\n"); // ambiguous in a 2-tenant fleet
        let ck =
            std::env::temp_dir().join(format!("orfpred_fleet_route_{}.json", std::process::id()));
        script.push_str(&format!(
            "{{\"type\":\"checkpoint\",\"tenant\":\"sta\",\"path\":\"{}\"}}\n",
            ck.display()
        ));
        script.push_str("{\"type\":\"shutdown\"}\n");

        let (fins, lines) = run_script(&two_tenant_cfg(), &script);
        assert!(lines
            .iter()
            .any(|l| l.contains("\"type\":\"ok\"") && l.contains("checkpoint")));
        let last_reply = lines
            .iter()
            .rev()
            .find(|l| !l.contains("\"type\":\"alarm\""));
        assert!(
            last_reply.is_some_and(|l| l.contains("\"what\":\"shutdown\"")),
            "shutdown is the last reply: {lines:?}"
        );
        let Checkpoint::Online { labeller, .. } = Checkpoint::load(&ck).unwrap();
        assert_eq!(
            labeller.unwrap().n_pending(),
            0,
            "the failure flushed the queue before the checkpoint"
        );
        std::fs::remove_file(&ck).ok();
        assert_eq!(fins.len(), 2);
        assert!(lines
            .iter()
            .any(|l| l.contains("\"tenant\":\"sta\"") && l.contains("\"events\":21")));
        assert!(lines
            .iter()
            .any(|l| l.contains("\"tenant\":\"stb\"") && l.contains("\"events\":0")));
        assert!(lines.iter().any(|l| l.contains("\"type\":\"score\"")));
        assert!(lines.iter().any(|l| l.contains("unknown tenant `nope`")));
        assert!(
            lines.iter().any(|l| l.contains("explicit tenant")),
            "tenant-less request in a multi-tenant fleet errors: {lines:?}"
        );
        let sta = fins.iter().find(|f| f.tenant == "sta").unwrap();
        assert_eq!(sta.counters.events, 21);
    }

    #[test]
    fn json_reshard_request_is_served_live() {
        let mut script = String::new();
        for day in 0..10 {
            script.push_str(&format!(
                "{{\"type\":\"sample\",\"tenant\":\"sta\",\"disk_id\":1,\"day\":{day},\"features\":[{day},1.0]}}\n"
            ));
        }
        script.push_str("{\"type\":\"reshard\",\"tenant\":\"sta\",\"n_shards\":3}\n");
        for day in 10..20 {
            script.push_str(&format!(
                "{{\"type\":\"sample\",\"tenant\":\"sta\",\"disk_id\":1,\"day\":{day},\"features\":[{day},1.0]}}\n"
            ));
        }
        script.push_str("{\"type\":\"stats\",\"tenant\":\"sta\"}\n");
        script.push_str("{\"type\":\"shutdown\"}\n");
        let (fins, lines) = run_script(&two_tenant_cfg(), &script);
        assert!(lines.iter().any(|l| l.contains("reshard to 3 shards")));
        assert!(lines
            .iter()
            .any(|l| l.contains("\"n_shards\":3") && l.contains("\"reshards\":1")));
        let sta = fins.iter().find(|f| f.tenant == "sta").unwrap();
        assert_eq!(sta.counters.events, 20, "events counted across the reshard");
        assert_eq!(sta.counters.reshards, 1);
    }

    #[test]
    fn binary_session_handshakes_and_ingests() {
        let cfg = FleetDaemonConfig::new(vec![TenantConfig::new("solo", predictor(7))]);
        let fingerprint = cfg.tenants[0].serve.predictor.domain_schema().fingerprint();

        let mut input = Vec::new();
        input.extend_from_slice(&WIRE_MAGIC);
        ClientFrame::Hello {
            version: WIRE_VERSION,
            fingerprint,
            tenant: "solo".into(),
        }
        .encode(&mut input);
        for day in 0..30u16 {
            ClientFrame::Sample {
                disk_id: 1,
                day,
                features: vec![f32::from(day), 1.0],
            }
            .encode(&mut input);
        }
        ClientFrame::Failure {
            disk_id: 1,
            day: 30,
        }
        .encode(&mut input);
        ClientFrame::Stats.encode(&mut input);
        ClientFrame::Shutdown.encode(&mut input);

        let mut out = Vec::new();
        let fins = run(&cfg, Cursor::new(input), &mut out).unwrap();
        let mut cursor = &out[..];
        let (op, payload) = read_frame(&mut cursor).unwrap().unwrap();
        assert!(matches!(
            ServerFrame::decode(op, &payload).unwrap(),
            ServerFrame::HelloAck {
                version: WIRE_VERSION,
                ..
            }
        ));
        let mut saw_stats = false;
        let mut saw_ok = false;
        while let Some((op, payload)) = read_frame(&mut cursor).unwrap() {
            match ServerFrame::decode(op, &payload).unwrap() {
                ServerFrame::StatsReply { json } => {
                    assert!(json.contains("\"events\":31"), "got: {json}");
                    saw_stats = true;
                }
                ServerFrame::Ok { message } => {
                    assert_eq!(message, "shutdown");
                    saw_ok = true;
                }
                ServerFrame::Alarm { .. } => {}
                other => panic!("unexpected frame: {other:?}"),
            }
        }
        assert!(saw_stats && saw_ok);
        assert_eq!(fins[0].counters.events, 31);
    }

    #[test]
    fn a_dead_shard_fails_the_daemon_without_saving_its_tenant() {
        #[derive(Debug)]
        struct KillAt(u64);
        impl orfpred_serve::FaultInjector for KillAt {
            fn kill_shard(&self, _shard: usize, seq: u64) -> bool {
                seq == self.0
            }
        }
        let dir = std::env::temp_dir().join(format!("orfpred_daemon_dead_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut dead = TenantConfig::new("dead", predictor(5));
        dead.serve.n_shards = 1;
        dead.serve.injector = std::sync::Arc::new(KillAt(5));
        dead.checkpoint_path = Some(dir.join("dead.json"));
        let mut live = TenantConfig::new("live", predictor(6));
        live.checkpoint_path = Some(dir.join("live.json"));
        let cfg = FleetDaemonConfig::new(vec![dead, live]);
        let fingerprint = cfg.tenants[0].serve.predictor.domain_schema().fingerprint();

        let mut input = Vec::new();
        input.extend_from_slice(&WIRE_MAGIC);
        ClientFrame::Hello {
            version: WIRE_VERSION,
            fingerprint,
            tenant: "dead".into(),
        }
        .encode(&mut input);
        for day in 0..20u16 {
            ClientFrame::Sample {
                disk_id: 1,
                day,
                features: vec![f32::from(day), 1.0],
            }
            .encode(&mut input);
        }
        ClientFrame::Shutdown.encode(&mut input);

        let (tx, rx) = std::sync::mpsc::channel();
        let daemon = std::thread::spawn(move || {
            let mut out = Vec::new();
            let result = run(&cfg, Cursor::new(input), &mut out).map(|_| ());
            tx.send((result, out)).unwrap();
        });
        let (result, out) = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("the daemon shuts down instead of waiting for the dead shard");
        daemon.join().unwrap();
        let err = result.unwrap_err();
        assert!(err.contains("tenant `dead`"), "{err}");
        let mut cursor = &out[..];
        let mut replies = Vec::new();
        while let Some((op, payload)) = read_frame(&mut cursor).unwrap() {
            replies.push(ServerFrame::decode(op, &payload).unwrap());
        }
        assert!(
            replies.iter().any(|f| matches!(f,
                ServerFrame::Error { message } if message.contains("restore from the last checkpoint"))),
            "the shutdown reply reports the dead engine: {replies:?}"
        );
        assert!(!dir.join("dead.json").exists(), "no truncated checkpoint");
        assert!(
            dir.join("live.json").exists(),
            "the live tenant still saved"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn binary_handshake_rejects_bad_version_schema_and_tenant() {
        let cfg = FleetDaemonConfig::new(vec![TenantConfig::new("solo", predictor(7))]);
        let fingerprint = cfg.tenants[0].serve.predictor.domain_schema().fingerprint();

        let attempts: Vec<(ClientFrame, &str)> = vec![
            (
                ClientFrame::Hello {
                    version: WIRE_VERSION + 1,
                    fingerprint,
                    tenant: "solo".into(),
                },
                "wire version mismatch",
            ),
            (
                ClientFrame::Hello {
                    version: WIRE_VERSION,
                    fingerprint: fingerprint ^ 1,
                    tenant: "solo".into(),
                },
                "schema fingerprint mismatch",
            ),
            (
                ClientFrame::Hello {
                    version: WIRE_VERSION,
                    fingerprint,
                    tenant: "ghost".into(),
                },
                "unknown tenant",
            ),
        ];
        for (hello, expect) in attempts {
            let mut input = Vec::new();
            input.extend_from_slice(&WIRE_MAGIC);
            hello.encode(&mut input);
            let mut out = Vec::new();
            run(&cfg, Cursor::new(input), &mut out).unwrap();
            let mut cursor = &out[..];
            let (op, payload) = read_frame(&mut cursor).unwrap().unwrap();
            let ServerFrame::Error { message } = ServerFrame::decode(op, &payload).unwrap() else {
                panic!("expected an error frame");
            };
            assert!(message.contains(expect), "got: {message}");
        }
    }

    #[test]
    fn injected_reshard_and_tenant_kill_fire_from_the_plan_hooks() {
        #[derive(Debug)]
        struct Hooks;
        impl FaultInjector for Hooks {
            fn reshard_event(&self, idx: u64) -> Option<(String, usize)> {
                (idx == 3).then(|| ("sta".to_string(), 2))
            }
            fn kill_tenant(&self, idx: u64) -> Option<String> {
                (idx == 6).then(|| "stb".to_string())
            }
        }
        let mut cfg = two_tenant_cfg();
        cfg.injector = Arc::new(Hooks);
        let mut script = String::new();
        for day in 0..8 {
            script.push_str(&format!(
                "{{\"type\":\"sample\",\"tenant\":\"sta\",\"disk_id\":1,\"day\":{day},\"features\":[{day},1.0]}}\n"
            ));
        }
        script.push_str("{\"type\":\"stats\",\"tenant\":\"sta\"}\n");
        script.push_str("{\"type\":\"stats\",\"tenant\":\"stb\"}\n");
        script.push_str("{\"type\":\"shutdown\"}\n");
        let (fins, lines) = run_script(&cfg, &script);
        assert!(lines
            .iter()
            .any(|l| l.contains("\"tenant\":\"sta\"") && l.contains("\"reshards\":1")));
        assert!(
            lines
                .iter()
                .any(|l| l.contains("tenant `stb` is shut down")),
            "killed tenant rejects requests: {lines:?}"
        );
        // The killed tenant was skipped by finish(): only sta reports back.
        assert_eq!(fins.len(), 1);
        assert_eq!(fins[0].tenant, "sta");
        assert_eq!(fins[0].counters.events, 8);
    }

    #[test]
    fn malformed_lines_and_partial_magic_do_not_kill_the_daemon() {
        let cfg = FleetDaemonConfig::new(vec![TenantConfig::new("solo", predictor(7))]);
        let script =
            "garbage\n{\"type\":\"nope\"}\n{\"type\":\"stats\"}\n{\"type\":\"shutdown\"}\n";
        let (_, lines) = run_script(&cfg, script);
        let errors = lines
            .iter()
            .filter(|l| l.contains("\"type\":\"error\""))
            .count();
        assert_eq!(errors, 2, "one error per bad line: {lines:?}");
        assert!(lines.iter().any(|l| l.contains("\"type\":\"stats\"")));
    }

    #[test]
    fn eof_checkpoints_and_a_restart_resumes_after_store_catch_up() {
        use orfpred_smart::gen::{FleetConfig, ScalePreset};

        let base =
            std::env::temp_dir().join(format!("orfpred_fleet_restart_{}", std::process::id()));
        std::fs::remove_dir_all(&base).ok();
        let store_dir = base.join("store");
        let ck = base.join("ck.json");
        let mut fleet = FleetConfig::sta(ScalePreset::Tiny, 7);
        fleet.n_good = 6;
        fleet.n_failed = 2;
        fleet.duration_days = 60;
        let store_cfg = orfpred_store::StoreConfig {
            segment_rows: 64,
            ..Default::default()
        };
        orfpred_store::record_fleet(&store_dir, &fleet, store_cfg).unwrap();
        let total = orfpred_store::Store::open(&store_dir)
            .unwrap()
            .events()
            .count() as u64;

        let mut tenant = TenantConfig::new("solo", predictor(7));
        tenant.checkpoint_path = Some(ck.clone());
        tenant.catchup_store = Some(store_dir);
        let cfg = FleetDaemonConfig::new(vec![tenant]);

        // First run: a fresh engine, so the whole store is the tail. Bare
        // EOF, no shutdown request, still writes the default checkpoint.
        let (_, lines) = run_script(&cfg, "");
        assert!(
            lines
                .iter()
                .any(|l| l.contains(&format!("applied {total} events")) && l.contains("skipped 0")),
            "catch-up note missing: {lines:?}"
        );
        let Checkpoint::Online {
            events_ingested,
            next_seq: first_seq,
            ..
        } = Checkpoint::load(&ck).unwrap();
        assert_eq!(events_ingested, Some(total));

        // Second run restores: the cursor covers the whole store, so
        // catch-up applies nothing and the stream continues from the
        // checkpoint's sequence number.
        let mut script = String::new();
        for day in 0..10 {
            script.push_str(&format!(
                "{{\"type\":\"sample\",\"disk_id\":9999,\"day\":{day},\"features\":[1.0,{day}]}}\n"
            ));
        }
        let (fins, lines) = run_script(&cfg, &script);
        assert!(
            lines
                .iter()
                .any(|l| l.contains("applied 0 events") && l.contains(&format!("skipped {total}"))),
            "tail-only catch-up missing: {lines:?}"
        );
        let Checkpoint::Online {
            events_ingested,
            next_seq,
            ..
        } = &fins[0].checkpoint;
        assert_eq!(*events_ingested, Some(total + 10));
        assert!(
            next_seq.unwrap() >= first_seq.unwrap() + 10,
            "sequence numbers continued"
        );
        std::fs::remove_dir_all(&base).ok();
    }

    /// A primary input that blocks on a channel, so the daemon stays up
    /// until the test sends shutdown.
    struct ChanRead(std::sync::mpsc::Receiver<String>, Vec<u8>);

    impl std::io::Read for ChanRead {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            while self.1.is_empty() {
                match self.0.recv() {
                    Ok(s) => self.1.extend_from_slice(s.as_bytes()),
                    Err(_) => return Ok(0),
                }
            }
            let n = buf.len().min(self.1.len());
            buf[..n].copy_from_slice(&self.1[..n]);
            self.1.drain(..n);
            Ok(n)
        }
    }

    /// A loopback address with a free port: bind to learn one, then hand
    /// the address over.
    fn free_addr() -> String {
        let probe = TcpListener::bind("127.0.0.1:0").unwrap();
        probe.local_addr().unwrap().to_string()
    }

    /// Connect once the daemon's listener is up.
    fn connect(addr: &str) -> std::net::TcpStream {
        for _ in 0..100 {
            match std::net::TcpStream::connect(addr) {
                Ok(c) => return c,
                Err(_) => std::thread::sleep(std::time::Duration::from_millis(10)),
            }
        }
        panic!("daemon listener did not come up at {addr}");
    }

    #[test]
    fn a_binary_trickle_is_applied_and_alarmed_while_the_session_stays_open() {
        let addr = free_addr();
        let mut p = predictor(7);
        p.alarm_threshold = 0.0; // every scored sample alarms
        let mut cfg = FleetDaemonConfig::new(vec![TenantConfig::new("solo", p)]);
        cfg.listen = Some(addr.clone());
        let fingerprint = cfg.tenants[0].serve.predictor.domain_schema().fingerprint();
        let (input_tx, input_rx) = std::sync::mpsc::sync_channel::<String>(16);
        let daemon = std::thread::spawn(move || {
            run(
                &cfg,
                BufReader::new(ChanRead(input_rx, Vec::new())),
                Vec::new(),
            )
            .is_ok()
        });

        // Hello plus three samples, far short of a batch; the client then
        // waits with its connection open.
        let mut conn = connect(&addr);
        let mut bytes = WIRE_MAGIC.to_vec();
        ClientFrame::Hello {
            version: WIRE_VERSION,
            fingerprint,
            tenant: "solo".into(),
        }
        .encode(&mut bytes);
        for day in 0..3u16 {
            ClientFrame::Sample {
                disk_id: 1,
                day,
                features: vec![f32::from(day), 1.0],
            }
            .encode(&mut bytes);
        }
        conn.write_all(&bytes).unwrap();
        conn.set_read_timeout(Some(std::time::Duration::from_secs(5)))
            .unwrap();
        let mut replies = BufReader::new(conn.try_clone().unwrap());
        let (op, payload) = read_frame(&mut replies).unwrap().unwrap();
        assert!(matches!(
            ServerFrame::decode(op, &payload).unwrap(),
            ServerFrame::HelloAck { .. }
        ));
        let mut alarm_days = Vec::new();
        while alarm_days.len() < 3 {
            let (op, payload) = read_frame(&mut replies)
                .expect("alarms arrive while the session is open")
                .unwrap();
            match ServerFrame::decode(op, &payload).unwrap() {
                ServerFrame::Alarm { day, .. } => alarm_days.push(day),
                other => panic!("unexpected frame: {other:?}"),
            }
        }
        assert_eq!(alarm_days, [0, 1, 2]);

        let mut probe = connect(&addr);
        writeln!(probe, "{{\"type\":\"stats\"}}").unwrap();
        let mut line = String::new();
        BufReader::new(probe).read_line(&mut line).unwrap();
        assert!(line.contains("\"events\":3"), "got: {line}");

        drop((replies, conn));
        input_tx.send("{\"type\":\"shutdown\"}\n".into()).unwrap();
        assert!(daemon.join().unwrap(), "daemon exited cleanly");
    }

    #[test]
    fn tcp_json_probes_answer_score_and_stats_but_not_shutdown() {
        let addr = free_addr();
        let mut cfg = FleetDaemonConfig::new(vec![TenantConfig::new("solo", predictor(7))]);
        cfg.listen = Some(addr.clone());

        let (input_tx, input_rx) = std::sync::mpsc::sync_channel::<String>(16);
        let daemon = std::thread::spawn(move || {
            run(
                &cfg,
                BufReader::new(ChanRead(input_rx, Vec::new())),
                Vec::new(),
            )
            .is_ok()
        });

        let mut conn = connect(&addr);
        writeln!(conn, "{{\"type\":\"score\",\"features\":[0.0,0.0]}}").unwrap();
        writeln!(conn, "{{\"type\":\"stats\"}}").unwrap();
        writeln!(conn, "{{\"type\":\"shutdown\"}}").unwrap();
        let mut reader = BufReader::new(conn.try_clone().unwrap());
        for expect in ["\"type\":\"score\"", "\"type\":\"stats\"", "primary input"] {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert!(line.contains(expect), "expected {expect}, got: {line}");
        }
        drop(reader);

        input_tx.send("{\"type\":\"shutdown\"}\n".into()).unwrap();
        assert!(daemon.join().unwrap(), "daemon exited cleanly");
    }

    #[test]
    fn shutdown_summary_reports_per_tenant_counters() {
        let engine = orfpred_serve::Engine::new(&orfpred_serve::ServeConfig::new(predictor(1)));
        let fins = vec![TenantFinished {
            tenant: "sta".into(),
            alarms: Vec::new(),
            checkpoint: engine.finish().unwrap().checkpoint,
            counters: crate::engine::TenantCounters {
                events: 10,
                alarms: 2,
                drift_events: 1,
                model_rebuilds: 1,
                reshards: 3,
            },
        }];
        let text = shutdown_summary("orfpredd", &fins);
        assert!(text.starts_with("orfpredd: clean shutdown, 1 tenant(s)\n"));
        assert!(text.contains("orfpredd: tenant `sta`: 10 events, 2 alarms"));
        assert!(text.contains("3 reshards"));
    }
}
