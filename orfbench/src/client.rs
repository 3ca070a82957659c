//! The load generator's binary sessions: closed-loop ingest over up to two
//! concurrent connections driven by one thread, and the closed-loop score
//! probe on its own connection and thread.

use crate::stats::{Reply, StatsLine};
use crate::workload::{session_preamble, set_template_day, Body, Lane, SessionPlan};
use orfpred_core::Alarm;
use orfpred_fleet::{read_frame, ClientFrame, ServerFrame};
use std::collections::VecDeque;
use std::io::{BufReader, ErrorKind, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Idle back-off of the ingest loop: short while the daemon keeps up,
/// growing while its socket buffers are full.
const BACKOFF_MIN: Duration = Duration::from_micros(50);
const BACKOFF_MAX: Duration = Duration::from_micros(500);

/// Alarms and errors received back from the daemon on one channel: a
/// binary session, or the daemon's standard output.
#[derive(Default)]
pub struct Received {
    /// Alarms.
    pub alarms: Vec<Alarm>,
    /// Error replies.
    pub errors: u64,
    /// First error message seen.
    pub first_error: Option<String>,
}

impl Received {
    fn note_error(&mut self, message: String) {
        self.errors += 1;
        self.first_error.get_or_insert(message);
    }

    /// Keep one output line's alarm or error; hand back a stats reply.
    pub fn take_reply(&mut self, reply: Reply) -> Option<StatsLine> {
        match reply {
            Reply::Alarm(a) => self.alarms.push(a),
            Reply::Error(m) => self.note_error(m),
            Reply::Stats(s) => return Some(s),
            Reply::Other => {}
        }
        None
    }

    fn take(&mut self, frame: ServerFrame) {
        match frame {
            ServerFrame::Alarm {
                disk_id,
                day,
                score,
            } => self.alarms.push(Alarm {
                disk_id,
                day,
                score,
            }),
            ServerFrame::Error { message } => self.note_error(message),
            ServerFrame::HelloAck { .. }
            | ServerFrame::ScoreReply { .. }
            | ServerFrame::StatsReply { .. }
            | ServerFrame::Ok { .. } => {}
        }
    }

    /// Decode every complete frame at the front of `buf`.
    fn drain_frames(&mut self, buf: &mut Vec<u8>) -> Result<(), String> {
        let mut at = 0;
        while buf.len() - at >= 5 {
            let len = u32::from_le_bytes([buf[at + 1], buf[at + 2], buf[at + 3], buf[at + 4]]);
            let end = at + 5 + len as usize;
            if buf.len() < end {
                break;
            }
            let frame = ServerFrame::decode(buf[at], &buf[at + 5..end])
                .map_err(|e| format!("daemon sent a bad frame: {e}"))?;
            self.take(frame);
            at = end;
        }
        buf.drain(..at);
        Ok(())
    }
}

/// One session in flight on a non-blocking connection.
struct Active {
    stream: TcpStream,
    plan: SessionPlan,
    /// 0 = preamble; then one stage per body pass.
    stage: u16,
    pos: usize,
    write_done: bool,
    inbuf: Vec<u8>,
}

struct LaneState {
    pending: VecDeque<SessionPlan>,
    template: Vec<u8>,
    active: Option<Active>,
}

/// The bytes of write stage `stage` of a session, `None` past the last.
fn stage_bytes<'a>(plan: &'a SessionPlan, stage: u16, template: &'a [u8]) -> Option<&'a [u8]> {
    match (stage, &plan.body) {
        (0, _) => Some(&plan.preamble),
        (1, Body::Frames(b)) => Some(b),
        (s, Body::Days(days)) if s <= *days => Some(template),
        _ => None,
    }
}

/// Send every lane's sessions, each lane on one connection at a time and
/// all lanes concurrently, as fast as the daemon accepts them. Each
/// session ends with a half-close; the daemon then flushes its last batch
/// and closes. Returns what came back and the instant the first byte went
/// out.
pub fn drive_lanes(addr: &str, lanes: Vec<Lane>) -> Result<(Received, Instant), String> {
    assert!(
        lanes.len() <= 2,
        "the generator opens at most two connections"
    );
    let mut lanes: Vec<LaneState> = lanes
        .into_iter()
        .map(|l| LaneState {
            pending: l.sessions.into(),
            template: l.day_template,
            active: None,
        })
        .collect();
    let mut got = Received::default();
    let mut first_byte: Option<Instant> = None;
    let mut backoff = BACKOFF_MIN;
    let mut rbuf = vec![0u8; 1 << 16];
    loop {
        let mut progress = false;
        let mut busy = false;
        for lane in &mut lanes {
            if lane.active.is_none() {
                let Some(plan) = lane.pending.pop_front() else {
                    continue;
                };
                let stream =
                    TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
                stream
                    .set_nonblocking(true)
                    .map_err(|e| format!("set non-blocking: {e}"))?;
                lane.active = Some(Active {
                    stream,
                    plan,
                    stage: 0,
                    pos: 0,
                    write_done: false,
                    inbuf: Vec::new(),
                });
            }
            busy = true;
            let LaneState {
                template, active, ..
            } = lane;
            let a = active.as_mut().expect("a session is active");

            // Write side.
            if !a.write_done {
                match stage_bytes(&a.plan, a.stage, template).map(<[u8]>::len) {
                    None => {
                        a.stream
                            .shutdown(Shutdown::Write)
                            .map_err(|e| format!("half-close: {e}"))?;
                        a.write_done = true;
                        progress = true;
                    }
                    Some(len) if a.pos == len => {
                        a.stage += 1;
                        a.pos = 0;
                        if let Body::Days(days) = a.plan.body {
                            if a.stage <= days {
                                set_template_day(template, a.stage - 1);
                            }
                        }
                        progress = true;
                    }
                    Some(_) => {
                        first_byte.get_or_insert_with(Instant::now);
                        let bytes =
                            stage_bytes(&a.plan, a.stage, template).expect("stage has bytes");
                        match a.stream.write(&bytes[a.pos..]) {
                            Ok(n) => {
                                a.pos += n;
                                progress |= n > 0;
                            }
                            Err(e)
                                if matches!(
                                    e.kind(),
                                    ErrorKind::WouldBlock | ErrorKind::Interrupted
                                ) => {}
                            Err(e) => return Err(format!("send to daemon: {e}")),
                        }
                    }
                }
            }

            // Read side.
            match a.stream.read(&mut rbuf) {
                Ok(0) => {
                    got.drain_frames(&mut a.inbuf)?;
                    if !a.inbuf.is_empty() || !a.write_done {
                        return Err("daemon closed a session early".into());
                    }
                    *active = None;
                    progress = true;
                }
                Ok(n) => {
                    a.inbuf.extend_from_slice(&rbuf[..n]);
                    got.drain_frames(&mut a.inbuf)?;
                    progress = true;
                }
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {}
                Err(e) => return Err(format!("receive from daemon: {e}")),
            }
        }
        if !busy {
            break;
        }
        if progress {
            backoff = BACKOFF_MIN;
        } else {
            std::thread::sleep(backoff);
            backoff = (backoff * 2).min(BACKOFF_MAX);
        }
    }
    Ok((got, first_byte.unwrap_or_else(Instant::now)))
}

/// What the score probe measured.
#[derive(Default)]
pub struct ProbeResult {
    /// Round-trip time of every answered probe (ns), in send order.
    pub latencies_ns: Vec<u64>,
    /// Probes sent.
    pub attempted: u64,
    /// Frames that came back on the probe session (its tenant's alarms
    /// are drained to whichever session addresses the tenant).
    pub received: Received,
}

/// Closed-loop score probe: one `Score` frame at a time over its own
/// connection, cycling through `rows`, until `stop` is set.
pub fn probe(
    addr: &str,
    tenant: &str,
    rows: &[Vec<f32>],
    stop: &AtomicBool,
) -> Result<ProbeResult, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("probe connect: {e}"))?;
    stream
        .set_nodelay(true)
        .map_err(|e| format!("probe nodelay: {e}"))?;
    let mut writer = stream
        .try_clone()
        .map_err(|e| format!("probe clone: {e}"))?;
    let mut reader = BufReader::new(stream);
    writer
        .write_all(&session_preamble(tenant))
        .map_err(|e| format!("probe hello: {e}"))?;
    let mut out = ProbeResult::default();
    let recv = |reader: &mut BufReader<TcpStream>| -> Result<ServerFrame, String> {
        let (op, payload) = read_frame(reader)
            .map_err(|e| format!("probe read: {e}"))?
            .ok_or("daemon closed the probe session")?;
        ServerFrame::decode(op, &payload).map_err(|e| format!("probe decode: {e}"))
    };
    match recv(&mut reader)? {
        ServerFrame::HelloAck { .. } => {}
        other => return Err(format!("probe handshake refused: {other:?}")),
    }
    let frames: Vec<Vec<u8>> = rows
        .iter()
        .map(|r| {
            let mut f = Vec::new();
            ClientFrame::Score {
                features: r.clone(),
            }
            .encode(&mut f);
            f
        })
        .collect();
    for frame in frames.iter().cycle() {
        if stop.load(Ordering::Relaxed) {
            break;
        }
        out.attempted += 1;
        let t0 = Instant::now();
        writer
            .write_all(frame)
            .map_err(|e| format!("probe write: {e}"))?;
        loop {
            match recv(&mut reader)? {
                ServerFrame::ScoreReply { .. } => {
                    out.latencies_ns
                        .push(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
                    break;
                }
                f @ ServerFrame::Error { .. } => {
                    out.received.take(f);
                    break;
                }
                f => out.received.take(f),
            }
        }
    }
    Ok(out)
}
