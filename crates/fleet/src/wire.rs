//! The compact binary wire protocol (DESIGN §16).
//!
//! Line-JSON is the compatibility format; this is the throughput format. A
//! client opens a binary session by sending the 4-byte magic `ORFB`, then a
//! `Hello` frame naming the wire version, the tenant, and the tenant's
//! expected domain-schema fingerprint — the daemon refuses the session on
//! any mismatch, so a client built against the wrong schema can never
//! silently misalign feature columns. After the `HelloAck`, the session is
//! bound to that tenant and every subsequent frame omits the tenant name.
//!
//! Frame layout (all integers little-endian):
//!
//! ```text
//! [opcode: u8][len: u32][payload: len bytes]
//! ```
//!
//! `len` is capped at [`MAX_FRAME_LEN`] (shared with the line-JSON parser);
//! an oversized header is a typed [`ProtocolError::Oversized`] before any
//! payload allocation. Client opcodes are `0x01..=0x08`, server opcodes
//! `0x81..=0x86`:
//!
//! | op   | frame      | payload                                          |
//! |------|------------|--------------------------------------------------|
//! | 0x01 | Hello      | version u16, fingerprint u64, tenant_len u8, utf8 |
//! | 0x02 | Sample     | disk_id u32, day u16, n u16, n × f32             |
//! | 0x03 | Failure    | disk_id u32, day u16                             |
//! | 0x04 | Score      | n u16, n × f32                                   |
//! | 0x05 | Stats      | (empty)                                          |
//! | 0x06 | Checkpoint | path_len u16, utf8 path (0 = default path)       |
//! | 0x07 | Shutdown   | (empty)                                          |
//! | 0x08 | Reshard    | n_shards u16                                     |
//! | 0x81 | HelloAck   | version u16, n_base u16, n_features u16          |
//! | 0x82 | Alarm      | disk_id u32, day u16, score f32                  |
//! | 0x83 | ScoreReply | score f32                                        |
//! | 0x84 | StatsReply | utf8 JSON                                        |
//! | 0x85 | Ok         | utf8 message (may be empty)                      |
//! | 0x86 | Error      | utf8 message                                     |

use orfpred_serve::{ProtocolError, MAX_FRAME_LEN};
use std::io::Read;

/// Session-opening magic; a connection starting with these four bytes is a
/// binary session, anything else is line-JSON.
pub const WIRE_MAGIC: [u8; 4] = *b"ORFB";

/// Wire protocol version carried in `Hello`/`HelloAck`. Bumped on any
/// frame-layout change; the daemon refuses mismatched clients with a typed
/// [`ProtocolError::Version`].
pub const WIRE_VERSION: u16 = 1;

/// A frame the client sends.
#[derive(Clone, Debug, PartialEq)]
pub enum ClientFrame {
    /// Session open: version + schema handshake, binds the session to one
    /// tenant.
    Hello {
        /// Client's wire protocol version.
        version: u16,
        /// Fingerprint of the domain schema the client encoded against.
        fingerprint: u64,
        /// Tenant this session addresses.
        tenant: String,
    },
    /// Daily telemetry snapshot for one disk.
    Sample {
        /// Disk identifier.
        disk_id: u32,
        /// Observation day.
        day: u16,
        /// Base feature row (padded server-side like the JSON path).
        features: Vec<f32>,
    },
    /// The disk failed; its last snapshot was today's.
    Failure {
        /// Disk identifier.
        disk_id: u32,
        /// Day of failure.
        day: u16,
    },
    /// Score a feature row against the latest snapshot.
    Score {
        /// Full-width feature row.
        features: Vec<f32>,
    },
    /// Request the tenant's stats report.
    Stats,
    /// Write an atomic checkpoint (empty path = tenant's default).
    Checkpoint {
        /// Target path; `None` uses the tenant's configured default.
        path: Option<String>,
    },
    /// Drain and shut down the fleet.
    Shutdown,
    /// Live re-shard this session's tenant.
    Reshard {
        /// New shard count (≥ 1).
        n_shards: u16,
    },
}

/// A frame the server sends.
#[derive(Clone, Debug, PartialEq)]
pub enum ServerFrame {
    /// Handshake accepted; echoes the daemon's version and the tenant's
    /// feature geometry.
    HelloAck {
        /// Daemon's wire protocol version.
        version: u16,
        /// Base (pre-derived) feature count for `Sample` rows.
        n_base: u16,
        /// Full feature count for `Score` rows.
        n_features: u16,
    },
    /// An at-risk alarm from this session's tenant.
    Alarm {
        /// Disk predicted to fail.
        disk_id: u32,
        /// Day the alarm fired.
        day: u16,
        /// Ensemble score that triggered it.
        score: f32,
    },
    /// Reply to `Score`.
    ScoreReply {
        /// Ensemble failure score.
        score: f32,
    },
    /// Reply to `Stats`: the tenant stats report as JSON text.
    StatsReply {
        /// Serialized `TenantStats`.
        json: String,
    },
    /// Generic acknowledgement.
    Ok {
        /// Optional detail (e.g. checkpoint path written).
        message: String,
    },
    /// The request failed.
    Error {
        /// What went wrong.
        message: String,
    },
}

const OP_HELLO: u8 = 0x01;
const OP_SAMPLE: u8 = 0x02;
const OP_FAILURE: u8 = 0x03;
const OP_SCORE: u8 = 0x04;
const OP_STATS: u8 = 0x05;
const OP_CHECKPOINT: u8 = 0x06;
const OP_SHUTDOWN: u8 = 0x07;
const OP_RESHARD: u8 = 0x08;
const OP_HELLO_ACK: u8 = 0x81;
const OP_ALARM: u8 = 0x82;
const OP_SCORE_REPLY: u8 = 0x83;
const OP_STATS_REPLY: u8 = 0x84;
const OP_OK: u8 = 0x85;
const OP_ERROR: u8 = 0x86;

/// Byte-cursor decoder: every read is bounds-checked and returns a typed
/// [`ProtocolError::Garbled`] on underrun, so a truncated or malicious
/// frame can never panic the daemon.
struct Dec<'a> {
    buf: &'a [u8],
}

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtocolError> {
        if self.buf.len() < n {
            return Err(ProtocolError::Garbled(format!(
                "frame payload truncated: wanted {n} more bytes, have {}",
                self.buf.len()
            )));
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8, ProtocolError> {
        let s = self.take(1)?;
        Ok(s[0])
    }

    fn u16(&mut self) -> Result<u16, ProtocolError> {
        let s = self.take(2)?;
        Ok(u16::from_le_bytes([s[0], s[1]]))
    }

    fn u32(&mut self) -> Result<u32, ProtocolError> {
        let s = self.take(4)?;
        Ok(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    fn u64(&mut self) -> Result<u64, ProtocolError> {
        let s = self.take(8)?;
        Ok(u64::from_le_bytes([
            s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7],
        ]))
    }

    fn f32(&mut self) -> Result<f32, ProtocolError> {
        Ok(f32::from_bits(self.u32()?))
    }

    fn floats(&mut self) -> Result<Vec<f32>, ProtocolError> {
        let n = self.u16()? as usize;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.f32()?);
        }
        Ok(out)
    }

    fn utf8(&mut self, n: usize) -> Result<&'a str, ProtocolError> {
        std::str::from_utf8(self.take(n)?)
            .map_err(|_| ProtocolError::Garbled("frame string is not valid UTF-8".into()))
    }

    fn finish(&self) -> Result<(), ProtocolError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(ProtocolError::Garbled(format!(
                "{} trailing bytes after frame payload",
                self.buf.len()
            )))
        }
    }
}

fn put_frame(out: &mut Vec<u8>, opcode: u8, payload: &[u8]) {
    out.push(opcode);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
}

fn put_floats(out: &mut Vec<u8>, xs: &[f32]) {
    out.extend_from_slice(&(xs.len() as u16).to_le_bytes());
    for x in xs {
        out.extend_from_slice(&x.to_bits().to_le_bytes());
    }
}

impl ClientFrame {
    /// Append this frame (header + payload) to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        let mut p = Vec::new();
        let op = match self {
            ClientFrame::Hello {
                version,
                fingerprint,
                tenant,
            } => {
                p.extend_from_slice(&version.to_le_bytes());
                p.extend_from_slice(&fingerprint.to_le_bytes());
                p.push(tenant.len().min(u8::MAX as usize) as u8);
                p.extend_from_slice(tenant.as_bytes());
                OP_HELLO
            }
            ClientFrame::Sample {
                disk_id,
                day,
                features,
            } => {
                p.extend_from_slice(&disk_id.to_le_bytes());
                p.extend_from_slice(&day.to_le_bytes());
                put_floats(&mut p, features);
                OP_SAMPLE
            }
            ClientFrame::Failure { disk_id, day } => {
                p.extend_from_slice(&disk_id.to_le_bytes());
                p.extend_from_slice(&day.to_le_bytes());
                OP_FAILURE
            }
            ClientFrame::Score { features } => {
                put_floats(&mut p, features);
                OP_SCORE
            }
            ClientFrame::Stats => OP_STATS,
            ClientFrame::Checkpoint { path } => {
                let path = path.as_deref().unwrap_or("");
                p.extend_from_slice(&(path.len() as u16).to_le_bytes());
                p.extend_from_slice(path.as_bytes());
                OP_CHECKPOINT
            }
            ClientFrame::Shutdown => OP_SHUTDOWN,
            ClientFrame::Reshard { n_shards } => {
                p.extend_from_slice(&n_shards.to_le_bytes());
                OP_RESHARD
            }
        };
        put_frame(out, op, &p);
    }

    /// Decode a client frame from an opcode + payload read by
    /// [`read_frame`].
    pub fn decode(opcode: u8, payload: &[u8]) -> Result<Self, ProtocolError> {
        let mut d = Dec::new(payload);
        let frame = match opcode {
            OP_HELLO => {
                let version = d.u16()?;
                let fingerprint = d.u64()?;
                let n = d.u8()? as usize;
                let tenant = d.utf8(n)?.to_string();
                ClientFrame::Hello {
                    version,
                    fingerprint,
                    tenant,
                }
            }
            OP_SAMPLE => ClientFrame::Sample {
                disk_id: d.u32()?,
                day: d.u16()?,
                features: d.floats()?,
            },
            OP_FAILURE => ClientFrame::Failure {
                disk_id: d.u32()?,
                day: d.u16()?,
            },
            OP_SCORE => ClientFrame::Score {
                features: d.floats()?,
            },
            OP_STATS => ClientFrame::Stats,
            OP_CHECKPOINT => {
                let n = d.u16()? as usize;
                let path = d.utf8(n)?;
                ClientFrame::Checkpoint {
                    path: if path.is_empty() {
                        None
                    } else {
                        Some(path.to_string())
                    },
                }
            }
            OP_SHUTDOWN => ClientFrame::Shutdown,
            OP_RESHARD => ClientFrame::Reshard { n_shards: d.u16()? },
            other => {
                return Err(ProtocolError::UnknownType(format!(
                    "binary opcode {other:#04x}"
                )))
            }
        };
        d.finish()?;
        Ok(frame)
    }
}

impl ServerFrame {
    /// Append this frame (header + payload) to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        let mut p = Vec::new();
        let op = match self {
            ServerFrame::HelloAck {
                version,
                n_base,
                n_features,
            } => {
                p.extend_from_slice(&version.to_le_bytes());
                p.extend_from_slice(&n_base.to_le_bytes());
                p.extend_from_slice(&n_features.to_le_bytes());
                OP_HELLO_ACK
            }
            ServerFrame::Alarm {
                disk_id,
                day,
                score,
            } => {
                p.extend_from_slice(&disk_id.to_le_bytes());
                p.extend_from_slice(&day.to_le_bytes());
                p.extend_from_slice(&score.to_bits().to_le_bytes());
                OP_ALARM
            }
            ServerFrame::ScoreReply { score } => {
                p.extend_from_slice(&score.to_bits().to_le_bytes());
                OP_SCORE_REPLY
            }
            ServerFrame::StatsReply { json } => {
                p.extend_from_slice(json.as_bytes());
                OP_STATS_REPLY
            }
            ServerFrame::Ok { message } => {
                p.extend_from_slice(message.as_bytes());
                OP_OK
            }
            ServerFrame::Error { message } => {
                p.extend_from_slice(message.as_bytes());
                OP_ERROR
            }
        };
        put_frame(out, op, &p);
    }

    /// Decode a server frame from an opcode + payload read by
    /// [`read_frame`].
    pub fn decode(opcode: u8, payload: &[u8]) -> Result<Self, ProtocolError> {
        let mut d = Dec::new(payload);
        let frame = match opcode {
            OP_HELLO_ACK => ServerFrame::HelloAck {
                version: d.u16()?,
                n_base: d.u16()?,
                n_features: d.u16()?,
            },
            OP_ALARM => ServerFrame::Alarm {
                disk_id: d.u32()?,
                day: d.u16()?,
                score: d.f32()?,
            },
            OP_SCORE_REPLY => ServerFrame::ScoreReply { score: d.f32()? },
            OP_STATS_REPLY => {
                let n = d.buf.len();
                ServerFrame::StatsReply {
                    json: d.utf8(n)?.to_string(),
                }
            }
            OP_OK => {
                let n = d.buf.len();
                ServerFrame::Ok {
                    message: d.utf8(n)?.to_string(),
                }
            }
            OP_ERROR => {
                let n = d.buf.len();
                ServerFrame::Error {
                    message: d.utf8(n)?.to_string(),
                }
            }
            other => {
                return Err(ProtocolError::UnknownType(format!(
                    "binary opcode {other:#04x}"
                )))
            }
        };
        d.finish()?;
        Ok(frame)
    }
}

/// Read one frame header + payload. `Ok(None)` is a clean end-of-stream at
/// a frame boundary; a stream that ends mid-frame, an I/O error, or a
/// `len` beyond [`MAX_FRAME_LEN`] is a typed [`ProtocolError`].
pub fn read_frame<R: Read>(r: &mut R) -> Result<Option<(u8, Vec<u8>)>, ProtocolError> {
    let mut opcode = [0u8; 1];
    loop {
        match r.read(&mut opcode) {
            Ok(0) => return Ok(None),
            Ok(_) => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(ProtocolError::Garbled(format!("read: {e}"))),
        }
    }
    let mut len_bytes = [0u8; 4];
    r.read_exact(&mut len_bytes)
        .map_err(|e| ProtocolError::Garbled(format!("stream ended inside a frame header: {e}")))?;
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > MAX_FRAME_LEN {
        return Err(ProtocolError::Oversized {
            len,
            max: MAX_FRAME_LEN,
        });
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)
        .map_err(|e| ProtocolError::Garbled(format!("stream ended inside a frame payload: {e}")))?;
    Ok(Some((opcode[0], payload)))
}

/// Whether `buf` starts with a whole frame, header and payload, so
/// [`read_frame`] over it would not have to wait for more input.
pub(crate) fn frame_buffered(buf: &[u8]) -> bool {
    match buf.get(1..5) {
        Some(&[a, b, c, d]) => buf.len() - 5 >= u32::from_le_bytes([a, b, c, d]) as usize,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_buffered_needs_the_whole_payload() {
        let mut buf = Vec::new();
        ClientFrame::Failure { disk_id: 7, day: 3 }.encode(&mut buf);
        assert!(frame_buffered(&buf));
        for cut in 0..buf.len() {
            assert!(!frame_buffered(&buf[..cut]), "{cut} of {} bytes", buf.len());
        }
        ClientFrame::Stats.encode(&mut buf);
        assert!(frame_buffered(&buf), "a second frame behind the first");
        assert!(frame_buffered(&[OP_STATS, 0, 0, 0, 0]), "empty payload");
    }

    fn round_trip_client(frame: ClientFrame) {
        let mut buf = Vec::new();
        frame.encode(&mut buf);
        let mut cursor = &buf[..];
        let (op, payload) = read_frame(&mut cursor).unwrap().unwrap();
        assert_eq!(ClientFrame::decode(op, &payload).unwrap(), frame);
        assert!(read_frame(&mut cursor).unwrap().is_none(), "clean EOF");
    }

    fn round_trip_server(frame: ServerFrame) {
        let mut buf = Vec::new();
        frame.encode(&mut buf);
        let mut cursor = &buf[..];
        let (op, payload) = read_frame(&mut cursor).unwrap().unwrap();
        assert_eq!(ServerFrame::decode(op, &payload).unwrap(), frame);
    }

    #[test]
    fn every_frame_round_trips() {
        round_trip_client(ClientFrame::Hello {
            version: WIRE_VERSION,
            fingerprint: 0xDEAD_BEEF_CAFE_F00D,
            tenant: "sta".into(),
        });
        round_trip_client(ClientFrame::Sample {
            disk_id: 123_456,
            day: 77,
            features: vec![0.5, -1.25, f32::MIN_POSITIVE, 1e30],
        });
        round_trip_client(ClientFrame::Failure { disk_id: 9, day: 1 });
        round_trip_client(ClientFrame::Score {
            features: vec![1.0; 28],
        });
        round_trip_client(ClientFrame::Stats);
        round_trip_client(ClientFrame::Checkpoint { path: None });
        round_trip_client(ClientFrame::Checkpoint {
            path: Some("/tmp/ck.json".into()),
        });
        round_trip_client(ClientFrame::Shutdown);
        round_trip_client(ClientFrame::Reshard { n_shards: 8 });

        round_trip_server(ServerFrame::HelloAck {
            version: WIRE_VERSION,
            n_base: 12,
            n_features: 28,
        });
        round_trip_server(ServerFrame::Alarm {
            disk_id: 42,
            day: 365,
            score: 0.875,
        });
        round_trip_server(ServerFrame::ScoreReply { score: 0.125 });
        round_trip_server(ServerFrame::StatsReply {
            json: "{\"type\":\"stats\"}".into(),
        });
        round_trip_server(ServerFrame::Ok { message: "".into() });
        round_trip_server(ServerFrame::Error {
            message: "nope".into(),
        });
    }

    #[test]
    fn float_payloads_are_bit_exact() {
        // NaN payloads and signed zeros must survive the wire unchanged —
        // the bit-exactness guarantee extends to the transport.
        let odd = vec![f32::NAN, -0.0, f32::INFINITY, -f32::MIN_POSITIVE];
        let mut buf = Vec::new();
        ClientFrame::Sample {
            disk_id: 1,
            day: 2,
            features: odd.clone(),
        }
        .encode(&mut buf);
        let mut cursor = &buf[..];
        let (op, payload) = read_frame(&mut cursor).unwrap().unwrap();
        let ClientFrame::Sample { features, .. } = ClientFrame::decode(op, &payload).unwrap()
        else {
            panic!("wrong frame");
        };
        for (a, b) in odd.iter().zip(&features) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn oversized_header_is_rejected_before_allocation() {
        let mut buf = vec![OP_SAMPLE];
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        let mut cursor = &buf[..];
        match read_frame(&mut cursor) {
            Err(ProtocolError::Oversized { len, max }) => {
                assert_eq!(len, u32::MAX as usize);
                assert_eq!(max, MAX_FRAME_LEN);
            }
            other => panic!("expected Oversized, got {other:?}"),
        }
    }

    #[test]
    fn truncated_and_trailing_payloads_are_garbled() {
        // Stream ends mid-payload.
        let mut buf = Vec::new();
        ClientFrame::Failure { disk_id: 7, day: 3 }.encode(&mut buf);
        buf.truncate(buf.len() - 2);
        let mut cursor = &buf[..];
        assert!(matches!(
            read_frame(&mut cursor),
            Err(ProtocolError::Garbled(_))
        ));

        // Payload longer than the frame needs.
        let mut payload = Vec::new();
        payload.extend_from_slice(&7u32.to_le_bytes());
        payload.extend_from_slice(&3u16.to_le_bytes());
        payload.push(0xFF);
        assert!(matches!(
            ClientFrame::decode(OP_FAILURE, &payload),
            Err(ProtocolError::Garbled(_))
        ));

        // Payload shorter than the frame needs.
        assert!(matches!(
            ClientFrame::decode(OP_FAILURE, &7u32.to_le_bytes()),
            Err(ProtocolError::Garbled(_))
        ));
    }

    #[test]
    fn unknown_opcodes_are_typed() {
        assert!(matches!(
            ClientFrame::decode(0x7F, &[]),
            Err(ProtocolError::UnknownType(_))
        ));
        assert!(matches!(
            ServerFrame::decode(0x01, &[]),
            Err(ProtocolError::UnknownType(_))
        ));
    }
}
