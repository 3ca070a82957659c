//! Line-delimited JSON wire protocol.
//!
//! Every request and response is one JSON object per line with a `type`
//! tag. Requests:
//!
//! ```text
//! {"type":"sample","disk_id":17,"day":212,"features":[...48 floats...]}
//! {"type":"failure","disk_id":17,"day":213}
//! {"type":"score","features":[...48 floats...]}
//! {"type":"stats"}
//! {"type":"checkpoint","path":"/var/lib/orfpred/model.json"}
//! {"type":"shutdown"}
//! ```
//!
//! Responses: `{"type":"alarm",...}` (emitted asynchronously as the model
//! writer applies samples), `{"type":"score","score":s}`,
//! `{"type":"stats",...counters...}`, `{"type":"ok","what":...}`, and
//! `{"type":"error","message":...}`.
//!
//! `type` is a Rust keyword, so these types use hand-written `Value`-tree
//! conversions rather than the derive.

use crate::stats::StatsReport;
use orfpred_core::Alarm;
use serde::{Serialize, Value};
use serde_json::ValueRef;

/// Hard cap on one wire unit: a JSON line or a binary frame payload.
/// Anything larger is rejected with [`ProtocolError::Oversized`] before any
/// decoding work — a garbled length prefix must not allocate gigabytes.
pub const MAX_FRAME_LEN: usize = 1 << 20;

/// Typed decode error shared by both wire formats (line-JSON and the
/// length-prefixed binary frames in `orfpred-fleet`). Every variant renders
/// to a stable human-readable message via `Display`, which is what goes
/// into the `{"type":"error"}` / `ERROR` frame reply.
#[derive(Clone, Debug, PartialEq)]
pub enum ProtocolError {
    /// A line or frame exceeded [`MAX_FRAME_LEN`].
    Oversized {
        /// Claimed or actual size of the unit.
        len: usize,
        /// The cap it violated.
        max: usize,
    },
    /// Bytes that don't decode as the wire format at all (bad JSON, bad
    /// magic, truncated frame, non-object request...).
    Garbled(String),
    /// A syntactically valid unit with an unknown request tag or frame
    /// opcode.
    UnknownType(String),
    /// A required field is missing, mistyped, or out of range.
    BadField {
        /// Field (JSON key or frame slot) that failed.
        field: &'static str,
        /// Why it was rejected.
        reason: &'static str,
    },
    /// Binary session opened with an incompatible wire version.
    Version {
        /// Version this daemon speaks.
        ours: u16,
        /// Version the client offered.
        theirs: u16,
    },
    /// Binary session opened against a tenant whose domain schema
    /// fingerprint doesn't match the client's.
    SchemaMismatch {
        /// Fingerprint of the tenant's schema.
        expected: u64,
        /// Fingerprint the client sent.
        got: u64,
    },
    /// The request names a tenant this daemon does not host.
    UnknownTenant(String),
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::Oversized { len, max } => {
                write!(f, "oversized frame: {len} bytes exceeds the {max}-byte cap")
            }
            ProtocolError::Garbled(why) => write!(f, "garbled input: {why}"),
            ProtocolError::UnknownType(tag) => write!(f, "unknown request type `{tag}`"),
            ProtocolError::BadField { field, reason } => write!(f, "`{field}` {reason}"),
            ProtocolError::Version { ours, theirs } => {
                write!(
                    f,
                    "wire version mismatch: daemon speaks v{ours}, client sent v{theirs}"
                )
            }
            ProtocolError::SchemaMismatch { expected, got } => write!(
                f,
                "schema fingerprint mismatch: tenant has {expected:#018x}, client sent {got:#018x}"
            ),
            ProtocolError::UnknownTenant(name) => write!(f, "unknown tenant `{name}`"),
        }
    }
}

impl std::error::Error for ProtocolError {}

/// One parsed request line.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// A daily SMART snapshot to ingest.
    Sample {
        /// Reporting disk.
        disk_id: u32,
        /// Observation day.
        day: u16,
        /// Raw feature row; padded/truncated to the 48-column layout.
        features: Vec<f32>,
    },
    /// The disk stopped responding.
    Failure {
        /// Failed disk.
        disk_id: u32,
        /// Day of failure.
        day: u16,
    },
    /// Score a feature row against the latest model snapshot (read-only).
    Score {
        /// Raw feature row.
        features: Vec<f32>,
    },
    /// Fetch live counters.
    Stats,
    /// Write an atomic checkpoint. Without `path` the daemon uses its
    /// configured default.
    Checkpoint {
        /// Target file, if overriding the daemon default.
        path: Option<String>,
    },
    /// Change the tenant's shard count without a restart.
    Reshard {
        /// New shard count (≥ 1).
        n_shards: usize,
    },
    /// Drain and exit.
    Shutdown,
}

/// Copy an arbitrary-length row into the serving schema's `width`-column
/// layout (short rows are zero-padded, long ones truncated).
pub fn pad_features(row: &[f32], width: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; width];
    let n = row.len().min(width);
    out[..n].copy_from_slice(&row[..n]);
    out
}

fn num_u64(v: Option<&ValueRef<'_>>, what: &'static str) -> Result<u64, ProtocolError> {
    match v {
        Some(ValueRef::Int(i)) => u64::try_from(*i).map_err(|_| ProtocolError::BadField {
            field: what,
            reason: "out of range",
        }),
        _ => Err(ProtocolError::BadField {
            field: what,
            reason: "must be a non-negative integer",
        }),
    }
}

fn floats(v: Option<&ValueRef<'_>>, what: &'static str) -> Result<Vec<f32>, ProtocolError> {
    let Some(ValueRef::Arr(items)) = v else {
        return Err(ProtocolError::BadField {
            field: what,
            reason: "must be an array of numbers",
        });
    };
    items
        .iter()
        .map(|item| match item {
            ValueRef::Int(i) => Ok(*i as f32),
            ValueRef::Float(f) => Ok(*f as f32),
            ValueRef::Null => Ok(f32::NAN),
            _ => Err(ProtocolError::BadField {
                field: what,
                reason: "must contain only numbers",
            }),
        })
        .collect()
}

impl Request {
    /// Parse one protocol line.
    pub fn parse(line: &str) -> Result<Self, ProtocolError> {
        Self::parse_with_tenant(line).map(|(_, req)| req)
    }

    /// Parse one protocol line, also extracting the optional `tenant`
    /// routing field the `orfpredd` loop routes by. Field values borrow
    /// from `line` during parsing — the hot ingest path allocates only the
    /// `features` vector (and the tenant name when present).
    pub fn parse_with_tenant(line: &str) -> Result<(Option<String>, Self), ProtocolError> {
        if line.len() > MAX_FRAME_LEN {
            return Err(ProtocolError::Oversized {
                len: line.len(),
                max: MAX_FRAME_LEN,
            });
        }
        let v = serde_json::value_ref_from_str(line)
            .map_err(|e| ProtocolError::Garbled(format!("bad JSON: {e}")))?;
        if !matches!(v, ValueRef::Obj(_)) {
            return Err(ProtocolError::Garbled(
                "request must be a JSON object".into(),
            ));
        }
        let Some(ValueRef::Str(tag)) = v.get("type") else {
            return Err(ProtocolError::BadField {
                field: "type",
                reason: "must be a string",
            });
        };
        let tenant = match v.get("tenant") {
            Some(ValueRef::Str(name)) => Some(name.clone().into_owned()),
            None | Some(ValueRef::Null) => None,
            Some(_) => {
                return Err(ProtocolError::BadField {
                    field: "tenant",
                    reason: "must be a string",
                })
            }
        };
        let req = match tag.as_ref() {
            "sample" => Request::Sample {
                disk_id: num_u64(v.get("disk_id"), "disk_id")? as u32,
                day: num_u64(v.get("day"), "day")? as u16,
                features: floats(v.get("features"), "features")?,
            },
            "failure" => Request::Failure {
                disk_id: num_u64(v.get("disk_id"), "disk_id")? as u32,
                day: num_u64(v.get("day"), "day")? as u16,
            },
            "score" => Request::Score {
                features: floats(v.get("features"), "features")?,
            },
            "stats" => Request::Stats,
            "checkpoint" => Request::Checkpoint {
                path: match v.get("path") {
                    Some(ValueRef::Str(s)) => Some(s.clone().into_owned()),
                    None | Some(ValueRef::Null) => None,
                    _ => {
                        return Err(ProtocolError::BadField {
                            field: "path",
                            reason: "must be a string",
                        })
                    }
                },
            },
            "reshard" => {
                let n = num_u64(v.get("n_shards"), "n_shards")? as usize;
                if n == 0 {
                    return Err(ProtocolError::BadField {
                        field: "n_shards",
                        reason: "must be at least 1",
                    });
                }
                Request::Reshard { n_shards: n }
            }
            "shutdown" => Request::Shutdown,
            other => return Err(ProtocolError::UnknownType(other.to_string())),
        };
        Ok((tenant, req))
    }

    /// Render as a protocol line (no trailing newline); handy for clients
    /// and tests.
    pub fn to_line(&self) -> String {
        let obj = match self {
            Request::Sample {
                disk_id,
                day,
                features,
            } => vec![
                ("type".into(), Value::Str("sample".into())),
                ("disk_id".into(), Value::Int(i128::from(*disk_id))),
                ("day".into(), Value::Int(i128::from(*day))),
                ("features".into(), features.ser()),
            ],
            Request::Failure { disk_id, day } => vec![
                ("type".into(), Value::Str("failure".into())),
                ("disk_id".into(), Value::Int(i128::from(*disk_id))),
                ("day".into(), Value::Int(i128::from(*day))),
            ],
            Request::Score { features } => vec![
                ("type".into(), Value::Str("score".into())),
                ("features".into(), features.ser()),
            ],
            Request::Stats => vec![("type".into(), Value::Str("stats".into()))],
            Request::Checkpoint { path } => {
                let mut f = vec![("type".into(), Value::Str("checkpoint".into()))];
                if let Some(p) = path {
                    f.push(("path".into(), Value::Str(p.clone())));
                }
                f
            }
            Request::Reshard { n_shards } => vec![
                ("type".into(), Value::Str("reshard".into())),
                ("n_shards".into(), Value::Int(*n_shards as i128)),
            ],
            Request::Shutdown => vec![("type".into(), Value::Str("shutdown".into()))],
        };
        serde_json::value_to_string(&Value::Obj(obj))
    }
}

/// One response line.
#[derive(Clone, Debug)]
pub enum Response {
    /// An at-risk alarm (emitted asynchronously while samples apply).
    Alarm(Alarm),
    /// Answer to a `score` request.
    Score {
        /// Ensemble vote of the latest snapshot.
        score: f32,
    },
    /// Answer to a `stats` request (boxed: the report dwarfs every other
    /// variant now that it carries the prep counters).
    Stats(Box<StatsReport>),
    /// Generic acknowledgement (`checkpoint`, `shutdown`; `sample` and
    /// `failure` are not acked individually — alarms are the feedback).
    Ok {
        /// What was acknowledged.
        what: String,
    },
    /// The request could not be served.
    Error {
        /// Human-readable reason.
        message: String,
    },
}

impl Response {
    /// Render as a protocol line (no trailing newline).
    pub fn to_line(&self) -> String {
        let obj = match self {
            Response::Alarm(a) => vec![
                ("type".into(), Value::Str("alarm".into())),
                ("disk_id".into(), Value::Int(i128::from(a.disk_id))),
                ("day".into(), Value::Int(i128::from(a.day))),
                ("score".into(), a.score.ser()),
            ],
            Response::Score { score } => vec![
                ("type".into(), Value::Str("score".into())),
                ("score".into(), score.ser()),
            ],
            Response::Stats(report) => {
                let mut f = vec![("type".into(), Value::Str("stats".into()))];
                match report.ser() {
                    Value::Obj(rest) => f.extend(rest),
                    // lint: allow(panic_path, reason="StatsReport is a struct, and the derived ser() for structs always yields Value::Obj; any other variant is a serde-layer bug worth dying loudly on")
                    _ => unreachable!("StatsReport serializes to an object"),
                }
                f
            }
            Response::Ok { what } => vec![
                ("type".into(), Value::Str("ok".into())),
                ("what".into(), Value::Str(what.clone())),
            ],
            Response::Error { message } => vec![
                ("type".into(), Value::Str("error".into())),
                ("message".into(), Value::Str(message.clone())),
            ],
        };
        serde_json::value_to_string(&Value::Obj(obj))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_lines_round_trip() {
        let reqs = [
            Request::Sample {
                disk_id: 3,
                day: 17,
                features: vec![0.0, 1.5, -2.25],
            },
            Request::Failure {
                disk_id: 3,
                day: 18,
            },
            Request::Score {
                features: vec![1.0; 48],
            },
            Request::Stats,
            Request::Checkpoint { path: None },
            Request::Checkpoint {
                path: Some("/tmp/x.json".into()),
            },
            Request::Reshard { n_shards: 6 },
            Request::Shutdown,
        ];
        for r in reqs {
            assert_eq!(Request::parse(&r.to_line()).unwrap(), r);
        }
    }

    #[test]
    fn unknown_and_malformed_inputs_error() {
        assert!(Request::parse("not json").is_err());
        assert!(Request::parse("[1,2]").is_err());
        assert!(Request::parse("{\"type\":\"frobnicate\"}").is_err());
        assert!(
            Request::parse("{\"type\":\"sample\",\"disk_id\":-1,\"day\":0,\"features\":[]}")
                .is_err()
        );
        assert!(Request::parse("{\"type\":\"sample\",\"disk_id\":1,\"day\":0}").is_err());
    }

    #[test]
    fn integer_features_are_accepted() {
        let r = Request::parse("{\"type\":\"score\",\"features\":[1,2.5,3]}").unwrap();
        assert_eq!(
            r,
            Request::Score {
                features: vec![1.0, 2.5, 3.0]
            }
        );
    }

    #[test]
    fn features_pad_and_truncate() {
        let padded = pad_features(&[1.0, 2.0], 48);
        assert_eq!(padded.len(), 48);
        assert_eq!(padded[0], 1.0);
        assert_eq!(padded[1], 2.0);
        assert!(padded[2..].iter().all(|&v| v == 0.0));
        let truncated = pad_features(&vec![7.0; 100], 28);
        assert_eq!(truncated.len(), 28);
        assert!(truncated.iter().all(|&v| v == 7.0));
    }

    #[test]
    fn responses_are_valid_single_line_json() {
        let rs = [
            Response::Alarm(Alarm {
                disk_id: 9,
                day: 4,
                score: 0.75,
            }),
            Response::Score { score: 0.5 },
            Response::Ok {
                what: "sample".into(),
            },
            Response::Error {
                message: "nope".into(),
            },
        ];
        for r in rs {
            let line = r.to_line();
            assert!(!line.contains('\n'));
            let v = serde_json::value_ref_from_str(&line).unwrap();
            assert!(v.get("type").is_some());
        }
    }

    #[test]
    fn parse_errors_are_typed() {
        assert!(matches!(
            Request::parse("not json"),
            Err(ProtocolError::Garbled(_))
        ));
        assert!(matches!(
            Request::parse("[1,2]"),
            Err(ProtocolError::Garbled(_))
        ));
        assert!(matches!(
            Request::parse("{\"type\":\"frobnicate\"}"),
            Err(ProtocolError::UnknownType(t)) if t == "frobnicate"
        ));
        assert!(matches!(
            Request::parse("{\"type\":\"sample\",\"disk_id\":-1,\"day\":0,\"features\":[]}"),
            Err(ProtocolError::BadField {
                field: "disk_id",
                ..
            })
        ));
        let oversized = format!(
            "{{\"type\":\"score\",\"features\":[{}1]}}",
            "0,".repeat(MAX_FRAME_LEN / 2)
        );
        assert!(matches!(
            Request::parse(&oversized),
            Err(ProtocolError::Oversized {
                max: MAX_FRAME_LEN,
                ..
            })
        ));
    }

    #[test]
    fn tenant_field_is_extracted_and_optional() {
        let (tenant, req) = Request::parse_with_tenant(
            "{\"type\":\"failure\",\"tenant\":\"sta\",\"disk_id\":7,\"day\":3}",
        )
        .unwrap();
        assert_eq!(tenant.as_deref(), Some("sta"));
        assert_eq!(req, Request::Failure { disk_id: 7, day: 3 });
        let (tenant, _) = Request::parse_with_tenant("{\"type\":\"stats\"}").unwrap();
        assert_eq!(tenant, None);
        assert!(matches!(
            Request::parse_with_tenant("{\"type\":\"stats\",\"tenant\":3}"),
            Err(ProtocolError::BadField {
                field: "tenant",
                ..
            })
        ));
    }

    #[test]
    fn alarm_response_shape_is_stable() {
        let line = Response::Alarm(Alarm {
            disk_id: 1,
            day: 2,
            score: 0.5,
        })
        .to_line();
        assert_eq!(
            line,
            "{\"type\":\"alarm\",\"disk_id\":1,\"day\":2,\"score\":0.5}"
        );
    }
}
