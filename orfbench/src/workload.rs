//! The four workloads: what the daemon is started with and what it is fed.
//!
//! Every input is a pure function of the workload seed (the `FleetSim`
//! seed); the daemon's own forest seed stays at its CLI default of 42.

use orfpred_core::OnlinePredictorConfig;
use orfpred_fleet::{parse_tenant_spec, ClientFrame, WIRE_MAGIC, WIRE_VERSION};
use orfpred_serve::{Request, ServeConfig};
use orfpred_smart::attrs::table2_feature_columns;
use orfpred_smart::gen::{FleetConfig, FleetEvent, FleetSim, ScalePreset};
use orfpred_smart::DomainSchema;

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// STA fleet at the paper's hyper-parameters, one ORFB session.
    StaPaper,
    /// STB fleet with a 100-tree forest, plus closed-loop score probes.
    StbForest100,
    /// Eight tenants of synthetic short-lived disks: the wire path only.
    FleetWire,
    /// Classic line-JSON daemon restarted from a checkpoint.
    RestartJson,
}

/// Every workload, in report order.
pub const ALL: [Workload; 4] = [
    Workload::StaPaper,
    Workload::StbForest100,
    Workload::FleetWire,
    Workload::RestartJson,
];

/// Input sizes: `Small` is the benchmark, `Tiny` the smoke test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Small fleets (the measured workloads).
    Small,
    /// Tiny fleets (end-to-end smoke run in seconds).
    Tiny,
}

/// fleet_wire: tenants, and days per disk. Six days keep every labeller
/// queue below the 7-day window, so nothing is ever released to a forest.
const WIRE_TENANTS: usize = 8;
const WIRE_DAYS: u16 = 6;

/// How one fleet_wire tenant is configured on the daemon command line.
const WIRE_TENANT_SPEC: &str = "trees=1,threshold=2,shards=1,queue=4096,snapshot=10000000";

impl Workload {
    /// The name used on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::StaPaper => "sta_paper",
            Workload::StbForest100 => "stb_forest100",
            Workload::FleetWire => "fleet_wire",
            Workload::RestartJson => "restart_json",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Self> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// Tenant names the daemon hosts (one unnamed tenant for the classic
    /// daemon).
    pub fn tenants(self) -> Vec<String> {
        match self {
            Workload::StaPaper => vec!["sta".into()],
            Workload::StbForest100 => vec!["stb".into()],
            Workload::FleetWire => (0..WIRE_TENANTS).map(|t| format!("t{t}")).collect(),
            Workload::RestartJson => vec![String::new()],
        }
    }

    /// The `--tenant` specs of the fleet daemon (none for the classic
    /// daemon).
    fn tenant_specs(self) -> Vec<String> {
        match self {
            Workload::StaPaper => vec!["sta,shards=2".into()],
            Workload::StbForest100 => vec!["stb,shards=2,trees=100".into()],
            Workload::FleetWire => self
                .tenants()
                .iter()
                .map(|t| format!("{t},{WIRE_TENANT_SPEC}"))
                .collect(),
            Workload::RestartJson => Vec::new(),
        }
    }

    /// Daemon flags, given the TCP address (fleet daemons) or the
    /// checkpoint file to restore from (classic daemon).
    pub fn daemon_args(self, addr: &str, checkpoint: &str) -> Vec<String> {
        if self == Workload::RestartJson {
            return ["--shards", "2", "--checkpoint", checkpoint]
                .map(String::from)
                .to_vec();
        }
        let mut args: Vec<String> = self
            .tenant_specs()
            .into_iter()
            .flat_map(|spec| ["--tenant".to_string(), spec])
            .collect();
        args.extend(["--listen".to_string(), addr.to_string()]);
        args
    }

    /// The predictor the daemon builds for (the first of) this workload's
    /// tenants, and how often its writer publishes a snapshot — derived
    /// with the daemon's own flag parsing and defaults.
    pub fn predictor(self) -> (OnlinePredictorConfig, u64) {
        match self.tenant_specs().first() {
            Some(spec) => {
                let t = parse_tenant_spec(spec).expect("benchmark tenant specs parse");
                (t.serve.predictor, t.serve.snapshot_every)
            }
            None => {
                let serve =
                    ServeConfig::new(OnlinePredictorConfig::new(table2_feature_columns(), 42));
                (serve.predictor, serve.snapshot_every)
            }
        }
    }

    /// The simulated fleet behind the STA/STB workloads.
    pub fn fleet(self, scale: Scale, seed: u64) -> FleetConfig {
        let preset = match scale {
            Scale::Small => ScalePreset::Small,
            Scale::Tiny => ScalePreset::Tiny,
        };
        match self {
            Workload::StbForest100 => FleetConfig::stb(preset, seed),
            _ => FleetConfig::sta(preset, seed),
        }
    }

    /// Events of the restart workload replayed in-process before the
    /// daemon starts; the rest is the timed tail.
    pub fn restart_prefix(scale: Scale) -> usize {
        match scale {
            Scale::Small => 800_000,
            Scale::Tiny => 120_000,
        }
    }

    /// Disks per fleet_wire tenant.
    fn wire_disks(scale: Scale) -> u32 {
        match scale {
            Scale::Small => 32_768,
            Scale::Tiny => 1_024,
        }
    }
}

/// The ORFB session preamble: magic plus a `Hello` for `tenant`.
pub fn session_preamble(tenant: &str) -> Vec<u8> {
    let mut out = WIRE_MAGIC.to_vec();
    ClientFrame::Hello {
        version: WIRE_VERSION,
        fingerprint: DomainSchema::smart().fingerprint(),
        tenant: tenant.into(),
    }
    .encode(&mut out);
    out
}

/// The binary frame carrying one fleet event.
fn event_frame(ev: &FleetEvent) -> ClientFrame {
    match ev {
        FleetEvent::Sample(rec) => ClientFrame::Sample {
            disk_id: rec.disk_id,
            day: rec.day,
            features: rec.features.clone(),
        },
        FleetEvent::Failure { disk_id, day } => ClientFrame::Failure {
            disk_id: *disk_id,
            day: *day,
        },
    }
}

/// The line-JSON request carrying one fleet event, as the library's own
/// client encoder writes it.
fn event_line(ev: &FleetEvent) -> String {
    match ev {
        FleetEvent::Sample(rec) => Request::Sample {
            disk_id: rec.disk_id,
            day: rec.day,
            features: rec.features.clone(),
        },
        FleetEvent::Failure { disk_id, day } => Request::Failure {
            disk_id: *disk_id,
            day: *day,
        },
    }
    .to_line()
}

/// A byte stream for one ORFB session: the preamble, then the body.
pub enum Body {
    /// Pre-encoded event frames.
    Frames(Vec<u8>),
    /// The lane's day template, sent once per day with the day field
    /// rewritten in place before each pass.
    Days(u16),
}

/// One planned binary session.
pub struct SessionPlan {
    /// Tenant the session binds to.
    pub tenant: String,
    /// Magic + hello.
    pub preamble: Vec<u8>,
    /// Event frames.
    pub body: Body,
    /// Events the body carries.
    pub events: u64,
}

/// Sessions one connection at a time carries, back to back.
pub struct Lane {
    /// The sessions, in order.
    pub sessions: Vec<SessionPlan>,
    /// One day of sample frames shared by the lane's [`Body::Days`]
    /// sessions (empty when there are none).
    pub day_template: Vec<u8>,
}

/// What the timed part of one repeat sends.
pub enum Inputs {
    /// Binary sessions over TCP, one connection per lane at a time.
    Lanes {
        /// Concurrent lanes.
        lanes: Vec<Lane>,
        /// Full-width rows for score probes (empty: no probe connection).
        probe_rows: Vec<Vec<f32>>,
    },
    /// Line-JSON requests on the daemon's standard input.
    Lines {
        /// Newline-terminated request lines.
        bytes: Vec<u8>,
        /// Events the lines carry.
        events: u64,
    },
}

impl Inputs {
    /// Events sent per tenant, in [`Workload::tenants`] order.
    pub fn events_per_tenant(&self, tenants: &[String]) -> Vec<u64> {
        match self {
            Inputs::Lanes { lanes, .. } => tenants
                .iter()
                .map(|t| {
                    lanes
                        .iter()
                        .flat_map(|l| &l.sessions)
                        .filter(|s| &s.tenant == t)
                        .map(|s| s.events)
                        .sum()
                })
                .collect(),
            Inputs::Lines { events, .. } => vec![*events],
        }
    }

    /// Bytes the timed part sends.
    pub fn bytes(&self) -> u64 {
        match self {
            Inputs::Lanes { lanes, .. } => lanes
                .iter()
                .flat_map(|l| {
                    l.sessions.iter().map(|s| {
                        s.preamble.len() as u64
                            + match &s.body {
                                Body::Frames(b) => b.len() as u64,
                                Body::Days(days) => l.day_template.len() as u64 * u64::from(*days),
                            }
                    })
                })
                .sum(),
            Inputs::Lines { bytes, .. } => bytes.len() as u64,
        }
    }
}

/// Byte offset of the `day` field inside a sample frame
/// (`[op u8][len u32][disk_id u32][day u16]...`).
pub const SAMPLE_DAY_OFFSET: usize = 9;

/// Synthetic fleet_wire feature row: cheap, seed- and disk-dependent, and
/// irrelevant to a forest that never trains.
fn wire_row(seed: u64, disk: u32, width: usize) -> Vec<f32> {
    (0..width)
        .map(|j| {
            let h = (u64::from(disk) ^ seed.rotate_left(17)).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ (j as u64).wrapping_mul(2_654_435_761);
            (h >> 56) as f32 * 0.01
        })
        .collect()
}

/// One fleet_wire day: a sample frame per disk, day field 0.
pub fn wire_day_template(seed: u64, disks: u32) -> Vec<u8> {
    let width = DomainSchema::smart().n_base_features();
    let mut out = Vec::new();
    for disk in 0..disks {
        ClientFrame::Sample {
            disk_id: disk,
            day: 0,
            features: wire_row(seed, disk, width),
        }
        .encode(&mut out);
    }
    out
}

/// Rewrite the day field of every frame in a [`wire_day_template`] (all
/// its frames have the first frame's size).
pub fn set_template_day(template: &mut [u8], day: u16) {
    let len = u32::from_le_bytes([template[1], template[2], template[3], template[4]]) as usize;
    for f in template.chunks_exact_mut(5 + len) {
        f[SAMPLE_DAY_OFFSET..SAMPLE_DAY_OFFSET + 2].copy_from_slice(&day.to_le_bytes());
    }
}

/// Pick every `stride`-th sample row as a probe row (at most `max`).
fn probe_rows(events: &[FleetEvent], stride: usize, max: usize) -> Vec<Vec<f32>> {
    events
        .iter()
        .filter_map(|e| match e {
            FleetEvent::Sample(r) => Some(r.features.clone()),
            FleetEvent::Failure { .. } => None,
        })
        .step_by(stride)
        .take(max)
        .collect()
}

/// Build the timed inputs of one repeat.
pub fn inputs(w: Workload, scale: Scale, seed: u64) -> Inputs {
    match w {
        Workload::StaPaper | Workload::StbForest100 => {
            let events: Vec<FleetEvent> = FleetSim::new(&w.fleet(scale, seed)).collect();
            let mut body = Vec::new();
            for ev in &events {
                event_frame(ev).encode(&mut body);
            }
            let tenant = w.tenants().remove(0);
            let probe_rows = if w == Workload::StbForest100 {
                probe_rows(&events, 997, 256)
            } else {
                Vec::new()
            };
            Inputs::Lanes {
                lanes: vec![Lane {
                    sessions: vec![SessionPlan {
                        preamble: session_preamble(&tenant),
                        tenant,
                        body: Body::Frames(body),
                        events: events.len() as u64,
                    }],
                    day_template: Vec::new(),
                }],
                probe_rows,
            }
        }
        Workload::FleetWire => {
            let disks = Workload::wire_disks(scale);
            let template = wire_day_template(seed, disks);
            let tenants = w.tenants();
            // Two connections, each carrying half the tenants back to back.
            let lanes = tenants
                .chunks(WIRE_TENANTS / 2)
                .map(|chunk| Lane {
                    sessions: chunk
                        .iter()
                        .map(|t| SessionPlan {
                            tenant: t.clone(),
                            preamble: session_preamble(t),
                            body: Body::Days(WIRE_DAYS),
                            events: u64::from(disks) * u64::from(WIRE_DAYS),
                        })
                        .collect(),
                    day_template: template.clone(),
                })
                .collect();
            Inputs::Lanes {
                lanes,
                probe_rows: Vec::new(),
            }
        }
        Workload::RestartJson => {
            let prefix = Workload::restart_prefix(scale);
            let mut bytes = Vec::new();
            let mut events = 0u64;
            for ev in FleetSim::new(&w.fleet(scale, seed)).skip(prefix) {
                bytes.extend_from_slice(event_line(&ev).as_bytes());
                bytes.push(b'\n');
                events += 1;
            }
            Inputs::Lines { bytes, events }
        }
    }
}
