//! Fleet-scale daemon ingest: 8 tenants × 131072 disks × 1 day =
//! 1,048,576 events through the multi-tenant `orfpredd` path, once as
//! line-JSON and once as the ORFB binary protocol — the wire-format
//! speedup the fleet crate claims (≥2×, recorded in `BENCH_serve.json`).
//!
//! The model is deliberately tiny (1 tree, effectively infinite warmup,
//! alarm threshold above 1.0 so nothing fires) and every client buffer is
//! pre-encoded outside the timed section: what's measured is the daemon's
//! wire path — sniff, parse/decode, tenant routing, lock acquisition,
//! engine hand-off — not forest math or client-side encoding. Both
//! formats ride the same transport (one TCP connection per tenant,
//! drained to EOF before the next opens) against the same 8-tenant
//! daemon, so the only variable is the wire format.
//! The end-to-end benchmark of the live `orfpredd` is `orfbench/` (see its README).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use orfpred_core::OnlinePredictorConfig;
use orfpred_fleet::{run, ClientFrame, FleetDaemonConfig, TenantConfig, WIRE_MAGIC, WIRE_VERSION};
use orfpred_smart::attrs::table2_feature_columns;
use orfpred_smart::DomainSchema;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicU16, Ordering};
use std::sync::mpsc;

const N_TENANTS: usize = 8;
const DISKS_PER_TENANT: u32 = 131_072;
const TOTAL_EVENTS: u64 = N_TENANTS as u64 * DISKS_PER_TENANT as u64;

fn predictor(seed: u64) -> OnlinePredictorConfig {
    let mut p = OnlinePredictorConfig::new(table2_feature_columns(), seed);
    p.orf.n_trees = 1;
    p.orf.warmup_age = u64::MAX; // never split: the forest is a stub
    p.alarm_threshold = 2.0; // nothing scores above 1, so nothing fires
    p
}

fn tenants() -> Vec<TenantConfig> {
    (0..N_TENANTS)
        .map(|t| {
            let mut cfg = TenantConfig::new(format!("t{t}"), predictor(t as u64 + 1));
            cfg.serve.n_shards = 1;
            cfg.serve.queue_capacity = 4096;
            cfg.serve.snapshot_every = 10_000_000;
            cfg
        })
        .collect()
}

/// Deterministic synthetic feature row (cheap on purpose — row content is
/// irrelevant to the wire path being measured).
fn features(disk: u32, width: usize) -> Vec<f32> {
    (0..width)
        .map(|j| ((disk as usize ^ (j * 2654435761)) & 0xFF) as f32 * 0.01)
        .collect()
}

/// One tenant's full day as line-JSON (tenant-tagged sample lines).
fn json_buffer(tenant: usize, width: usize) -> Vec<u8> {
    let mut out = String::with_capacity(DISKS_PER_TENANT as usize * (64 + width * 6));
    for disk in 0..DISKS_PER_TENANT {
        out.push_str(&format!(
            "{{\"type\":\"sample\",\"tenant\":\"t{tenant}\",\"disk_id\":{disk},\"day\":1,\"features\":["
        ));
        for (j, f) in features(disk, width).iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!("{f}"));
        }
        out.push_str("]}\n");
    }
    out.into_bytes()
}

/// One tenant's full day as an ORFB session (magic + hello + sample frames).
fn binary_buffer(tenant: usize, width: usize, fingerprint: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(DISKS_PER_TENANT as usize * (16 + width * 4));
    out.extend_from_slice(&WIRE_MAGIC);
    ClientFrame::Hello {
        version: WIRE_VERSION,
        fingerprint,
        tenant: format!("t{tenant}"),
    }
    .encode(&mut out);
    for disk in 0..DISKS_PER_TENANT {
        ClientFrame::Sample {
            disk_id: disk,
            day: 1,
            features: features(disk, width),
        }
        .encode(&mut out);
    }
    out
}

/// Blocking reader over an mpsc channel: keeps the daemon's primary input
/// open until the bench decides to shut it down.
struct ChannelReader {
    rx: mpsc::Receiver<Vec<u8>>,
    buf: Vec<u8>,
    pos: usize,
}

impl Read for ChannelReader {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        while self.pos >= self.buf.len() {
            match self.rx.recv() {
                Ok(chunk) => {
                    self.buf = chunk;
                    self.pos = 0;
                }
                Err(_) => return Ok(0), // sender dropped: EOF
            }
        }
        let n = (self.buf.len() - self.pos).min(out.len());
        out[..n].copy_from_slice(&self.buf[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// Each daemon leaves its accept thread parked on the listener forever, so
/// every run needs a fresh port.
static NEXT_PORT: AtomicU16 = AtomicU16::new(47731);

/// Boot an 8-tenant daemon, stream every tenant's pre-encoded buffer over
/// its own TCP connection (drained to EOF before the next), shut down, and
/// verify the daemon ingested every event.
fn drive(buffers: &[Vec<u8>]) {
    let addr = format!("127.0.0.1:{}", NEXT_PORT.fetch_add(1, Ordering::Relaxed));
    let mut cfg = FleetDaemonConfig::new(tenants());
    cfg.listen = Some(addr.clone());
    let (tx, rx) = mpsc::channel::<Vec<u8>>();
    let daemon = std::thread::spawn(move || {
        let input = std::io::BufReader::new(ChannelReader {
            rx,
            buf: Vec::new(),
            pos: 0,
        });
        run(&cfg, input, std::io::sink())
    });
    // The listener comes up before the daemon blocks on its primary input;
    // retry the first connect briefly while it binds.
    for buffer in buffers {
        let mut conn = loop {
            match TcpStream::connect(&addr) {
                Ok(c) => break c,
                Err(_) => std::thread::sleep(std::time::Duration::from_millis(2)),
            }
        };
        conn.write_all(buffer).expect("stream tenant buffer");
        conn.shutdown(Shutdown::Write).expect("half-close");
        // Drain replies (HelloAck at most) until the daemon closes the
        // session — the connection is fully consumed before the next opens.
        let mut sink = Vec::new();
        conn.read_to_end(&mut sink).expect("session drained");
    }
    tx.send(b"{\"type\":\"shutdown\"}\n".to_vec())
        .expect("shutdown line");
    drop(tx);
    let fins = daemon.join().expect("daemon thread").expect("daemon runs");
    let total: u64 = fins.iter().map(|f| f.counters.events).sum();
    assert_eq!(total, TOTAL_EVENTS, "every event ingested");
}

fn bench_fleet_ingest(c: &mut Criterion) {
    let width = DomainSchema::smart().n_base_features();
    let fingerprint = DomainSchema::smart().fingerprint();
    let json: Vec<Vec<u8>> = (0..N_TENANTS).map(|t| json_buffer(t, width)).collect();
    let binary: Vec<Vec<u8>> = (0..N_TENANTS)
        .map(|t| binary_buffer(t, width, fingerprint))
        .collect();

    let mut group = c.benchmark_group("fleet_ingest");
    group.sample_size(10);
    group.throughput(Throughput::Elements(TOTAL_EVENTS));
    group.bench_function("json_1m_8tenants", |b| b.iter(|| drive(&json)));
    group.bench_function("binary_1m_8tenants", |b| b.iter(|| drive(&binary)));
    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_fleet_ingest
);
criterion_main!(benches);
