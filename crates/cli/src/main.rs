//! `orfpred` — the operational command-line interface.
//!
//! ```text
//! orfpred simulate --out fleet.csv [--dataset sta|stb] [--scale tiny|small] [--seed N]
//! orfpred schema   [--domain smart|smart-windowed|mce]
//! orfpred data     record --out store/ (--csv fleet.csv | [--dataset sta|stb] [--scale Z] [--seed N])
//!                  [--domain smart|smart-windowed|mce] [--segment-rows R] [--lenient]
//! orfpred data     info   --store store/ [--top K]
//! orfpred data     verify --store store/ [--domain NAME]
//! orfpred train    (--csv fleet.csv | --store store/) --model model.json [--online] [--lambda R] [--seed N]
//! orfpred score    (--csv fleet.csv | --store store/) --model model.json [--tau T] [--top K]
//! orfpred eval     (--csv fleet.csv | --store store/) --model model.json [--target-far F]
//! orfpred inspect  (--csv fleet.csv | --store store/)
//! orfpred model    inspect --model model.json [--top K]
//! orfpred drift    (--csv fleet.csv | --store store/) [--top N]
//! orfpred assess   (--csv fleet.csv | --store store/) [--seed N]
//! orfpred serve    [--shards N] [--listen ADDR] [--checkpoint PATH] [--store DIR]
//!                  [--threshold T] [--window W] [--seed N] [--trees K]
//!                  [--queue-capacity Q] [--snapshot-every M]
//!                  [--prep] [--stuck-run K] [--recheck-days D] [--max-value X]
//!                  [--drift-policy no-update|replace|accumulate]
//!                  [--drift-z Z] [--drift-window W] [--drift-check-every E]
//! orfpred serve    [--listen ADDR] --tenant SPEC [--tenant SPEC]...
//! ```
//!
//! * `simulate` writes a Backblaze-format CSV from the fleet simulator —
//!   handy for demos and for testing downstream tooling;
//! * `schema` prints a telemetry domain's full column layout (base and
//!   windowed derived features) and the fingerprint that stores and
//!   checkpoints pin; `--domain mce` selects the correctable-memory-error
//!   domain, `--domain smart-windowed` the SMART catalog with the 5-day
//!   delta/mean/std plan;
//! * `data record` captures a fleet (simulated, or parsed from a CSV) into
//!   a checksummed columnar telemetry store; `data info` prints its
//!   anatomy (segments, rows, date range, per-column compression);
//!   `data verify` decodes every segment and checks every CRC and
//!   ordering invariant;
//! * commands that read telemetry accept `--csv FILE` or `--store DIR`
//!   interchangeably; `--lenient` makes CSV parsing skip malformed rows
//!   (reporting how many) instead of failing;
//! * `train` fits either the offline Random Forest (default) or the Online
//!   Random Forest (`--online`, trained by chronological replay) on the
//!   7-day labelling of the CSV, and saves a self-contained JSON model
//!   (scaler + forest);
//! * `score` prints the per-disk maximum risk score (descending), i.e. the
//!   disks an operator should migrate first;
//! * `eval` computes per-disk FDR/FAR at a FAR-pinned operating point plus
//!   AUC on a held-out 30 % disk split;
//! * `inspect` prints dataset statistics;
//! * `model inspect` compiles a saved model to the frozen scoring layout
//!   and prints its anatomy: node counts, depth histogram, memory
//!   footprint, and the top-k feature importances;
//! * `drift` measures healthy-population distribution shift between the
//!   first and last month — the early warning that an offline model is
//!   aging;
//! * `assess` trains a multi-level health assessor and triages every disk's
//!   latest snapshot into act-now / schedule / healthy bands;
//! * `serve` is the `orfpredd` daemon in this process: the same flag set,
//!   parsed by `orfpred_fleet::parse_daemon_args`, run by
//!   `orfpred_fleet::run` on stdin/stdout (and optionally a TCP listener);
//!   see `README.md` ("Serving") for the line protocol. Without `--tenant`
//!   the flags build one tenant named `default`. `--prep` arms its
//!   telemetry repair stage (imputation, range/stuck-at checks, duplicate
//!   handling, failure re-checks; the extra knobs tune it), and
//!   `--drift-policy` closes the loop: a detected distribution shift in
//!   the released healthy population triggers the chosen long-term update
//!   policy live, republishing the model through the snapshot path. One or
//!   more `--tenant name[,key=value]...` flags host those tenants instead
//!   (per-tenant engines, request routing by the `"tenant"` field, the
//!   ORFB binary wire protocol, live resharding); see `README.md`
//!   ("Serving a fleet of models").

use std::io::BufReader;
use std::process::ExitCode;

mod model;

use model::SavedModel;
use orfpred_smart::csv::read_dataset_with;
use orfpred_smart::gen::{FleetConfig, FleetSim, MceFleetConfig, MceSim, ScalePreset};
use orfpred_smart::record::Dataset;
use orfpred_smart::{ColumnRole, DomainSchema};

fn fail(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    ExitCode::from(2)
}

/// Minimal flag parser: `--key value` pairs plus boolean switches.
struct Args {
    pairs: Vec<(String, String)>,
    switches: Vec<String>,
}

impl Args {
    fn parse(argv: &[String], switch_names: &[&str]) -> Result<Self, String> {
        let mut pairs = Vec::new();
        let mut switches = Vec::new();
        let mut i = 0;
        while i < argv.len() {
            let a = &argv[i];
            let Some(name) = a.strip_prefix("--") else {
                return Err(format!("unexpected argument '{a}'"));
            };
            if switch_names.contains(&name) {
                switches.push(name.to_string());
            } else {
                i += 1;
                let value = argv
                    .get(i)
                    .ok_or_else(|| format!("--{name} needs a value"))?;
                pairs.push((name.to_string(), value.clone()));
            }
            i += 1;
        }
        Ok(Self { pairs, switches })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.pairs
            .iter()
            .rev()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    fn require(&self, name: &str) -> Result<&str, String> {
        self.get(name)
            .ok_or_else(|| format!("--{name} is required"))
    }

    fn has(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    fn parse_num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{name}: bad value '{v}'")),
        }
    }
}

fn load_csv(path: &str, lenient: bool) -> Result<Dataset, String> {
    let file = std::fs::File::open(path).map_err(|e| format!("open {path}: {e}"))?;
    let (ds, stats) = read_dataset_with(BufReader::new(file), lenient)
        .map_err(|e| format!("parse {path}: {e}"))?;
    if stats.rows_skipped > 0 {
        eprintln!(
            "warning: skipped {} of {} malformed rows in {path}",
            stats.rows_skipped,
            stats.rows_read + stats.rows_skipped
        );
        for (line, why) in &stats.skip_examples {
            eprintln!("  line {line}: {why}");
        }
    }
    Ok(ds)
}

/// Load telemetry from `--store DIR` (columnar store, verified by CRC on
/// decode) or `--csv FILE` (Backblaze-format; `--lenient` skips malformed
/// rows with a warning instead of failing).
fn load_input(args: &Args) -> Result<Dataset, String> {
    match (args.get("store"), args.get("csv")) {
        (Some(_), Some(_)) => Err("give --csv or --store, not both".into()),
        (Some(dir), None) => {
            let store =
                orfpred_store::Store::open(std::path::Path::new(dir)).map_err(|e| e.to_string())?;
            store.dataset().map_err(|e| e.to_string())
        }
        (None, Some(path)) => load_csv(path, args.has("lenient")),
        (None, None) => Err("--csv FILE or --store DIR is required".into()),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = argv.first() else {
        eprintln!(
            "usage: orfpred <simulate|schema|data|train|score|eval|inspect|model|drift|assess> [options]\n\
             run `orfpred <command> --help` conventions: see crate docs"
        );
        return ExitCode::from(2);
    };
    let result = match cmd.as_str() {
        "simulate" => simulate(&argv[1..]),
        "schema" => schema_cmd(&argv[1..]),
        "data" => data_cmd(&argv[1..]),
        "train" => train(&argv[1..]),
        "score" => score(&argv[1..]),
        "eval" => evaluate(&argv[1..]),
        "inspect" => inspect(&argv[1..]),
        "model" => model_cmd(&argv[1..]),
        "drift" => drift(&argv[1..]),
        "assess" => assess(&argv[1..]),
        "serve" => serve(&argv[1..]),
        // Hidden: replay a testkit fault scenario by seed (the reproduction
        // command the fault suites print on failure). Not in the usage
        // line on purpose — it is a debugging door, not an operator tool.
        "faultsim" => faultsim(&argv[1..]),
        other => Err(format!("unknown command '{other}'")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => fail(&e),
    }
}

/// Fleet-simulator parameters shared by `simulate` and `data record`:
/// `--dataset sta|stb`, `--scale tiny|small|medium`, `--seed N`.
fn fleet_from_args(args: &Args) -> Result<FleetConfig, String> {
    let seed: u64 = args.parse_num("seed", 42)?;
    let scale = scale_from_args(args)?;
    match args.get("dataset").unwrap_or("sta") {
        "sta" => Ok(FleetConfig::sta(scale, seed)),
        "stb" => Ok(FleetConfig::stb(scale, seed)),
        other => Err(format!("unknown dataset '{other}' (sta|stb)")),
    }
}

fn scale_from_args(args: &Args) -> Result<ScalePreset, String> {
    match args.get("scale").unwrap_or("tiny") {
        "tiny" => Ok(ScalePreset::Tiny),
        "small" => Ok(ScalePreset::Small),
        "medium" => Ok(ScalePreset::Medium),
        other => Err(format!("unknown scale '{other}'")),
    }
}

/// `--domain smart|smart-windowed|mce` (default `smart`).
fn domain_from_args(args: &Args) -> Result<DomainSchema, String> {
    let name = args.get("domain").unwrap_or("smart");
    DomainSchema::for_domain(name)
        .ok_or_else(|| format!("unknown domain '{name}' (smart|smart-windowed|mce)"))
}

fn simulate(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, &[])?;
    let out = args.require("out")?;
    if let Some(d) = args.get("domain") {
        if d != "smart" {
            return Err(format!(
                "the Backblaze CSV format is SMART-only; record the '{d}' domain into a \
                 columnar store with `orfpred data record --domain {d}` instead"
            ));
        }
    }
    let cfg = fleet_from_args(&args)?;
    let ds = FleetSim::collect(&cfg);
    let file = std::fs::File::create(out).map_err(|e| format!("create {out}: {e}"))?;
    let mut writer = std::io::BufWriter::new(file);
    orfpred_smart::csv::write_dataset(&ds, &mut writer).map_err(|e| e.to_string())?;
    eprintln!(
        "wrote {} snapshots from {} disks ({} failed) to {out}",
        ds.n_records(),
        ds.disks.len(),
        ds.n_failed()
    );
    Ok(())
}

fn data_cmd(argv: &[String]) -> Result<(), String> {
    match argv.first().map(String::as_str) {
        Some("record") => data_record(&argv[1..]),
        Some("info") => data_info(&argv[1..]),
        Some("verify") => data_verify(&argv[1..]),
        Some(other) => Err(format!(
            "unknown data action '{other}' (record|info|verify)"
        )),
        None => Err("usage: orfpred data <record|info|verify> [options]".into()),
    }
}

/// `orfpred data record --out DIR ...`: capture telemetry into a columnar
/// store — either from a CSV (`--csv`, optionally `--lenient`) or straight
/// from the fleet simulator (`--dataset`/`--scale`/`--seed`).
fn data_record(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, &["lenient"])?;
    let out = args.require("out")?;
    let schema = domain_from_args(&args)?;
    let cfg = orfpred_store::StoreConfig {
        segment_rows: args.parse_num("segment-rows", orfpred_store::DEFAULT_SEGMENT_ROWS)?,
        schema: schema.clone(),
        ..Default::default()
    };
    let meta = if let Some(path) = args.get("csv") {
        if schema.name != "smart" {
            return Err(format!(
                "--csv carries Backblaze SMART rows; it cannot be recorded under the \
                 '{}' domain",
                schema.name
            ));
        }
        let ds = load_csv(path, args.has("lenient"))?;
        orfpred_store::record_dataset(std::path::Path::new(out), &ds, cfg)
    } else if schema.name == "mce" {
        let seed: u64 = args.parse_num("seed", 42)?;
        let mce = MceFleetConfig::preset(scale_from_args(&args)?, seed);
        let ds = MceSim::collect(&mce);
        orfpred_store::record_dataset(std::path::Path::new(out), &ds, cfg)
    } else {
        let fleet = fleet_from_args(&args)?;
        orfpred_store::record_fleet(std::path::Path::new(out), &fleet, cfg)
    }
    .map_err(|e| e.to_string())?;
    eprintln!(
        "recorded {} rows into {} segments at {out} (domain {}, fingerprint {:016x})",
        meta.total_rows,
        meta.segments.len(),
        schema.name,
        schema.fingerprint()
    );
    Ok(())
}

/// `orfpred data info --store DIR [--top K]`: print the store's anatomy
/// from footers alone — no row decoding, so it is instant on large stores.
fn data_info(argv: &[String]) -> Result<(), String> {
    use orfpred_smart::csv::date_string;
    let args = Args::parse(argv, &[])?;
    let dir = args.require("store")?;
    let top: usize = args.parse_num("top", 12)?;
    let store = orfpred_store::Store::open(std::path::Path::new(dir)).map_err(|e| e.to_string())?;
    let info = store.info().map_err(|e| e.to_string())?;

    println!(
        "model {} | {} disks ({} failed) | {} rows in {} segments (≤ {} rows each)",
        info.model, info.n_disks, info.n_failed, info.rows, info.segments, info.segment_rows
    );
    let schema = store.schema();
    println!(
        "domain {} | {} attributes → {} base features | fingerprint {:016x}",
        schema.name,
        schema.n_attributes(),
        schema.n_base_features(),
        info.schema_fp
    );
    match (info.first_day, info.last_day) {
        (Some(a), Some(b)) => println!(
            "days {a}..{b} ({} to {}) of a {}-day window",
            date_string(a),
            date_string(b),
            info.duration_days
        ),
        _ => println!("no rows recorded ({}-day window)", info.duration_days),
    }
    let ratio = info.logical_bytes as f64 / (info.disk_bytes.max(1)) as f64;
    println!(
        "{} bytes on disk vs {} logical — {ratio:.1}x compression \
         (disk-id dictionaries {}, day columns {})",
        info.disk_bytes, info.logical_bytes, info.disk_id_bytes, info.day_bytes
    );

    let mut cols = info.columns.clone();
    cols.sort_by(|a, b| {
        b.encoded_bytes
            .cmp(&a.encoded_bytes)
            .then(a.name.cmp(&b.name))
    });
    println!(
        "top {} columns by encoded size ({} total):",
        top.min(cols.len()),
        cols.len()
    );
    println!(
        "{:>22} {:>12} {:>8} {:>9} {:>9}",
        "column", "bytes", "B/row", "int segs", "raw segs"
    );
    for c in cols.iter().take(top) {
        println!(
            "{:>22} {:>12} {:>8.3} {:>9} {:>9}",
            c.name,
            c.encoded_bytes,
            c.encoded_bytes as f64 / info.rows.max(1) as f64,
            c.int_segments,
            c.raw_segments
        );
    }
    Ok(())
}

/// `orfpred data verify --store DIR [--domain NAME]`: decode every
/// segment, check every CRC and ordering invariant; with `--domain`, also
/// check the store was recorded under that telemetry domain (a mismatch is
/// the store's typed `Corrupt` error, not a silent width pun). Exit status
/// is the answer.
fn data_verify(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, &[])?;
    let dir = args.require("store")?;
    let store = orfpred_store::Store::open(std::path::Path::new(dir)).map_err(|e| e.to_string())?;
    if args.get("domain").is_some() {
        let want = domain_from_args(&args)?;
        store.verify_domain(&want).map_err(|e| e.to_string())?;
    }
    let report = store.verify().map_err(|e| e.to_string())?;
    let schema = store.schema();
    println!(
        "ok: {} segments, {} rows, {} encoded bytes verified \
         (domain {}, {} attributes, fingerprint {:016x})",
        report.segments,
        report.rows,
        report.bytes,
        schema.name,
        schema.n_attributes(),
        schema.fingerprint()
    );
    Ok(())
}

/// `orfpred schema [--domain smart|smart-windowed|mce]`: print a domain's
/// column layout — every base and derived feature column with its role —
/// plus the fingerprint that stores and checkpoints pin.
fn schema_cmd(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, &[])?;
    let schema = domain_from_args(&args)?;
    schema.validate()?;
    println!(
        "domain {} | {} attributes | {} base + {} derived = {} feature columns",
        schema.name,
        schema.n_attributes(),
        schema.n_base_features(),
        schema.derived.n_derived(),
        schema.n_features()
    );
    println!("fingerprint {:016x}", schema.fingerprint());
    if schema.derived.is_empty() {
        println!("derived plan: empty (window stage is a no-op)");
    } else {
        println!(
            "derived plan: {}-day window over {} base column(s)",
            schema.derived.window_days,
            schema.derived.cols.len()
        );
    }
    println!("{:>5} {:>28} {:>12} notes", "col", "feature", "kind");
    for col in 0..schema.n_features() {
        let (kind, notes) = match schema.column_role(col) {
            ColumnRole::Base(ai, k) => {
                let a = &schema.attributes[ai];
                let mut notes = format!("id {}", a.id);
                if a.cumulative {
                    notes.push_str(", cumulative");
                }
                (format!("{k:?}").to_lowercase(), notes)
            }
            ColumnRole::Derived(base, stat) => (
                stat.suffix().to_string(),
                format!("from col {base} ({})", schema.feature_name(base)),
            ),
        };
        println!(
            "{col:>5} {:>28} {kind:>12} {notes}",
            schema.feature_name(col)
        );
    }
    Ok(())
}

fn train(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, &["online", "lenient"])?;
    let model_path = args.require("model")?;
    let seed: u64 = args.parse_num("seed", 42)?;
    let lambda: f64 = args.parse_num("lambda", 3.0)?;
    let ds = load_input(&args)?;
    let saved = if args.has("online") {
        SavedModel::train_online(&ds, seed)?
    } else {
        SavedModel::train_offline(&ds, Some(lambda), seed)?
    };
    saved.save(model_path)?;
    eprintln!("saved {} model to {model_path}", saved.kind());
    Ok(())
}

fn score(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, &["lenient"])?;
    let ds = load_input(&args)?;
    let saved = SavedModel::load(args.require("model")?)?;
    let tau: f32 = args.parse_num("tau", 0.5)?;
    let top: usize = args.parse_num("top", 20)?;

    // Per-disk max score over the most recent week of samples — "who is at
    // risk right now". The saved model is compiled once into the frozen
    // layout and each disk's recent rows go through the batch kernel.
    let frozen = saved.freeze();
    let by_disk = ds.records_by_disk();
    let mut risks: Vec<(f32, u32)> = ds
        .disks
        .iter()
        .map(|d| {
            let recent = d.last_day.saturating_sub(7);
            let rows: Vec<&[f32]> = by_disk[d.disk_id as usize]
                .iter()
                .map(|&pos| &ds.records[pos])
                .filter(|r| r.day >= recent)
                .map(|r| r.features.as_slice())
                .collect();
            let best = frozen
                .score_rows(&rows)
                .into_iter()
                .fold(f32::NEG_INFINITY, f32::max);
            (best, d.disk_id)
        })
        .collect();
    risks.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());
    println!("{:>10} {:>10} {:>8}", "disk", "risk", "alarm");
    for &(risk, disk) in risks.iter().take(top) {
        println!(
            "{:>10} {:>10.3} {:>8}",
            format!("S{disk:08}"),
            risk,
            if risk >= tau { "YES" } else { "" }
        );
    }
    let alarms = risks.iter().filter(|&&(r, _)| r >= tau).count();
    eprintln!("{alarms} of {} disks above τ = {tau}", risks.len());
    Ok(())
}

fn evaluate(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, &["lenient"])?;
    let ds = load_input(&args)?;
    let saved = SavedModel::load(args.require("model")?)?;
    let target_far: f64 = args.parse_num("target-far", 0.01)?;
    let seed: u64 = args.parse_num("seed", 42)?;

    let mut rng = orfpred_util::Xoshiro256pp::seed_from_u64(seed);
    let split = orfpred_eval::split::DiskSplit::stratified(&ds, 0.7, &mut rng);
    let frozen = saved.freeze();
    // Pre-score every record through the frozen batch kernel (bit-identical
    // to per-row `score`); the metrics pass then indexes by position.
    let rows: Vec<&[f32]> = ds.records.iter().map(|r| r.features.as_slice()).collect();
    let scores = frozen.score_rows(&rows);
    let scored = orfpred_eval::metrics::scored_disks_with(
        &ds,
        &split.test,
        &|pos, _| scores[pos],
        7,
        0,
        ds.duration_days.saturating_add(1),
    );
    let op = scored.tune_for_far(target_far);
    let (n_failed, n_good) = scored.counts();
    println!(
        "held-out disks: {n_failed} failed / {n_good} good\n\
         AUC: {:.4}\n\
         at FAR ≤ {:.2}%: FDR {:.2}%  FAR {:.2}%  (τ = {:.3})",
        scored.auc(),
        target_far * 100.0,
        op.fdr * 100.0,
        op.far * 100.0,
        op.tau
    );
    Ok(())
}

fn drift(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, &["lenient"])?;
    let ds = load_input(&args)?;
    let top: usize = args.parse_num("top", 12)?;
    let cols: Vec<usize> = (0..orfpred_smart::attrs::N_FEATURES).collect();
    let report = orfpred_smart::drift::measure_drift(
        &ds,
        &orfpred_smart::DomainSchema::smart(),
        &cols,
        30,
        5_000,
    );
    print!("{}", report.render(top));
    Ok(())
}

fn assess(argv: &[String]) -> Result<(), String> {
    use orfpred_eval::health::{HealthAssessor, HealthLevel};
    let args = Args::parse(argv, &["lenient"])?;
    let ds = load_input(&args)?;
    let seed: u64 = args.parse_num("seed", 42)?;
    let mut rng = orfpred_util::Xoshiro256pp::seed_from_u64(seed);
    let split = orfpred_eval::split::DiskSplit::stratified(&ds, 0.7, &mut rng);
    let forest = orfpred_trees::ForestConfig::default();
    let assessor = HealthAssessor::fit(
        &ds,
        &split.is_train,
        &orfpred_smart::attrs::table2_feature_columns(),
        &forest,
        &mut rng,
    )
    .ok_or("not enough failure data to train the assessor")?;
    let report = assessor.evaluate(&ds, &split.is_train);
    eprintln!(
        "band accuracy on held-out failed-disk samples: {:.1}% over {} samples",
        report.acc_failed * 100.0,
        report.n_samples
    );
    // Triage every disk's latest snapshot.
    let by_disk = ds.records_by_disk();
    let mut critical = Vec::new();
    let mut warning = 0usize;
    let mut healthy = 0usize;
    for d in &ds.disks {
        let Some(&last) = by_disk[d.disk_id as usize].last() else {
            continue;
        };
        match assessor.assess(&ds.records[last].features) {
            HealthLevel::Critical => critical.push(d.disk_id),
            HealthLevel::Warning => warning += 1,
            HealthLevel::Healthy => healthy += 1,
        }
    }
    println!(
        "{} disks: {} act-now / {warning} schedule / {healthy} healthy",
        ds.disks.len(),
        critical.len()
    );
    for d in critical.iter().take(50) {
        println!("  S{d:08}  migrate immediately");
    }
    Ok(())
}

/// `orfpred serve [daemon flags]`: the `orfpredd` daemon in this process,
/// with the same flag parser, loop and shutdown summary.
fn serve(argv: &[String]) -> Result<(), String> {
    if argv.iter().any(|a| a == "-h" || a == "--help") {
        print!("{}", orfpred_fleet::DAEMON_USAGE);
        return Ok(());
    }
    let cfg = orfpred_fleet::parse_daemon_args(argv.iter().cloned())?;
    let fins = orfpred_fleet::run(&cfg, std::io::stdin().lock(), std::io::stdout().lock())?;
    eprint!("{}", orfpred_fleet::shutdown_summary("serve", &fins));
    Ok(())
}

/// `orfpred faultsim --seed N [--size Z] [--cases K]`: run the seeded
/// fault-injection scenario(s) and verify the differential oracle — the
/// exact derivation `tests/fault_sim.rs` uses, so a seed printed by a
/// failing property test reproduces here byte for byte.
fn faultsim(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, &[])?;
    let seed: u64 = args.parse_num("seed", 1)?;
    let size: u32 = args.parse_num("size", 80)?;
    let cases: u64 = args.parse_num("cases", 1)?;
    for k in 0..cases.max(1) {
        let s = seed + k;
        let report = orfpred_testkit::run_scenario(s, size)
            .map_err(|e| format!("faultsim seed {s} size {size}: ORACLE VIOLATION: {e}"))?;
        println!(
            "faultsim seed {s} size {size}: OK — {} actions ({} events), {} alarms, \
             {} recoveries, {} checkpoint failures, {} checkpoints",
            report.n_actions,
            report.n_events,
            report.alarms,
            report.recoveries,
            report.checkpoint_failures,
            report.checkpoints_taken
        );
        for fault in &report.faults_fired {
            println!("  fault fired: {fault}");
        }
        for fault in &report.faults_planned {
            println!("  planned: {fault}");
        }
    }
    Ok(())
}

fn model_cmd(argv: &[String]) -> Result<(), String> {
    match argv.first().map(String::as_str) {
        Some("inspect") => model_inspect(&argv[1..]),
        Some(other) => Err(format!("unknown model action '{other}' (inspect)")),
        None => Err("usage: orfpred model inspect --model model.json [--top K]".into()),
    }
}

/// `orfpred model inspect --model model.json [--top K]`: compile the saved
/// model to the frozen layout and print its anatomy.
fn model_inspect(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, &[])?;
    let saved = SavedModel::load(args.require("model")?)?;
    let top: usize = args.parse_num("top", 10)?;
    // Footprint of the live representation before compiling: the ORF
    // carries its per-leaf candidate-test pools (the dominant cost the
    // frozen layout sheds); the offline RF has none.
    let live_pool_bytes = match &saved {
        SavedModel::Online { forest, .. } => Some(forest.test_pool_bytes()),
        SavedModel::Offline { .. } => None,
    };
    let f = saved.freeze().forest;

    println!("{} (frozen)", saved.kind());
    println!(
        "trees: {}   nodes: {}   leaves: {}   features: {}",
        f.n_trees(),
        f.n_nodes(),
        f.n_leaves(),
        f.n_features()
    );
    let counts = f.tree_node_counts();
    let (min, max) = (
        counts.iter().min().copied().unwrap_or(0),
        counts.iter().max().copied().unwrap_or(0),
    );
    println!(
        "nodes per tree: min {min} / mean {:.0} / max {max}",
        f.n_nodes() as f64 / f.n_trees() as f64
    );
    println!("max depth: {}", f.max_depth());
    println!("depth histogram (leaves at each depth):");
    let hist = f.depth_histogram();
    let widest = hist.iter().copied().max().unwrap_or(1).max(1);
    for (d, &n) in hist.iter().enumerate() {
        let bar = "#".repeat(((n * 40).div_ceil(widest)) as usize);
        println!("  {d:>3} | {n:>8} {bar}");
    }
    match live_pool_bytes {
        Some(pool) => println!(
            "frozen footprint: {} bytes ({} per tree); live candidate-test pools were {} bytes",
            f.memory_bytes(),
            f.memory_bytes() / f.n_trees(),
            pool
        ),
        None => println!(
            "frozen footprint: {} bytes ({} per tree)",
            f.memory_bytes(),
            f.memory_bytes() / f.n_trees()
        ),
    }
    let ranked = f.top_importances(top);
    if !ranked.is_empty() {
        println!("top {} feature importances:", ranked.len());
        // Models in this repo train on the Table 2 column selection, so a
        // matching width lets us name each feature; otherwise print indices.
        let cols = orfpred_smart::attrs::table2_feature_columns();
        for (idx, w) in ranked {
            let name = if f.n_features() == cols.len() {
                orfpred_smart::attrs::feature_name(cols[idx])
            } else {
                format!("feature_{idx}")
            };
            println!("  {name:>22}  {:.4}", w);
        }
    }
    Ok(())
}

fn inspect(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, &["lenient"])?;
    let ds = load_input(&args)?;
    let s = orfpred_smart::summary::summarize(&ds, 30);
    println!(
        "model {} | {} disks ({} failed) | {} snapshots over {} days",
        s.model,
        s.n_good + s.n_failed,
        s.n_failed,
        s.n_samples,
        ds.duration_days
    );
    println!(
        "labelled (7-day window): {} positive / {} negative (1:{:.0})",
        s.n_positive, s.n_negative, s.imbalance
    );
    println!("population by month: {:?}", s.population_by_month);
    println!("failures  by month: {:?}", s.failures_by_month);
    Ok(())
}
