//! Daemon command-line parsing, shared by `orfpredd` and `orfpred serve`.
//!
//! [`parse_daemon_args`] turns the daemon flag set into a
//! [`FleetDaemonConfig`]. Without `--tenant` the flags build one tenant
//! named `default`; with `--tenant` flags each spec builds one tenant,
//! value = `name[,key=value]...` ([`parse_tenant_spec`]):
//!
//! ```text
//! --tenant sta,domain=smart,shards=4,checkpoint=/var/lib/orfpred/sta.json
//! --tenant mce0,domain=mce,shards=2,store=/data/mce0,threshold=0.6
//! ```
//!
//! Keys: `domain` (smart | smart-windowed | mce; default smart), `shards`,
//! `threshold`, `window`, `seed`, `trees`, `queue`, `snapshot`, `store`
//! (telemetry-store catch-up dir), `checkpoint` (default checkpoint file),
//! and `cols` (colon-separated feature column indices; defaults to the
//! paper's Table-2 columns for the SMART domain and to every column for
//! other domains).

use crate::daemon::FleetDaemonConfig;
use crate::engine::TenantConfig;
use orfpred_core::{AdaptConfig, OnlinePredictorConfig, UpdatePolicy};
use orfpred_prep::PrepConfig;
use orfpred_smart::attrs::table2_feature_columns;
use orfpred_smart::DomainSchema;
use std::path::PathBuf;

/// Help text for the daemon flag set.
pub const DAEMON_USAGE: &str = "\
orfpredd — sharded online disk-failure-prediction daemon

USAGE:
    orfpredd [OPTIONS]
    orfpred serve [OPTIONS]

TENANT OPTIONS (build one tenant named `default`; not with --tenant):
    --shards N             labelling shard threads (default 4)
    --checkpoint PATH      restore from PATH if it exists; checkpoint to it
                           on shutdown and on path-less checkpoint requests
    --store DIR            replay the telemetry store at DIR before going
                           live, skipping events the restored checkpoint
                           already covers
    --threshold T          alarm threshold (default 0.5)
    --window W             labelling window W in days (default 7)
    --seed S               forest RNG seed (default 42)
    --trees K              number of trees (default from OrfConfig)
    --queue-capacity Q     per-shard bounded queue capacity (default 1024)
    --snapshot-every M     publish a scoring snapshot every M samples
                           (default 256)
    --prep                 arm the telemetry repair stage; --stuck-run K,
                           --recheck-days D and --max-value X tune it
                           (and imply --prep)
    --drift-policy P       no-update|replace|accumulate: the long-term
                           update a detected drift triggers; --drift-z Z,
                           --drift-window W and --drift-check-every E tune
                           the detector

FLEET OPTIONS:
    --tenant SPEC          host a tenant; repeatable. SPEC is
                           name[,key=value]... with keys domain (smart|
                           smart-windowed|mce), shards, threshold, window,
                           seed, trees, queue, snapshot, store, checkpoint,
                           cols=i:j:k. The tenant options above are
                           refused beside --tenant; use the spec keys.

SHARED OPTIONS:
    --listen ADDR          also serve the protocol on this TCP address
    -h, --help             print this help

Requests route by their \"tenant\" field (optional with one tenant), and
any connection (stdin included) may open a binary session by leading
with the ORFB magic.
";

/// Name of the tenant the flags build when no `--tenant` is given.
const FLAG_TENANT: &str = "default";

/// The flags that configure the flag-built tenant, each with the
/// `--tenant` spec key that replaces it (`None`: the spec has none).
const TENANT_FLAGS: &[(&str, Option<&str>)] = &[
    ("--shards", Some("shards")),
    ("--checkpoint", Some("checkpoint")),
    ("--store", Some("store")),
    ("--threshold", Some("threshold")),
    ("--window", Some("window")),
    ("--seed", Some("seed")),
    ("--trees", Some("trees")),
    ("--queue-capacity", Some("queue")),
    ("--snapshot-every", Some("snapshot")),
    ("--prep", None),
    ("--stuck-run", None),
    ("--recheck-days", None),
    ("--max-value", None),
    ("--drift-policy", None),
    ("--drift-z", None),
    ("--drift-window", None),
    ("--drift-check-every", None),
];

/// Parse the daemon flag set (program name already stripped) into a
/// fleet configuration. `-h`/`--help` is left to the caller.
pub fn parse_daemon_args(
    argv: impl IntoIterator<Item = String>,
) -> Result<FleetDaemonConfig, String> {
    let mut argv = argv.into_iter();
    let mut listen = None;
    let mut tenants = Vec::new();
    // Tenant flags in order, `(flag, value)`; `--prep` carries no value.
    let mut flags: Vec<(&str, String)> = Vec::new();
    while let Some(arg) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--listen" => listen = Some(value()?),
            "--tenant" => tenants.push(parse_tenant_spec(&value()?)?),
            "--prep" => flags.push(("--prep", String::new())),
            _ => match TENANT_FLAGS.iter().find(|(flag, _)| *flag == arg) {
                Some(&(flag, _)) => flags.push((flag, value()?)),
                None => return Err(format!("unknown argument `{arg}`\n\n{DAEMON_USAGE}")),
            },
        }
    }
    if tenants.is_empty() {
        tenants.push(flag_tenant(&flags)?);
    } else if let Some(&(flag, _)) = flags.first() {
        let key = TENANT_FLAGS
            .iter()
            .find(|(f, _)| *f == flag)
            .and_then(|f| f.1);
        return Err(match key {
            Some(key) => format!(
                "{flag} cannot be combined with --tenant; put `{key}=...` in the tenant spec instead"
            ),
            None => format!("{flag} cannot be combined with --tenant: tenant specs have no such key"),
        });
    }
    let mut cfg = FleetDaemonConfig::new(tenants);
    cfg.listen = listen;
    Ok(cfg)
}

/// The last value given for `flag`.
fn last<'a>(flags: &'a [(&str, String)], flag: &str) -> Option<&'a str> {
    flags
        .iter()
        .rev()
        .find(|(f, _)| *f == flag)
        .map(|(_, v)| v.as_str())
}

/// The last value given for `flag`, parsed.
fn last_num<T: std::str::FromStr>(
    flags: &[(&str, String)],
    flag: &str,
) -> Result<Option<T>, String> {
    last(flags, flag)
        .map(|v| v.parse().map_err(|_| format!("{flag}: bad value '{v}'")))
        .transpose()
}

/// Build the `default` tenant from the tenant flags. Its predictor starts
/// from the Table-2 SMART columns with no domain schema set, so
/// checkpoints written by earlier single-tenant daemons restore unchanged.
fn flag_tenant(flags: &[(&str, String)]) -> Result<TenantConfig, String> {
    let mut p = OnlinePredictorConfig::new(table2_feature_columns(), 42);
    p.seed = last_num(flags, "--seed")?.unwrap_or(p.seed);
    p.alarm_threshold = last_num(flags, "--threshold")?.unwrap_or(p.alarm_threshold);
    p.window_days = last_num(flags, "--window")?.unwrap_or(p.window_days);
    p.orf.n_trees = last_num(flags, "--trees")?.unwrap_or(p.orf.n_trees);
    // Telemetry repair: --prep arms the tolerant profile; any tuning knob
    // implies it.
    let prep_flags = ["--prep", "--stuck-run", "--recheck-days", "--max-value"];
    if prep_flags.iter().any(|f| last(flags, f).is_some()) {
        let mut prep = PrepConfig::tolerant();
        prep.stuck_run = last_num(flags, "--stuck-run")?.unwrap_or(prep.stuck_run);
        prep.recheck_days = last_num(flags, "--recheck-days")?.unwrap_or(prep.recheck_days);
        prep.max_value = last_num(flags, "--max-value")?.or(prep.max_value);
        p.prep = Some(prep);
    }
    // Closed-loop adaptation: a detected shift in the released healthy
    // population triggers the chosen long-term update policy live.
    if let Some(name) = last(flags, "--drift-policy") {
        let policy = UpdatePolicy::parse(name).ok_or_else(|| {
            format!("--drift-policy: unknown policy '{name}' (no-update|replace|accumulate)")
        })?;
        let mut adapt = AdaptConfig::new(policy, p.feature_cols.clone());
        let d = &mut adapt.detector;
        d.z_threshold = last_num(flags, "--drift-z")?.unwrap_or(d.z_threshold);
        d.window = last_num(flags, "--drift-window")?.unwrap_or(d.window);
        d.check_every = last_num(flags, "--drift-check-every")?.unwrap_or(d.check_every);
        p.adapt = Some(adapt);
    }

    let mut t = TenantConfig::new(FLAG_TENANT, p);
    let s = &mut t.serve;
    s.n_shards = last_num(flags, "--shards")?.unwrap_or(s.n_shards);
    if s.n_shards == 0 {
        return Err("--shards must be at least 1".into());
    }
    s.queue_capacity = last_num(flags, "--queue-capacity")?.unwrap_or(s.queue_capacity);
    s.snapshot_every = last_num(flags, "--snapshot-every")?.unwrap_or(s.snapshot_every);
    t.checkpoint_path = last(flags, "--checkpoint").map(PathBuf::from);
    t.catchup_store = last(flags, "--store").map(PathBuf::from);
    Ok(t)
}

fn parse_num<T: std::str::FromStr>(key: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("--tenant: `{key}={value}` is not a valid value"))
}

/// Parse one `--tenant` spec into a [`TenantConfig`].
pub fn parse_tenant_spec(spec: &str) -> Result<TenantConfig, String> {
    let mut parts = spec.split(',');
    let name = parts.next().unwrap_or("").trim();
    if name.is_empty() {
        return Err("--tenant: spec must start with a tenant name".into());
    }
    if name.contains('=') {
        return Err(format!(
            "--tenant: first element `{name}` must be the tenant name, not a key=value pair"
        ));
    }

    let mut domain = "smart".to_string();
    let mut kvs = Vec::new();
    for part in parts {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let Some((key, value)) = part.split_once('=') else {
            return Err(format!("--tenant {name}: `{part}` is not key=value"));
        };
        if key == "domain" {
            domain = value.to_string();
        } else {
            kvs.push((key.to_string(), value.to_string()));
        }
    }

    let schema = DomainSchema::for_domain(&domain).ok_or_else(|| {
        format!("--tenant {name}: unknown domain `{domain}` (smart|smart-windowed|mce)")
    })?;
    let cols = if domain == "smart" {
        table2_feature_columns()
    } else {
        (0..schema.n_features()).collect()
    };
    let mut predictor = OnlinePredictorConfig::for_domain(schema, cols, 42);
    let mut cfg = TenantConfig::new(name, predictor.clone());

    for (key, value) in kvs {
        match key.as_str() {
            "shards" => {
                cfg.serve.n_shards = parse_num(&key, &value)?;
                if cfg.serve.n_shards == 0 {
                    return Err(format!("--tenant {name}: shards must be at least 1"));
                }
            }
            "threshold" => predictor.alarm_threshold = parse_num(&key, &value)?,
            "window" => predictor.window_days = parse_num(&key, &value)?,
            "seed" => predictor.seed = parse_num(&key, &value)?,
            "trees" => predictor.orf.n_trees = parse_num(&key, &value)?,
            "queue" => cfg.serve.queue_capacity = parse_num(&key, &value)?,
            "snapshot" => cfg.serve.snapshot_every = parse_num(&key, &value)?,
            "store" => cfg.catchup_store = Some(PathBuf::from(value)),
            "checkpoint" => cfg.checkpoint_path = Some(PathBuf::from(value)),
            "cols" => {
                let mut cols = Vec::new();
                for c in value.split(':') {
                    cols.push(parse_num::<usize>(&key, c)?);
                }
                if cols.is_empty() {
                    return Err(format!("--tenant {name}: cols must name at least one column"));
                }
                predictor.feature_cols = cols;
            }
            other => {
                return Err(format!(
                    "--tenant {name}: unknown key `{other}` \
                     (domain|shards|threshold|window|seed|trees|queue|snapshot|store|checkpoint|cols)"
                ))
            }
        }
    }
    cfg.serve.predictor = predictor;
    Ok(cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn no_tenant_flags_build_one_default_tenant() {
        let cfg = parse_daemon_args(args(&[])).unwrap();
        assert_eq!(cfg.tenants.len(), 1);
        let t = &cfg.tenants[0];
        assert_eq!(t.name, "default");
        assert_eq!(t.serve.n_shards, 4);
        assert_eq!(t.serve.predictor.seed, 42);
        assert_eq!(t.serve.predictor.feature_cols, table2_feature_columns());
        assert!(
            t.serve.predictor.domain.is_none(),
            "checkpoints of earlier flag-built daemons restore"
        );
        assert!(t.serve.predictor.prep.is_none() && t.serve.predictor.adapt.is_none());
        assert!(cfg.listen.is_none());

        let cfg = parse_daemon_args(args(&[
            "--shards",
            "8",
            "--threshold",
            "0.7",
            "--checkpoint",
            "/tmp/ck.json",
            "--listen",
            "127.0.0.1:7077",
        ]))
        .unwrap();
        let t = &cfg.tenants[0];
        assert_eq!(t.serve.n_shards, 8);
        assert_eq!(t.serve.predictor.alarm_threshold, 0.7);
        assert_eq!(cfg.listen.as_deref(), Some("127.0.0.1:7077"));
        assert!(t.checkpoint_path.is_some());
    }

    #[test]
    fn prep_and_drift_flags_arm_both_stages() {
        let cfg = parse_daemon_args(args(&["--prep", "--drift-policy", "replace"])).unwrap();
        let p = &cfg.tenants[0].serve.predictor;
        assert_eq!(p.prep, Some(PrepConfig::tolerant()));
        assert_eq!(p.adapt.as_ref().unwrap().policy, UpdatePolicy::Replace);

        // A tuning knob alone implies --prep.
        let cfg = parse_daemon_args(args(&["--max-value", "9.5", "--stuck-run", "6"])).unwrap();
        let prep = cfg.tenants[0].serve.predictor.prep.clone().unwrap();
        assert_eq!(prep.max_value, Some(9.5));
        assert_eq!(prep.stuck_run, 6);
    }

    #[test]
    fn every_daemon_flag_parses() {
        let cfg = parse_daemon_args(args(&[
            "--shards",
            "2",
            "--listen",
            "127.0.0.1:0",
            "--checkpoint",
            "ck.json",
            "--store",
            "store",
            "--threshold",
            "0.6",
            "--window",
            "5",
            "--seed",
            "7",
            "--trees",
            "9",
            "--queue-capacity",
            "64",
            "--snapshot-every",
            "32",
            "--prep",
            "--stuck-run",
            "3",
            "--recheck-days",
            "1",
            "--max-value",
            "1e6",
            "--drift-policy",
            "accumulate",
            "--drift-z",
            "3.5",
            "--drift-window",
            "200",
            "--drift-check-every",
            "50",
        ]))
        .unwrap();
        let t = &cfg.tenants[0];
        assert_eq!(t.serve.n_shards, 2);
        assert_eq!(t.serve.queue_capacity, 64);
        assert_eq!(t.serve.snapshot_every, 32);
        assert_eq!(
            t.catchup_store.as_deref(),
            Some(std::path::Path::new("store"))
        );
        let p = &t.serve.predictor;
        assert_eq!((p.window_days, p.seed, p.orf.n_trees), (5, 7, 9));
        assert_eq!(p.prep.as_ref().unwrap().recheck_days, 1);
        let d = &p.adapt.as_ref().unwrap().detector;
        assert_eq!((d.z_threshold, d.window, d.check_every), (3.5, 200, 50));
    }

    #[test]
    fn tenant_flags_select_the_fleet() {
        let cfg = parse_daemon_args(args(&[
            "--tenant",
            "sta,shards=2",
            "--tenant",
            "mce0,domain=mce",
            "--listen",
            "127.0.0.1:7078",
        ]))
        .unwrap();
        assert_eq!(cfg.tenants.len(), 2);
        assert_eq!(cfg.tenants[0].name, "sta");
        assert_eq!(cfg.tenants[0].serve.n_shards, 2);
        assert_eq!(cfg.tenants[1].name, "mce0");
        assert_eq!(cfg.listen.as_deref(), Some("127.0.0.1:7078"));
    }

    #[test]
    fn tenant_options_beside_tenant_are_refused_naming_the_spec_key() {
        let err = parse_daemon_args(args(&["--tenant", "a", "--shards", "3"])).unwrap_err();
        assert!(
            err.contains("--shards") && err.contains("`shards=...`"),
            "{err}"
        );
        let err = parse_daemon_args(args(&["--queue-capacity", "8", "--tenant", "a"])).unwrap_err();
        assert!(err.contains("`queue=...`"), "{err}");
        for flag in [&["--prep"][..], &["--drift-policy", "replace"]] {
            let mut argv = args(&["--tenant", "a"]);
            argv.extend(args(flag));
            let err = parse_daemon_args(argv).unwrap_err();
            assert!(err.contains("no such key"), "{err}");
        }
    }

    #[test]
    fn bad_arguments_are_rejected() {
        for argv in [
            &["--shards"][..],
            &["--shards", "zero"],
            &["--shards", "0"],
            &["--frobnicate"],
            &["--tenant", "t,domain=lustre"],
            &["--tenant"],
            &["--drift-policy", "sometimes"],
            &["--max-value", "big"],
        ] {
            assert!(parse_daemon_args(args(argv)).is_err(), "{argv:?}");
        }
    }

    #[test]
    fn minimal_spec_defaults_to_smart_table2() {
        let cfg = parse_tenant_spec("sta").unwrap();
        assert_eq!(cfg.name, "sta");
        assert_eq!(cfg.serve.predictor.feature_cols, table2_feature_columns());
        assert_eq!(cfg.serve.n_shards, 4);
        assert!(cfg.checkpoint_path.is_none());
        assert!(cfg.catchup_store.is_none());
    }

    #[test]
    fn full_spec_parses_every_key() {
        let cfg = parse_tenant_spec(
            "mce0,domain=mce,shards=2,threshold=0.6,window=5,seed=7,trees=9,queue=64,snapshot=32,store=/data/mce0,checkpoint=/ck/mce0.json,cols=0:2:4",
        )
        .unwrap();
        assert_eq!(cfg.name, "mce0");
        assert_eq!(
            cfg.serve.predictor.domain_schema().name,
            DomainSchema::mce().name
        );
        assert_eq!(cfg.serve.n_shards, 2);
        assert_eq!(cfg.serve.predictor.alarm_threshold, 0.6);
        assert_eq!(cfg.serve.predictor.window_days, 5);
        assert_eq!(cfg.serve.predictor.seed, 7);
        assert_eq!(cfg.serve.predictor.orf.n_trees, 9);
        assert_eq!(cfg.serve.queue_capacity, 64);
        assert_eq!(cfg.serve.snapshot_every, 32);
        assert_eq!(
            cfg.catchup_store.as_deref(),
            Some(std::path::Path::new("/data/mce0"))
        );
        assert_eq!(
            cfg.checkpoint_path.as_deref(),
            Some(std::path::Path::new("/ck/mce0.json"))
        );
        assert_eq!(cfg.serve.predictor.feature_cols, vec![0, 2, 4]);
    }

    #[test]
    fn non_smart_domains_default_to_all_columns() {
        let cfg = parse_tenant_spec("m,domain=mce").unwrap();
        let schema = cfg.serve.predictor.domain_schema().clone();
        assert_eq!(
            cfg.serve.predictor.feature_cols,
            (0..schema.n_features()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn malformed_specs_are_rejected_with_context() {
        assert!(parse_tenant_spec("").is_err());
        assert!(parse_tenant_spec("domain=mce").is_err(), "name first");
        assert!(parse_tenant_spec("t,frobnicate=1").is_err());
        assert!(parse_tenant_spec("t,domain=lustre").is_err());
        assert!(parse_tenant_spec("t,shards=0").is_err());
        assert!(parse_tenant_spec("t,shards=lots").is_err());
        assert!(parse_tenant_spec("t,shards").is_err());
    }
}
