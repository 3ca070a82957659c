//! `orfbench` command line. Run from the repository root:
//!
//! ```text
//! cargo run --release --manifest-path orfbench/Cargo.toml -- \
//!     [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
//!     [--scale small|tiny] [--orfpredd PATH]
//! ```
//!
//! A human-readable summary goes to standard error; the last line of
//! standard output is the JSON result. The exit code is 0 only when every
//! correctness gate passed.

use orfbench::report::{render, Metric};
use orfbench::workload::{Scale, Workload, ALL};
use orfbench::{run, summary, Options};
use std::path::PathBuf;

const USAGE: &str = "usage: orfbench [--workload NAME|all] [--seed N] [--seconds S] \
[--trace 0|1] [--scale small|tiny] [--orfpredd PATH]";

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Options, String> {
    let mut opts = Options {
        workloads: ALL.to_vec(),
        seed: 11,
        seconds: 30.0,
        trace: false,
        scale: Scale::Small,
        orfpredd: None,
    };
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                opts.workloads = if v == "all" {
                    ALL.to_vec()
                } else {
                    vec![Workload::parse(&v).ok_or(format!("unknown workload `{v}`"))?]
                };
            }
            "--seed" => opts.seed = value()?.parse().map_err(|_| "--seed: not a number")?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|_| "--seconds: not a number")?;
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                };
            }
            "--scale" => {
                opts.scale = match value()?.as_str() {
                    "small" => Scale::Small,
                    "tiny" => Scale::Tiny,
                    _ => return Err("--scale takes small or tiny".into()),
                };
            }
            "--orfpredd" => opts.orfpredd = Some(PathBuf::from(value()?)),
            _ => return Err(format!("unknown argument `{flag}`\n{USAGE}")),
        }
    }
    Ok(opts)
}

fn main() {
    let opts = match parse_args(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("orfbench: {e}");
            std::process::exit(2);
        }
    };
    let results = match run(&opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("orfbench: {e}");
            std::process::exit(2);
        }
    };
    eprint!("{}", summary(&results, opts.trace));

    let prefixed = results.len() > 1;
    let mut metrics: Vec<Metric> = Vec::new();
    for r in &results {
        let ms = if opts.trace {
            r.per_layer()
        } else {
            r.end_to_end()
        };
        for mut m in ms {
            if prefixed {
                m.name = format!("{}.{}", r.workload.name(), m.name);
            }
            metrics.push(m);
        }
    }
    let correct = results.iter().all(|r| r.correct());
    let attempted = results.iter().map(|r| r.attempted()).sum();
    let failed = results.iter().map(|r| r.failed()).sum();
    println!("{}", render(correct, attempted, failed, &metrics));
    if !correct {
        eprintln!("orfbench: correctness gate failed");
        std::process::exit(1);
    }
}
