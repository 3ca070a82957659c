//! `orfpredd` — the ORF serving daemon.
//!
//! A thin front-end: [`parse_daemon_args`] builds the configuration,
//! [`orfpred_fleet::run`] serves line-delimited JSON or ORFB binary
//! sessions on stdin/stdout (plus an optional TCP listener), and
//! [`shutdown_summary`] reports each tenant on stderr. Without `--tenant`
//! flags the tenant flags build one tenant named `default`, whose requests
//! need no `"tenant"` field (see `README.md`, "Serving"). `orfpred serve`
//! is the same front-end. `orfpredd --help` prints the flag set
//! ([`DAEMON_USAGE`]).

use orfpred_fleet::{parse_daemon_args, shutdown_summary, DAEMON_USAGE};

fn main() {
    // lint: allow(nondeterminism, reason="argv is the program's input, read once at startup; nothing downstream branches on ambient state")
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "-h" || a == "--help") {
        print!("{DAEMON_USAGE}");
        return;
    }
    let cfg = match parse_daemon_args(argv) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("orfpredd: {e}");
            std::process::exit(2);
        }
    };
    match orfpred_fleet::run(&cfg, std::io::stdin().lock(), std::io::stdout().lock()) {
        Ok(fins) => eprint!("{}", shutdown_summary("orfpredd", &fins)),
        Err(e) => {
            eprintln!("orfpredd: {e}");
            std::process::exit(1);
        }
    }
}
