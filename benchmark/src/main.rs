//! `perf-ledger` — see `hermes_perf_ledger` and the README beside this crate.

#![forbid(unsafe_code)]

fn main() -> std::process::ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    hermes_perf_ledger::cli::main_with(&args)
}
