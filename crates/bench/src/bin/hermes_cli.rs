//! `hermes_cli` — the operator's command-line front end to the §7 API.
//!
//! ```text
//! hermes_cli switches                      list the built-in switch models
//! hermes_cli plan --switch dell --guarantee-ms 5 [--prefix 10.0.0.0/8]
//!                                          size the shadow + admitted rate
//! ```
//!
//! The overhead table for every guarantee is `exp_fig14`'s; driving a
//! stream through a switch is what the `exp_*` binaries do.
//!
//! Argument parsing is deliberately dependency-free (`--key value` pairs).

#![forbid(unsafe_code)]

use hermes_bench::Table;
use hermes_core::config::RulePredicate;
use hermes_core::prelude::*;
use hermes_rules::prelude::*;
use hermes_tcam::{SimDuration, SwitchModel};
use std::collections::BTreeMap;
use std::process::ExitCode;

/// Parses `--key value` pairs after the subcommand.
fn parse_flags(args: &[String]) -> Result<BTreeMap<String, String>, String> {
    let mut out = BTreeMap::new();
    let mut it = args.iter();
    while let Some(k) = it.next() {
        let Some(key) = k.strip_prefix("--") else {
            return Err(format!("expected --flag, got '{k}'"));
        };
        let Some(v) = it.next() else {
            return Err(format!("--{key} needs a value"));
        };
        out.insert(key.to_string(), v.clone());
    }
    Ok(out)
}

fn model_by_name(name: &str) -> Result<SwitchModel, String> {
    match name.to_lowercase().as_str() {
        "pica8" | "pica8-p3290" | "p3290" => Ok(SwitchModel::pica8_p3290()),
        "dell" | "dell-8132f" | "8132f" => Ok(SwitchModel::dell_8132f()),
        "hp" | "hp-5406zl" | "5406zl" => Ok(SwitchModel::hp_5406zl()),
        other => Err(format!("unknown switch '{other}' (try: pica8, dell, hp)")),
    }
}

fn cmd_switches() {
    let mut t = Table::new(&["Model", "TCAM capacity", "base cost", "delete", "packing"]);
    for m in SwitchModel::paper_models() {
        t.row(&[
            m.name.clone(),
            m.capacity.to_string(),
            m.base.to_string(),
            m.delete.to_string(),
            format!("{:?}", m.placement),
        ]);
    }
    t.print();
}

fn cmd_plan(flags: &BTreeMap<String, String>) -> Result<(), String> {
    let model = model_by_name(flags.get("switch").ok_or("--switch required")?)?;
    let g_ms: f64 = flags
        .get("guarantee-ms")
        .ok_or("--guarantee-ms required")?
        .parse()
        .map_err(|_| "--guarantee-ms must be a number")?;
    let predicate = match flags.get("prefix") {
        Some(p) => RulePredicate::DstWithin(
            p.parse::<Ipv4Prefix>()
                .map_err(|e| format!("--prefix: {e}"))?,
        ),
        None => RulePredicate::All,
    };
    let mut api = HermesApi::new();
    api.register_switch(SwitchId(0), model.clone());
    let handle = api
        .create_tcam_qos(SwitchId(0), SimDuration::from_ms(g_ms), predicate)
        .map_err(|e| e.to_string())?;
    println!("CreateTCAMQoS on {}:", model.name);
    println!("  shadow id        {:?}", handle.shadow_id);
    println!("  TCAM overhead    {:.2}%", handle.overhead * 100.0);
    println!(
        "  max burst rate   {:.0} rules/s (Equation 2)",
        handle.max_burst_rate
    );
    Ok(())
}

const USAGE: &str = "usage: hermes_cli <switches|plan> [--flag value]...
  switches                              list built-in switch models
  plan      --switch <name> --guarantee-ms <ms> [--prefix <cidr>]";

/// Strips the uniform `--out` report flag (consumed by
/// `hermes_bench::run_experiment`, which re-reads argv) so subcommand
/// parsing only sees its own flags.
fn strip_out_flag(args: Vec<String>) -> Vec<String> {
    let mut kept = Vec::with_capacity(args.len());
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        if a == "--out" {
            it.next();
        } else if !a.starts_with("--out=") {
            kept.push(a);
        }
    }
    kept
}

fn main() -> ExitCode {
    let args = strip_out_flag(std::env::args().skip(1).collect());
    let Some(cmd) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let flags = match parse_flags(&args[1..]) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    // Run the command through the shared harness: telemetry armed from the
    // environment, a `BENCH_hermes_cli.json` report on success, and a panic
    // guard — whatever goes wrong inside (bad arithmetic, a fault-injected
    // device, a bug) the operator gets a one-line error and a nonzero
    // exit, never a backtrace.
    hermes_bench::run_experiment("hermes_cli", || {
        hermes_bench::report_meta("command", &cmd.as_str());
        let result = match cmd.as_str() {
            "switches" => {
                cmd_switches();
                Ok(())
            }
            "plan" => cmd_plan(&flags),
            other => Err(format!("unknown command '{other}'\n{USAGE}")),
        };
        #[expect(
            clippy::panic,
            reason = "run_experiment's catch guard turns this into the CLI's one-line error and nonzero exit"
        )]
        if let Err(e) = result {
            panic!("{e}");
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(pairs: &[(&str, &str)]) -> BTreeMap<String, String> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn parse_flags_happy_path() {
        let args: Vec<String> = ["--switch", "pica8", "--rate", "100"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let f = parse_flags(&args).unwrap();
        assert_eq!(f.get("switch").unwrap(), "pica8");
        assert_eq!(f.get("rate").unwrap(), "100");
    }

    #[test]
    fn parse_flags_rejects_bare_values_and_dangling_flags() {
        assert!(parse_flags(&["oops".to_string()]).is_err());
        assert!(parse_flags(&["--switch".to_string()]).is_err());
    }

    #[test]
    fn strip_out_flag_removes_both_forms() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(
            strip_out_flag(args(&["plan", "--out", "r.json", "--switch", "dell"])),
            args(&["plan", "--switch", "dell"])
        );
        assert_eq!(
            strip_out_flag(args(&["--out=r.json", "switches"])),
            args(&["switches"])
        );
    }

    #[test]
    fn model_aliases() {
        assert_eq!(model_by_name("PICA8").unwrap().name, "Pica8 P-3290");
        assert_eq!(model_by_name("dell-8132f").unwrap().name, "Dell 8132F");
        assert_eq!(model_by_name("5406zl").unwrap().name, "HP 5406zl");
        assert!(model_by_name("cisco").is_err());
    }

    #[test]
    fn plan_command_runs() {
        cmd_plan(&flags(&[
            ("switch", "pica8"),
            ("guarantee-ms", "5"),
            ("prefix", "10.0.0.0/8"),
        ]))
        .unwrap();
        assert!(cmd_plan(&flags(&[("switch", "pica8")])).is_err());
        assert!(
            cmd_plan(&flags(&[
                ("switch", "pica8"),
                ("guarantee-ms", "0.0000001")
            ]))
            .is_err(),
            "infeasible guarantee must error"
        );
    }
}
