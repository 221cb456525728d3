//! The shared scenario-config format (`hermes-scenario/1`).
//!
//! One file — the **scenario matrix** — names every workload configuration
//! the workspace knows how to run: which release binary to spawn, how many
//! seeded repetitions, the standard environment knobs (`HERMES_SCALE`,
//! `HERMES_FAULT_SEED`, `HERMES_TRACE`) and free-form per-experiment knobs.
//! Both sides of the process boundary parse the *same* file with this
//! module:
//!
//! * `hermes-harness` (the orchestrator) loads the matrix, spawns the
//!   named binary once per repetition with the scenario's environment
//!   ([`Scenario::env`]), and checks each emitted `BENCH_*.json` report;
//! * the `exp_*` binaries (via `hermes_bench::scenario()`) load the same
//!   scenario back from `HERMES_SCENARIO_FILE`/`HERMES_SCENARIO` and read
//!   their workload knobs from the [`Scenario`] struct.
//!
//! Because there is exactly one parser and one struct, the matrix and the
//! binaries cannot drift: a knob renamed in one place is a load error in
//! the other. Unknown scenario keys are rejected for the same reason.
//!
//! The syntax is a deliberately small TOML subset — `#` comments,
//! `[scenario.<name>]` sections, and `key = value` pairs where a value is
//! a double-quoted string, integer, float, or `true`/`false`. Per-
//! experiment knobs use the dotted prefix `knobs.<name>`. Example:
//!
//! ```toml
//! schema = "hermes-scenario/1"
//!
//! [scenario.bgp-replay]
//! bin = "exp_bgp"
//! runs = 5
//! scale = 1
//! trace = true
//! knobs.prefixes = 900000
//! knobs.full_table = true
//! ```

use std::collections::BTreeMap;
use std::path::Path;

/// Schema identifier the matrix file must declare.
pub const SCHEMA: &str = "hermes-scenario/1";

/// A scenario-config value: the four scalar shapes the format admits.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// A double-quoted string.
    Str(String),
    /// A decimal integer.
    Int(i64),
    /// A decimal float.
    Float(f64),
    /// `true` / `false`.
    Bool(bool),
}

impl Value {
    /// Integer view; `Float` values with an exact integral value coerce.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Int(i) if *i >= 0 => Some(*i as u64),
            Value::Float(f) if *f >= 0.0 && f.fract() == 0.0 && *f <= u64::MAX as f64 => {
                Some(*f as u64)
            }
            _ => None,
        }
    }

    /// Float view; integers coerce.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Boolean view.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::Str(s) => write!(f, "{s}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Bool(b) => write!(f, "{b}"),
        }
    }
}

/// One named workload configuration from the matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct Scenario {
    /// Scenario name (the `[scenario.<name>]` header).
    pub name: String,
    /// Release binary to spawn (an `exp_*` file stem).
    pub bin: String,
    /// Seeded repetitions the harness runs.
    pub runs: u32,
    /// Workload multiplier exported as `HERMES_SCALE`.
    pub scale: u64,
    /// Base fault seed; repetition `r` runs under `fault_seed + r`
    /// (`HERMES_FAULT_SEED`). `None` leaves fault injection disarmed.
    pub fault_seed: Option<u64>,
    /// Whether to arm telemetry (`HERMES_TRACE=1`) so the run emits a
    /// `BENCH_*.json` report the harness can merge.
    pub trace: bool,
    /// Free-form per-experiment knobs (`knobs.<name> = …`).
    pub knobs: BTreeMap<String, Value>,
}

impl Scenario {
    /// A scenario with the format's defaults (no binary, 5 runs, scale 1,
    /// no faults, telemetry on) — the parser's starting point and the
    /// shape `hermes_bench` synthesizes from bare environment variables.
    pub fn with_defaults(name: &str) -> Scenario {
        Scenario {
            name: name.to_string(),
            bin: String::new(),
            runs: 5,
            scale: 1,
            fault_seed: None,
            trace: true,
            knobs: BTreeMap::new(),
        }
    }

    /// Raw knob lookup.
    pub fn knob(&self, name: &str) -> Option<&Value> {
        self.knobs.get(name)
    }

    /// Integer knob with a default for absent keys. A present knob of the
    /// wrong shape is a configuration bug and fails loudly.
    pub fn knob_u64(&self, name: &str, default: u64) -> u64 {
        match self.knobs.get(name) {
            None => default,
            #[expect(
                clippy::panic,
                reason = "a mistyped knob is operator error; the panic becomes a one-line nonzero exit via hermes_bench::catch_panic"
            )]
            Some(v) => v
                .as_u64()
                .unwrap_or_else(|| panic!("scenario {}: knob {name} is not an integer", self.name)),
        }
    }

    /// Boolean knob with a default for absent keys.
    pub fn knob_bool(&self, name: &str, default: bool) -> bool {
        match self.knobs.get(name) {
            None => default,
            #[expect(
                clippy::panic,
                reason = "a mistyped knob is operator error; the panic becomes a one-line nonzero exit via hermes_bench::catch_panic"
            )]
            Some(v) => v
                .as_bool()
                .unwrap_or_else(|| panic!("scenario {}: knob {name} is not a bool", self.name)),
        }
    }

    /// The environment for repetition `rep`, as `(set, remove)` variable
    /// lists. `matrix_path`, when given, lets the child re-load this
    /// scenario through the same parser (`HERMES_SCENARIO_FILE` +
    /// `HERMES_SCENARIO`). Variables in the remove list must be cleared so
    /// a stale shell environment cannot leak into a seeded run.
    pub fn env(&self, matrix_path: Option<&str>, rep: u32) -> (Vec<(String, String)>, Vec<String>) {
        let mut set = vec![
            ("HERMES_SCALE".to_string(), self.scale.to_string()),
            (
                "HERMES_TRACE".to_string(),
                if self.trace { "1" } else { "0" }.to_string(),
            ),
            ("HERMES_REP".to_string(), rep.to_string()),
            ("HERMES_SCENARIO".to_string(), self.name.clone()),
        ];
        let mut remove = Vec::new();
        match self.fault_seed {
            Some(base) => set.push((
                "HERMES_FAULT_SEED".to_string(),
                (base + rep as u64).to_string(),
            )),
            None => remove.push("HERMES_FAULT_SEED".to_string()),
        }
        match matrix_path {
            Some(p) => set.push(("HERMES_SCENARIO_FILE".to_string(), p.to_string())),
            None => remove.push("HERMES_SCENARIO_FILE".to_string()),
        }
        (set, remove)
    }
}

/// The parsed scenario matrix, in file order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Matrix {
    /// Scenarios in declaration order (the report preserves it).
    pub scenarios: Vec<Scenario>,
}

impl Matrix {
    /// Looks a scenario up by name.
    pub fn get(&self, name: &str) -> Option<&Scenario> {
        self.scenarios.iter().find(|s| s.name == name)
    }

    /// Parses matrix text. See the module docs for the grammar.
    pub fn parse(text: &str) -> Result<Matrix, ScenarioError> {
        let mut matrix = Matrix::default();
        let mut current: Option<Scenario> = None;
        let err = |line: usize, message: String| Err(ScenarioError { line, message });
        for (i, raw) in text.lines().enumerate() {
            let lineno = i + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some(header) = line.strip_prefix('[') {
                let Some(header) = header.strip_suffix(']') else {
                    return err(lineno, format!("unterminated section header: {line}"));
                };
                let Some(name) = header.trim().strip_prefix("scenario.") else {
                    return err(
                        lineno,
                        format!("unknown section [{header}] (only [scenario.<name>])"),
                    );
                };
                let name = name.trim();
                if name.is_empty()
                    || !name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
                {
                    return err(lineno, format!("invalid scenario name {name:?}"));
                }
                if let Some(done) = current.take() {
                    matrix.push_checked(done, lineno)?;
                }
                if matrix.get(name).is_some() {
                    return err(lineno, format!("duplicate scenario {name:?}"));
                }
                current = Some(Scenario::with_defaults(name));
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return err(lineno, format!("expected `key = value`, got {line:?}"));
            };
            let key = key.trim();
            let value = parse_value(value.trim()).ok_or_else(|| ScenarioError {
                line: lineno,
                message: format!("unparseable value for {key}: {}", value.trim()),
            })?;
            match current.as_mut() {
                None => {
                    // Top-level: only the schema declaration is allowed.
                    if key != "schema" {
                        return err(lineno, format!("unexpected top-level key {key:?}"));
                    }
                    if value.as_str() != Some(SCHEMA) {
                        return err(
                            lineno,
                            format!("unsupported schema {value} (want {SCHEMA})"),
                        );
                    }
                }
                Some(s) => match key {
                    "bin" => match value.as_str() {
                        Some(b) if !b.is_empty() => s.bin = b.to_string(),
                        _ => return err(lineno, "bin must be a non-empty string".into()),
                    },
                    "runs" => match value.as_u64() {
                        Some(r) if r >= 1 && r <= u32::MAX as u64 => s.runs = r as u32,
                        _ => return err(lineno, "runs must be an integer >= 1".into()),
                    },
                    "scale" => match value.as_u64() {
                        Some(v) if v >= 1 => s.scale = v,
                        _ => return err(lineno, "scale must be an integer >= 1".into()),
                    },
                    "fault_seed" => match value.as_u64() {
                        Some(v) => s.fault_seed = Some(v),
                        None => return err(lineno, "fault_seed must be an integer".into()),
                    },
                    "trace" => match value.as_bool() {
                        Some(b) => s.trace = b,
                        None => return err(lineno, "trace must be true or false".into()),
                    },
                    _ => match key.strip_prefix("knobs.") {
                        Some(k) if !k.is_empty() && !k.contains('.') => {
                            if s.knobs.insert(k.to_string(), value).is_some() {
                                return err(lineno, format!("duplicate knob {k:?}"));
                            }
                        }
                        // Unknown keys are drift, not extension points.
                        _ => return err(lineno, format!("unknown scenario key {key:?}")),
                    },
                },
            }
        }
        if let Some(done) = current.take() {
            let last = text.lines().count();
            matrix.push_checked(done, last)?;
        }
        Ok(matrix)
    }

    fn push_checked(&mut self, s: Scenario, line: usize) -> Result<(), ScenarioError> {
        if s.bin.is_empty() {
            return Err(ScenarioError {
                line,
                message: format!("scenario {:?} declares no bin", s.name),
            });
        }
        self.scenarios.push(s);
        Ok(())
    }

    /// Loads and parses a matrix file.
    pub fn load(path: &Path) -> Result<Matrix, ScenarioError> {
        let text = std::fs::read_to_string(path).map_err(|e| ScenarioError {
            line: 0,
            message: format!("cannot read {}: {e}", path.display()),
        })?;
        Matrix::parse(&text).map_err(|e| ScenarioError {
            line: e.line,
            message: format!("{}: {}", path.display(), e.message),
        })
    }
}

fn parse_value(text: &str) -> Option<Value> {
    if let Some(rest) = text.strip_prefix('"') {
        let inner = rest.strip_suffix('"')?;
        // Strings are literal: the format needs names and paths, not
        // escape sequences.
        if inner.contains('"') {
            return None;
        }
        return Some(Value::Str(inner.to_string()));
    }
    match text {
        "true" => return Some(Value::Bool(true)),
        "false" => return Some(Value::Bool(false)),
        _ => {}
    }
    if let Ok(i) = text.parse::<i64>() {
        return Some(Value::Int(i));
    }
    if let Ok(f) = text.parse::<f64>() {
        if f.is_finite() {
            return Some(Value::Float(f));
        }
    }
    None
}

/// A scenario-config load/parse error with the offending line.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioError {
    /// 1-based line number (0 for I/O errors).
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line == 0 {
            write!(f, "scenario config: {}", self.message)
        } else {
            write!(f, "scenario config line {}: {}", self.line, self.message)
        }
    }
}

impl std::error::Error for ScenarioError {}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
# comment
schema = "hermes-scenario/1"

[scenario.baseline]
bin = "exp_fig9"
runs = 5
scale = 2
trace = true
knobs.facebook_jobs = 600

[scenario.chaos-suite]
bin = "exp_fig12"
fault_seed = 42
knobs.rate = 1.5
knobs.label = "storm"
knobs.hard = false
"#;

    #[test]
    fn parses_sections_defaults_and_knobs() {
        let m = Matrix::parse(SAMPLE).unwrap();
        assert_eq!(m.scenarios.len(), 2);
        let b = m.get("baseline").unwrap();
        assert_eq!(b.bin, "exp_fig9");
        assert_eq!((b.runs, b.scale, b.trace, b.fault_seed), (5, 2, true, None));
        assert_eq!(b.knob_u64("facebook_jobs", 0), 600);
        assert_eq!(b.knob_u64("absent", 7), 7);
        let c = m.get("chaos-suite").unwrap();
        assert_eq!(c.fault_seed, Some(42));
        assert_eq!(c.runs, 5, "runs defaults to 5");
        assert_eq!(c.knob("rate").and_then(Value::as_f64), Some(1.5));
        assert_eq!(c.knob("label").and_then(Value::as_str), Some("storm"));
        assert!(!c.knob_bool("hard", true));
    }

    #[test]
    fn env_mapping_seeds_each_rep() {
        let m = Matrix::parse(SAMPLE).unwrap();
        let (set, remove) = m.get("chaos-suite").unwrap().env(Some("m.toml"), 3);
        let get = |k: &str| {
            set.iter()
                .find(|(n, _)| n == k)
                .map(|(_, v)| v.as_str())
                .unwrap_or_else(|| panic!("{k} not set"))
        };
        assert_eq!(get("HERMES_FAULT_SEED"), "45");
        assert_eq!(get("HERMES_SCALE"), "1");
        assert_eq!(get("HERMES_TRACE"), "1");
        assert_eq!(get("HERMES_REP"), "3");
        assert_eq!(get("HERMES_SCENARIO"), "chaos-suite");
        assert_eq!(get("HERMES_SCENARIO_FILE"), "m.toml");
        assert!(remove.is_empty());
        // No fault seed → the variable is actively cleared.
        let (_, remove) = m.get("baseline").unwrap().env(None, 0);
        assert!(remove.contains(&"HERMES_FAULT_SEED".to_string()));
        assert!(remove.contains(&"HERMES_SCENARIO_FILE".to_string()));
    }

    #[test]
    fn rejects_drift() {
        let bad = |text: &str, needle: &str| {
            let e = Matrix::parse(text).unwrap_err();
            assert!(
                e.message.contains(needle),
                "error {:?} should mention {needle:?}",
                e.message
            );
        };
        bad(
            "[scenario.x]\nbin = \"b\"\ntypo_knob = 1\n",
            "unknown scenario key",
        );
        bad("[scenario.x]\nruns = 3\n", "declares no bin");
        bad(
            "[scenario.x]\nbin = \"b\"\n[scenario.x]\nbin = \"b\"\n",
            "duplicate scenario",
        );
        bad("[scenario.x]\nbin = \"b\"\nruns = 0\n", "runs must be");
        bad("[other.x]\nbin = \"b\"\n", "unknown section");
        bad("schema = \"hermes-scenario/9\"\n", "unsupported schema");
        bad("loose = 1\n", "unexpected top-level key");
        bad(
            "[scenario.bad name]\nbin = \"b\"\n",
            "invalid scenario name",
        );
        bad(
            "[scenario.x]\nbin = \"b\"\nknobs.a = 1\nknobs.a = 2\n",
            "duplicate knob",
        );
        bad(
            "[scenario.x]\nbin = \"b\"\nknobs.a = what\n",
            "unparseable value",
        );
    }

    #[test]
    fn value_coercions() {
        assert_eq!(parse_value("3"), Some(Value::Int(3)));
        assert_eq!(parse_value("3.5"), Some(Value::Float(3.5)));
        assert_eq!(parse_value("\"x\""), Some(Value::Str("x".into())));
        assert_eq!(parse_value("true"), Some(Value::Bool(true)));
        assert_eq!(parse_value("nan"), None);
        assert_eq!(parse_value("\"a\"b\""), None);
        assert_eq!(Value::Int(900_000).as_u64(), Some(900_000));
        assert_eq!(Value::Float(2.0).as_u64(), Some(2));
        assert_eq!(Value::Float(2.5).as_u64(), None);
        assert_eq!(Value::Int(-1).as_u64(), None);
        assert_eq!(Value::Int(2).as_f64(), Some(2.0));
    }

    #[test]
    fn scenario_order_is_file_order() {
        let m = Matrix::parse(SAMPLE).unwrap();
        let names: Vec<&str> = m.scenarios.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["baseline", "chaos-suite"]);
    }
}
