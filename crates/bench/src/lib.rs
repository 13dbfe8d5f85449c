//! Experiment-harness support: argument handling, table rendering, and the
//! shared survey runner used by the per-table/per-figure binaries in
//! `src/bin/`.
//!
//! Every binary regenerates one artifact of the paper's evaluation (see
//! DESIGN.md §4 for the index):
//!
//! ```text
//! cargo run --release -p unicert-bench --bin table1_taxonomy  [-- size seed]
//! ```

#![forbid(unsafe_code)]

pub mod baseline;
pub mod cli;
pub mod json;
pub mod table;

use std::path::PathBuf;
use unicert::corpus::{CorpusConfig, CorpusGenerator};
use unicert::survey::{self, SurveyOptions, SurveyReport};
use unicert::telemetry;

/// Parse `[size] [seed]` from argv with experiment defaults.
///
/// `--flag value` / `--flag=value` pairs (e.g. the shared `--metrics-out` /
/// `--trace-out` telemetry flags, see [`telemetry_args`]) are skipped, so
/// positional corpus arguments and telemetry flags compose in any order.
/// A size or seed that is not a number is a usage error: the message goes
/// to stderr and the process exits with status 2.
pub fn corpus_args(default_size: usize) -> CorpusConfig {
    match parse_corpus_args(std::env::args().skip(1), default_size) {
        Ok(config) => config,
        Err(problem) => {
            eprintln!("error: {problem}");
            std::process::exit(2);
        }
    }
}

/// The pure half of [`corpus_args`]: parse `[size] [seed]` out of `args`
/// (argv without the program name). Absent values take the defaults
/// (`default_size`, seed 42); present ones must parse.
pub fn parse_corpus_args(
    args: impl IntoIterator<Item = String>,
    default_size: usize,
) -> Result<CorpusConfig, String> {
    let mut positional = Vec::new();
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        if let Some(flag) = arg.strip_prefix("--") {
            // Every harness flag takes a value: `--flag=value` is
            // self-contained, `--flag value` consumes the next argument.
            if !flag.contains('=') {
                let _ = args.next();
            }
            continue;
        }
        positional.push(arg);
    }
    let size = parse_or(positional.first(), "corpus size", default_size)?;
    let seed = parse_or(positional.get(1), "seed", 42)?;
    Ok(CorpusConfig { size, seed, precert_fraction: 0.0, latent_defects: true })
}

/// `--certs N` / `--seed S` (either `=`-joined or space-separated) from
/// argv, defaulting to `default_certs` and seed 42. A value that is not a
/// number is a usage error: the message goes to stderr and the process
/// exits with status 2.
pub fn certs_seed_args(default_certs: usize) -> (usize, u64) {
    match parse_certs_seed(std::env::args().skip(1), default_certs) {
        Ok(parsed) => parsed,
        Err(problem) => {
            eprintln!("error: {problem}");
            std::process::exit(2);
        }
    }
}

/// The pure half of [`certs_seed_args`]: read `--certs` and `--seed` out of
/// `args` (argv without the program name), skipping every other flag with
/// its value. Absent flags take the defaults; present ones must parse.
pub fn parse_certs_seed(
    args: impl IntoIterator<Item = String>,
    default_certs: usize,
) -> Result<(usize, u64), String> {
    let (mut certs, mut seed) = (None, None);
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let (flag, inline) = match arg.split_once('=') {
            Some((f, v)) => (f.to_owned(), Some(v.to_owned())),
            None => (arg, None),
        };
        let slot = match flag.as_str() {
            "--certs" => &mut certs,
            "--seed" => &mut seed,
            _ => continue,
        };
        *slot = inline.or_else(|| args.next());
    }
    Ok((
        parse_or(certs.as_ref(), "--certs", default_certs)?,
        parse_or(seed.as_ref(), "--seed", 42)?,
    ))
}

/// Parse an optional positional number, falling back to `default` only
/// when the argument is absent.
fn parse_or<T: std::str::FromStr>(
    arg: Option<&String>,
    what: &str,
    default: T,
) -> Result<T, String> {
    match arg {
        None => Ok(default),
        Some(s) => s.parse().map_err(|_| format!("{what} {s:?} is not a non-negative integer")),
    }
}

/// The telemetry flags [`telemetry_args`] reads; every binary accepts them.
const TELEMETRY_FLAGS: [&str; 2] = ["--metrics-out", "--trace-out"];

/// What the command line asks for, once its flags are known good.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlagCheck {
    /// Run the binary.
    Run,
    /// Print usage and stop (`--help` or `-h`).
    Help,
}

/// Check the flag names in `args` (argv without the program name) against
/// `accepted` plus the telemetry flags (`--metrics-out`, `--trace-out`).
/// `--help` or `-h` anywhere asks for usage. Every other flag takes a
/// value, as `--flag value` or `--flag=value`; positional arguments are
/// left to [`corpus_args`]. An unknown flag, or a flag missing its value,
/// is an error, so a misspelled gate flag cannot switch the gate off.
pub fn check_flag_names(
    args: impl IntoIterator<Item = String>,
    accepted: &[&str],
) -> Result<FlagCheck, String> {
    let args: Vec<String> = args.into_iter().collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        return Ok(FlagCheck::Help);
    }
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        if !arg.starts_with("--") {
            continue;
        }
        let (name, inline_value) = match arg.split_once('=') {
            Some((name, _)) => (name, true),
            None => (arg.as_str(), false),
        };
        if !accepted.contains(&name) && !TELEMETRY_FLAGS.contains(&name) {
            return Err(format!("unknown flag {name}"));
        }
        if !inline_value && args.next().is_none() {
            return Err(format!("{name} needs a value"));
        }
    }
    Ok(FlagCheck::Run)
}

/// [`check_flag_names`] over this process's argv: on `--help` print
/// `usage` and exit 0; on a bad flag print the problem and `usage` to
/// stderr and exit 2. Call it first in `main`, before any work starts.
pub fn accept_flags(usage: &str, accepted: &[&str]) {
    match check_flag_names(std::env::args().skip(1), accepted) {
        Ok(FlagCheck::Run) => {}
        Ok(FlagCheck::Help) => {
            println!("{usage}");
            std::process::exit(0);
        }
        Err(problem) => {
            eprintln!("error: {problem}\n{usage}");
            std::process::exit(2);
        }
    }
}

/// Telemetry wiring resolved from argv and environment; dropping the guard
/// (end of `main`) writes the metrics snapshot and flushes the trace sink.
///
/// Keep it bound to a name — `let _telemetry = telemetry_args();` — so it
/// lives for the whole run; `let _ =` would drop it immediately.
#[derive(Debug)]
pub struct TelemetryGuard {
    metrics_out: Option<PathBuf>,
}

impl Drop for TelemetryGuard {
    fn drop(&mut self) {
        if let Some(path) = &self.metrics_out {
            match telemetry::write_global_snapshot(path) {
                Ok(()) => eprintln!("telemetry: wrote metrics snapshot to {}", path.display()),
                Err(e) => eprintln!("telemetry: failed to write {}: {e}", path.display()),
            }
        }
        telemetry::trace::flush_collector();
    }
}

/// Resolve the shared telemetry CLI surface every bench binary exposes:
/// apply the `UNICERT_METRICS*` / `UNICERT_TRACE*` environment gates, then
/// layer `--metrics-out <path>` / `--trace-out <path>` (also `=`-joined)
/// on top — flags win over environment. Either flag implies the matching
/// subsystem on.
pub fn telemetry_args() -> TelemetryGuard {
    // Strict env handling for binaries (DESIGN.md §14 satellite rule):
    // a malformed UNICERT_* variable is a usage error in every harness
    // binary, not a silent library fallback.
    if let Err(problems) = unicert::lint::RunOptions::validate_env() {
        eprintln!("error: invalid environment:\n{problems}");
        std::process::exit(2);
    }
    let env = telemetry::init_from_env();
    let mut metrics_out = env.metrics_out;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let (flag, inline) = match arg.split_once('=') {
            Some((f, v)) => (f.to_owned(), Some(v.to_owned())),
            None => (arg, None),
        };
        let mut value = || inline.clone().or_else(|| args.next()).filter(|v| !v.is_empty());
        match flag.as_str() {
            "--metrics-out" => {
                if let Some(path) = value() {
                    telemetry::set_metrics_enabled(true);
                    metrics_out = Some(PathBuf::from(path));
                }
            }
            "--trace-out" => {
                if let Some(path) = value() {
                    if telemetry::trace::trace_level() == telemetry::TraceLevel::Off {
                        telemetry::trace::set_trace_level(telemetry::TraceLevel::Spans);
                    }
                    match telemetry::NdjsonSink::create(std::path::Path::new(&path)) {
                        Ok(sink) => telemetry::trace::install_collector(std::sync::Arc::new(sink)),
                        Err(e) => eprintln!("telemetry: cannot open trace sink {path}: {e}"),
                    }
                }
            }
            _ => {}
        }
    }
    TelemetryGuard { metrics_out }
}

/// Run the standard survey over a fresh corpus.
///
/// Uses the sharded parallel pipeline (sized by `UNICERT_THREADS` or the
/// machine, see `RunOptions::effective_threads`); by the determinism
/// guarantee its report is byte-identical to the serial pass, so every
/// table/figure binary inherits the speedup without output drift.
pub fn standard_survey(config: CorpusConfig) -> SurveyReport {
    survey::run_parallel(CorpusGenerator::new(config), SurveyOptions::default())
}

/// Resolve the value of one `--flag value` / `--flag=value` argument pair
/// from argv, composing with [`corpus_args`]' positional parsing (which
/// skips all flags).
pub fn flag_arg(name: &str) -> Option<String> {
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let (flag, inline) = match arg.split_once('=') {
            Some((f, v)) => (f.to_owned(), Some(v.to_owned())),
            None => (arg, None),
        };
        if flag == name {
            return inline.or_else(|| args.next()).filter(|v| !v.is_empty());
        }
    }
    None
}

/// Format a rate as `x.xx%`.
pub fn pct(part: usize, whole: usize) -> String {
    if whole == 0 {
        "0.00%".into()
    } else {
        format!("{:.2}%", 100.0 * part as f64 / whole as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<CorpusConfig, String> {
        parse_corpus_args(args.iter().map(|a| a.to_string()), 100_000)
    }

    #[test]
    fn corpus_args_take_defaults_values_and_skip_flags() {
        let config = parse(&[]).unwrap();
        assert_eq!((config.size, config.seed), (100_000, 42));
        let config = parse(&["--baseline", "b.json", "20000", "--min-speedup=2", "7"]).unwrap();
        assert_eq!((config.size, config.seed), (20_000, 7));
    }

    fn certs_seed(args: &[&str]) -> Result<(usize, u64), String> {
        parse_certs_seed(args.iter().map(|a| a.to_string()), 2_000)
    }

    #[test]
    fn certs_seed_take_defaults_values_and_skip_other_flags() {
        assert_eq!(certs_seed(&[]), Ok((2_000, 42)));
        assert_eq!(certs_seed(&["--certs", "500", "--seed=7"]), Ok((500, 7)));
        let args = ["--metrics-out", "m.json", "--seed", "9", "--certs=10"];
        assert_eq!(certs_seed(&args), Ok((10, 9)));
    }

    #[test]
    fn certs_seed_reject_malformed_values() {
        let err = certs_seed(&["--certs", "10k"]).unwrap_err();
        assert!(err.contains("--certs") && err.contains("10k"), "{err}");
        let err = certs_seed(&["--seed=x"]).unwrap_err();
        assert!(err.contains("--seed"), "{err}");
        assert!(certs_seed(&["--seed", "-1"]).is_err());
        assert!(certs_seed(&["--certs="]).is_err());
    }

    fn check(args: &[&str]) -> Result<FlagCheck, String> {
        check_flag_names(args.iter().map(|a| a.to_string()), &["--baseline", "--min-speedup"])
    }

    #[test]
    fn flag_check_accepts_known_flags_in_both_forms() {
        assert_eq!(check(&[]), Ok(FlagCheck::Run));
        let args = ["20000", "42", "--baseline", "b.json", "--min-speedup=2.0"];
        assert_eq!(check(&args), Ok(FlagCheck::Run));
        assert_eq!(check(&["--metrics-out", "m.json", "--trace-out=t.ndjson"]), Ok(FlagCheck::Run));
        // A value that looks like a flag belongs to the flag before it.
        assert_eq!(check(&["--baseline", "--odd-file-name"]), Ok(FlagCheck::Run));
    }

    #[test]
    fn flag_check_rejects_unknown_or_valueless_flags() {
        let err = check(&["10", "1", "--min-speedp", "2.0"]).unwrap_err();
        assert!(err.contains("--min-speedp"), "{err}");
        let err = check(&["--min-speedp=2.0"]).unwrap_err();
        assert!(err.contains("--min-speedp"), "{err}");
        let err = check(&["--baseline"]).unwrap_err();
        assert!(err.contains("needs a value"), "{err}");
    }

    #[test]
    fn flag_check_help_wins() {
        assert_eq!(check(&["--help"]), Ok(FlagCheck::Help));
        assert_eq!(check(&["20000", "-h"]), Ok(FlagCheck::Help));
        assert_eq!(check(&["--bogus", "x", "--help"]), Ok(FlagCheck::Help));
    }

    #[test]
    fn corpus_args_reject_non_numeric_size_or_seed() {
        let err = parse(&["20k"]).unwrap_err();
        assert!(err.contains("corpus size \"20k\""), "{err}");
        let err = parse(&["20000", "seven"]).unwrap_err();
        assert!(err.contains("seed \"seven\""), "{err}");
        assert!(parse(&["-5"]).is_err());
    }
}
