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

    #[test]
    fn corpus_args_reject_non_numeric_size_or_seed() {
        let err = parse(&["20k"]).unwrap_err();
        assert!(err.contains("corpus size \"20k\""), "{err}");
        let err = parse(&["20000", "seven"]).unwrap_err();
        assert!(err.contains("seed \"seven\""), "{err}");
        assert!(parse(&["-5"]).is_err());
    }
}
