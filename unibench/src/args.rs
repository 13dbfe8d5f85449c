//! Strict command-line and environment handling.
//!
//! Every malformed invocation is an error (exit status 2): an unknown or
//! repeated flag, a missing or non-numeric value, a stray positional
//! argument. `--help` prints usage and runs nothing. Unlike the
//! workspace's lenient `corpus_args`, nothing is dropped silently, so a
//! typo can never turn into a different measurement.

use crate::workload::{WorkloadKind, DEFAULT_SEED};

/// Usage text for `--help` and for errors.
pub const USAGE: &str = "\
usage: unibench --workload <ct_survey|hostile_der|store_ingest> [--seed <u64>] [--seconds <1..3600>] [--trace <0|1>]

  --workload  which workload to run (required)
  --seed      input seed; the same seed gives the same inputs (default 7)
  --seconds   length of the measured phase in seconds (default 30)
  --trace     0: end-to-end metrics; 1: the separate per-layer traced run (default 0)
  --help      print this text and exit

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Exit status: 0 on a correct run,
1 when any output differs from its reference, 2 on a usage or
environment error, 3 when the run cannot go on (no result is printed).";

/// A validated invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Args {
    /// Workload to run.
    pub workload: WorkloadKind,
    /// Input seed.
    pub seed: u64,
    /// Measured-phase length in seconds.
    pub seconds: u64,
    /// Run the per-layer traced run instead of the end-to-end run.
    pub trace: bool,
}

/// What the command line asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command {
    /// Run a workload.
    Run(Args),
    /// Print usage and exit successfully.
    Help,
}

fn parse_u64(flag: &str, value: &str) -> Result<u64, String> {
    // `u64::from_str` accepts a leading `+`; demand plain digits.
    if value.is_empty() || !value.bytes().all(|b| b.is_ascii_digit()) {
        return Err(format!(
            "{flag} needs a non-negative whole number, got {value:?}"
        ));
    }
    value
        .parse()
        .map_err(|_| format!("{flag} value {value:?} is out of range"))
}

/// Parse the arguments after the program name.
pub fn parse(argv: &[String]) -> Result<Command, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        if arg == "--help" || arg == "-h" {
            return Ok(Command::Help);
        }
        let (flag, inline) = match arg.split_once('=') {
            Some((f, v)) if f.starts_with("--") => (f, Some(v.to_string())),
            _ => (arg.as_str(), None),
        };
        if !matches!(flag, "--workload" | "--seed" | "--seconds" | "--trace") {
            return Err(if flag.starts_with('-') {
                format!("unknown flag {flag:?}")
            } else {
                format!("unexpected argument {arg:?}")
            });
        }
        let value = match inline {
            Some(v) => v,
            None => it
                .next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))?,
        };
        let already = match flag {
            "--workload" => workload
                .replace(
                    WorkloadKind::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
                .is_some(),
            "--seed" => seed.replace(parse_u64(flag, &value)?).is_some(),
            "--seconds" => {
                let s = parse_u64(flag, &value)?;
                if !(1..=3600).contains(&s) {
                    return Err(format!("--seconds must be in 1..=3600, got {s}"));
                }
                seconds.replace(s).is_some()
            }
            _ => {
                let t = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                };
                trace.replace(t).is_some()
            }
        };
        if already {
            return Err(format!("{flag} given more than once"));
        }
    }
    Ok(Command::Run(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(DEFAULT_SEED),
        seconds: seconds.unwrap_or(30),
        trace: trace.unwrap_or(false),
    }))
}

/// Environment variables that would change the program being measured:
/// every `UNICERT_*` knob (thread count, shard size, profile, metrics,
/// tracing, flight recorder, crash injection). The benchmark pins all of
/// these itself, so any of them being set is an error.
pub fn forbidden_env() -> Vec<String> {
    let mut names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("UNICERT_"))
        .collect();
    names.sort();
    names
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn accepts_every_flag_in_both_forms() {
        let got = parse(&args(
            "--workload hostile_der --seed 3 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            got,
            Command::Run(Args {
                workload: WorkloadKind::HostileDer,
                seed: 3,
                seconds: 10,
                trace: true
            })
        );
        assert_eq!(parse(&args("--workload=ct_survey --seed=9")).unwrap(), {
            Command::Run(Args {
                workload: WorkloadKind::CtSurvey,
                seed: 9,
                seconds: 30,
                trace: false,
            })
        });
    }

    #[test]
    fn help_wins_and_runs_nothing() {
        assert_eq!(
            parse(&args("--workload ct_survey --help")).unwrap(),
            Command::Help
        );
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "--workload",
            "--workload ct_surveys",
            "--workload ct_survey --sed 3",
            "--workload ct_survey --seed x7",
            "--workload ct_survey --seed +7",
            "--workload ct_survey --seed -1",
            "--workload ct_survey --seconds 0",
            "--workload ct_survey --trace 2",
            "--workload ct_survey --seed 1 --seed 2",
            "--workload ct_survey extra",
        ] {
            assert!(parse(&args(bad)).is_err(), "accepted {bad:?}");
        }
    }
}
