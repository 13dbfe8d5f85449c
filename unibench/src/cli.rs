//! Command-line entry: argument and environment checks, the run, the
//! report file and the result line.

use crate::args::{forbidden_env, parse, Command, USAGE};
use crate::json::Json;
use crate::run::{end_to_end, traced, Outcome, RunConfig};
use crate::sysinfo::{LoadSnapshot, Manifest};
use crate::workload::Sizes;
use std::path::{Path, PathBuf};

/// Directory, relative to the working directory, for reports, spans and
/// the store's scratch files.
const OUT_DIR: &str = ".unibench";

/// Removes the store's scratch directory however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_line(outcome: &Outcome) -> String {
    let metrics = outcome.metrics.iter().map(|m| {
        (
            m.name,
            Json::obj([
                ("value", Json::Num(m.summary.value)),
                ("unit", Json::Str(m.unit.into())),
            ]),
        )
    });
    Json::obj([
        ("correct", Json::Bool(outcome.correct)),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ])
    .to_string()
}

fn report_json(
    outcome: &Outcome,
    manifest: &Manifest,
    workload: &str,
    seed: u64,
    trace: bool,
) -> Json {
    let mut pairs = vec![
        ("workload", Json::Str(workload.to_string())),
        ("seed", Json::Num(seed as f64)),
        ("trace", Json::Bool(trace)),
        ("manifest", manifest.to_json()),
        ("correct", Json::Bool(outcome.correct)),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("fail_frac", Json::Num(outcome.fail_frac())),
        (
            "metrics",
            Json::obj(
                outcome
                    .metrics
                    .iter()
                    .map(|m| (m.name, m.summary.to_json(m.unit))),
            ),
        ),
    ];
    pairs.extend(outcome.details.iter().cloned());
    Json::obj(pairs)
}

/// Run the command line; returns the exit status.
pub fn main(argv: &[String]) -> i32 {
    let args = match parse(argv) {
        Ok(Command::Help) => {
            println!("{USAGE}");
            return 0;
        }
        Ok(Command::Run(args)) => args,
        Err(e) => {
            eprintln!("unibench: {e}\n\n{USAGE}");
            return 2;
        }
    };
    let set = forbidden_env();
    if !set.is_empty() {
        eprintln!(
            "unibench: {} set; the benchmark pins every UNICERT_* setting itself, unset them",
            set.join(", ")
        );
        return 2;
    }
    if !Path::new("BENCHMARK.json").is_file() || !Path::new("crates").is_dir() {
        eprintln!("unibench: run from the root of the repository checkout");
        return 2;
    }
    let out = Path::new(OUT_DIR);
    if let Err(e) = std::fs::create_dir_all(out) {
        eprintln!("unibench: creating {OUT_DIR}: {e}");
        return 3;
    }
    let work = WorkDir(out.join(format!("work-{}", std::process::id())));
    let mut manifest = Manifest::collect(Path::new("."));
    let name = args.workload.name();
    let cfg = RunConfig {
        kind: args.workload,
        seed: args.seed,
        seconds: args.seconds as f64,
        sizes: Sizes::STANDARD,
        threads: manifest.nproc,
        setup_reps: 7,
        min_passes: 3,
        work: work.0.clone(),
    };
    let result = if args.trace {
        traced(&cfg).and_then(|(outcome, tracer)| {
            let path = out.join(format!("spans-{name}.tsv"));
            tracer
                .write_tsv(&path)
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
            Ok(outcome)
        })
    } else {
        end_to_end(&cfg, |_| {})
    };
    drop(work);
    let outcome = match result {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("unibench: {e}");
            return 3;
        }
    };
    manifest.after = Some(LoadSnapshot::now());

    let report = report_json(&outcome, &manifest, name, args.seed, args.trace);
    let path = out.join(format!(
        "{name}-seed{}-trace{}.json",
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::write(&path, format!("{report}\n")) {
        eprintln!("unibench: writing {}: {e}", path.display());
        return 3;
    }
    println!(
        "# unibench {name} seed {} trace {}",
        args.seed,
        u8::from(args.trace)
    );
    println!("# manifest {}", manifest.to_json());
    for m in &outcome.metrics {
        let s = &m.summary;
        println!(
            "# {:<38} {:>14.4} {:<8} q1 {:.4} q3 {:.4} n {}",
            m.name, s.value, m.unit, s.q1, s.q3, s.n
        );
    }
    println!(
        "# fail_frac {} ({} of {} inputs); report {}",
        outcome.fail_frac(),
        outcome.failed,
        outcome.attempted,
        path.display()
    );
    println!("{}", result_line(&outcome));
    if outcome.correct {
        0
    } else {
        1
    }
}
