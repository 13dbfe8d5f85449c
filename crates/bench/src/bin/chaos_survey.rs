//! Fault-injection robustness benchmark (DESIGN.md §9).
//!
//! Generates a corpus, applies every [`MutationClass`] to every
//! certificate, and drives the mutated DER through the survey's
//! hostile-input path. Emits `BENCH_robustness.json` with the mutation
//! class × parse-outcome matrix, per-class wall time, and the quarantine
//! tally — and asserts the robustness invariants along the way:
//!
//! * **zero escaped panics** — the process finishing *is* the proof; every
//!   contained panic shows up in the quarantine column instead;
//! * **determinism** — the combined hostile batch produces byte-identical
//!   reports (quarantine lists included) serially and at 1/2/4/8 worker
//!   threads; any divergence exits non-zero.
//!
//! ```text
//! cargo run --release -p unicert-bench --bin chaos_survey -- \
//!     [--certs 10000] [--seed 42] [--metrics-out m.json]
//! ```

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::fmt::Write as _;

use unicert::asn1::ParseBudget;
use unicert::corpus::{CorpusConfig, CorpusGenerator};
use unicert::lint::RunOptions;
use unicert::survey::{self, SurveyOptions};
use unicert::telemetry::{self, Stopwatch};
use unicert_chaos::{MutationClass, Mutator};

struct ClassRow {
    class: &'static str,
    outcomes: BTreeMap<&'static str, usize>,
    quarantined: usize,
    secs: f64,
}

const USAGE: &str = "usage: chaos_survey [--certs <n>] [--seed <s>] \
[--metrics-out <path>] [--trace-out <path>]";

fn main() {
    unicert_bench::accept_flags(USAGE, &["--certs", "--seed"]);
    let _telemetry = unicert_bench::telemetry_args();
    let (certs, seed) = unicert_bench::certs_seed_args(10_000);
    eprintln!("chaos_survey: generating corpus size={certs} seed={seed} ...");
    let corpus: Vec<Vec<u8>> = CorpusGenerator::new(CorpusConfig {
        size: certs,
        seed,
        precert_fraction: 0.0,
        latent_defects: true,
    })
    .map(|e| e.cert.raw)
    .collect();

    let budget = ParseBudget::default();
    let total = Stopwatch::start();
    let mut rows = Vec::new();
    let mut combined: Vec<Vec<u8>> = Vec::with_capacity(corpus.len() * MutationClass::ALL.len());

    for (class_idx, class) in MutationClass::ALL.into_iter().enumerate() {
        // Per-class seeding keeps every row independently reproducible
        // from (seed, class) alone.
        let mut mutator = Mutator::new(seed.wrapping_add(class_idx as u64));
        let hostile: Vec<Vec<u8>> =
            corpus.iter().map(|der| mutator.mutate(der, class)).collect();

        let watch = Stopwatch::start();
        let report = survey::run_bytes(&hostile, SurveyOptions::default(), &budget);
        let nanos = watch.elapsed_nanos();
        telemetry::global().gauge("bench.wall_ns", &format!("chaos:{}", class.label())).set(nanos);

        let secs = nanos as f64 / 1e9;
        let ok = report.parse_outcomes.get("ok").copied().unwrap_or(0);
        println!(
            "{:<18} {:>8} inputs  {:>7} parsed  {:>4} quarantined  {:>8.3}s",
            class.label(),
            hostile.len(),
            ok,
            report.quarantine.len(),
            secs
        );
        rows.push(ClassRow {
            class: class.label(),
            outcomes: report.parse_outcomes.iter().map(|(k, v)| (*k, *v)).collect(),
            quarantined: report.quarantine.len(),
            secs,
        });
        combined.extend(hostile);
    }

    // Determinism gate: the combined hostile batch, serial vs. sharded.
    eprintln!("chaos_survey: determinism check over {} inputs ...", combined.len());
    let serial = survey::run_bytes(&combined, SurveyOptions::default(), &budget);
    let thread_counts = [1usize, 2, 4, 8];
    for threads in thread_counts {
        let opts = SurveyOptions {
            lint: RunOptions { threads: Some(threads), ..RunOptions::default() },
            ..SurveyOptions::default()
        };
        let parallel = survey::run_parallel_bytes(&combined, opts, &budget);
        assert_eq!(
            serial, parallel,
            "threads={threads}: hostile-input report diverged from the serial baseline"
        );
        println!("determinism         threads={threads}: byte-identical (incl. quarantine)");
    }
    let total_secs = total.elapsed_nanos() as f64 / 1e9;

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"benchmark\": \"chaos_survey_robustness\",");
    let _ = writeln!(json, "  \"certs\": {certs},");
    let _ = writeln!(json, "  \"seed\": {seed},");
    let _ = writeln!(json, "  \"panics_escaped\": 0,");
    let _ = writeln!(json, "  \"classes\": [");
    for (i, row) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let mut outcomes = String::new();
        for (j, (class, n)) in row.outcomes.iter().enumerate() {
            let sep = if j + 1 < row.outcomes.len() { ", " } else { "" };
            let _ = write!(outcomes, "\"{class}\": {n}{sep}");
        }
        let _ = writeln!(
            json,
            "    {{\"class\": \"{}\", \"outcomes\": {{{}}}, \"quarantined\": {}, \"secs\": {:.6}}}{comma}",
            row.class, outcomes, row.quarantined, row.secs
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(
        json,
        "  \"determinism\": {{\"threads\": [1, 2, 4, 8], \"identical\": true}},"
    );
    let _ = writeln!(json, "  \"total_secs\": {total_secs:.6}");
    let _ = writeln!(json, "}}");

    std::fs::write("BENCH_robustness.json", &json).expect("write BENCH_robustness.json");
    println!("wrote BENCH_robustness.json ({total_secs:.1}s total)");

    let quarantined_total: usize = serial.quarantine.len();
    println!(
        "survived {} hostile inputs: 0 escaped panics, {} quarantined",
        combined.len(),
        quarantined_total
    );
}
