//! E-T1 — regenerate **Table 1**: overview of noncompliance types.
//!
//! Columns mirror the paper: per-taxonomy lint counts (all/new), affected
//! noncompliant Unicerts, detection by new lints, severity mix, trusted /
//! recent / alive shares.

use unicert_bench::table;

const USAGE: &str = "usage: table1_taxonomy [size] [seed] \
[--metrics-out <path>] [--trace-out <path>]";

fn main() {
    unicert_bench::accept_flags(USAGE, &[]);
    let _telemetry = unicert_bench::telemetry_args();
    let config = unicert_bench::corpus_args(100_000);
    eprintln!("corpus: {} Unicerts (seed {})", config.size, config.seed);
    let report = unicert_bench::standard_survey(config);
    let registry = unicert::corpus::lint_registry();
    let lint_counts = registry.lint_counts_by_type();

    let mut rows = Vec::new();
    for nc_type in unicert::lint::NoncomplianceType::ALL {
        let (all_lints, new_lints) = lint_counts.get(&nc_type).copied().unwrap_or((0, 0));
        let stats = report.by_type.get(&nc_type).cloned().unwrap_or_default();
        rows.push(vec![
            nc_type.label().to_string(),
            format!("{all_lints} ({new_lints})"),
            table::count_pct(stats.certs, report.noncompliant),
            table::count_pct(stats.by_new_lints, stats.certs.max(1)),
            table::count_pct(stats.errors, stats.certs.max(1)),
            table::count_pct(stats.warnings, stats.certs.max(1)),
            unicert_bench::pct(stats.trusted, stats.certs.max(1)),
            table::count_pct(stats.recent, stats.certs.max(1)),
            table::count_pct(stats.alive, stats.certs.max(1)),
        ]);
    }
    rows.push(vec![
        "All".into(),
        format!("{} ({})", registry.lints().len(), registry.lints().iter().filter(|l| l.new_lint).count()),
        format!("{} (100%)", table::human(report.noncompliant)),
        table::count_pct(report.noncompliant_by_new_lints, report.noncompliant.max(1)),
        String::new(),
        String::new(),
        unicert_bench::pct(report.noncompliant_trusted, report.noncompliant.max(1)),
        String::new(),
        String::new(),
    ]);

    println!("Table 1 — Overview of noncompliance types");
    println!(
        "{}",
        table::render(
            &["Type", "#Lints (new)", "#NC Unicerts", "By new lints", "Error", "Warning", "Trusted", "Recent", "Alive"],
            &rows
        )
    );
    println!(
        "total Unicerts {} | noncompliant {} ({})  [paper: 34.8M, 249.3K (0.72%)]",
        report.total,
        report.noncompliant,
        unicert_bench::pct(report.noncompliant, report.total)
    );
}
