//! E-F2 — regenerate **Figure 2**: issuance trend of Unicerts and
//! noncompliant Unicerts, with the "alive" series, as yearly data rows
//! (the paper plots these on a log axis).

use unicert_bench::table;

const USAGE: &str = "usage: figure2_trend [size] [seed] \
[--metrics-out <path>] [--trace-out <path>]";

fn main() {
    unicert_bench::accept_flags(USAGE, &[]);
    let _telemetry = unicert_bench::telemetry_args();
    let config = unicert_bench::corpus_args(100_000);
    eprintln!("corpus: {} Unicerts (seed {})", config.size, config.seed);
    let report = unicert_bench::standard_survey(config);

    let rows: Vec<Vec<String>> = report
        .by_year
        .iter()
        .map(|(year, s)| {
            vec![
                year.to_string(),
                s.issued.to_string(),
                s.trusted.to_string(),
                s.alive.to_string(),
                s.noncompliant.to_string(),
                s.alive_noncompliant.to_string(),
                unicert_bench::pct(s.noncompliant, s.issued.max(1)),
            ]
        })
        .collect();

    println!("Figure 2 — Issuance trend of Unicerts and noncompliant Unicerts (data)");
    println!(
        "{}",
        table::render(
            &["Year", "Issued", "Trusted", "Alive", "NC issued", "NC alive", "NC rate"],
            &rows
        )
    );
    println!("paper anchors: strong upward issuance trend since 2015; ≥97.2% of new");
    println!("issuance from trusted CAs; noncompliance rate declines over time.");
}
