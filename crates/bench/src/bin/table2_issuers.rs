//! E-T2 — regenerate **Table 2**: top 10 issuer organization names by
//! noncompliant Unicerts.

use unicert::corpus::TrustStatus;
use unicert_bench::table;

fn trust_mark(t: TrustStatus) -> &'static str {
    match t {
        TrustStatus::Public => "●",
        TrustStatus::Regional => "◐",
        TrustStatus::Untrusted => "○",
    }
}

const USAGE: &str = "usage: table2_issuers [size] [seed] \
[--metrics-out <path>] [--trace-out <path>]";

fn main() {
    unicert_bench::accept_flags(USAGE, &[]);
    let _telemetry = unicert_bench::telemetry_args();
    let config = unicert_bench::corpus_args(100_000);
    eprintln!("corpus: {} Unicerts (seed {})", config.size, config.seed);
    let report = unicert_bench::standard_survey(config);

    let mut issuers: Vec<_> = report.by_issuer.iter().collect();
    issuers.sort_by_key(|(_, s)| std::cmp::Reverse(s.noncompliant));

    let mut rows = Vec::new();
    let mut shown_nc = 0;
    for (org, s) in issuers.iter().take(10) {
        shown_nc += s.noncompliant;
        rows.push(vec![
            org.to_string(),
            trust_mark(s.trust).to_string(),
            format!("{} ({})", s.noncompliant, unicert_bench::pct(s.noncompliant, s.total)),
            s.recent_noncompliant.to_string(),
        ]);
    }
    let other_nc = report.noncompliant - shown_nc;
    rows.push(vec![
        "Other".into(),
        "-".into(),
        other_nc.to_string(),
        String::new(),
    ]);
    rows.push(vec![
        "Total".into(),
        "-".into(),
        format!(
            "{} ({})",
            report.noncompliant,
            unicert_bench::pct(report.noncompliant, report.total)
        ),
        String::new(),
    ]);

    println!("Table 2 — Top 10 issuer organization names by noncompliant Unicerts");
    println!(
        "{}",
        table::render(&["IssuerOrganizationName", "Trust", "Noncompliant", "Recent"], &rows)
    );
    println!("paper anchors: Česká pošta 96.39%, Symantec 51.47%, Let's Encrypt 0.06%, total 0.72%");
}
