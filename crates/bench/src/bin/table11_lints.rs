//! E-T11 — regenerate **Table 11**: top 25 lints identifying noncompliant
//! cases, with type, novelty, and severity.

use unicert_bench::table;

const USAGE: &str = "usage: table11_lints [size] [seed] \
[--metrics-out <path>] [--trace-out <path>]";

fn main() {
    unicert_bench::accept_flags(USAGE, &[]);
    let _telemetry = unicert_bench::telemetry_args();
    let config = unicert_bench::corpus_args(100_000);
    eprintln!("corpus: {} Unicerts (seed {})", config.size, config.seed);
    let report = unicert_bench::standard_survey(config);
    let registry = unicert::corpus::lint_registry();

    let mut lints: Vec<(&str, usize)> = report.by_lint.iter().map(|(l, &n)| (*l, n)).collect();
    lints.sort_by_key(|&(_, n)| std::cmp::Reverse(n));

    let rows: Vec<Vec<String>> = lints
        .iter()
        .take(25)
        .map(|&(name, count)| {
            let lint = registry.get(name).expect("registered lint");
            vec![
                name.to_string(),
                lint.nc_type.label().to_string(),
                if lint.new_lint { "✓".into() } else { String::new() },
                format!("{:?}", lint.severity),
                lint.source.label().to_string(),
                count.to_string(),
            ]
        })
        .collect();

    println!("Table 11 — Top lints identifying noncompliant cases");
    println!(
        "{}",
        table::render(&["Lint name", "Type", "New", "Level", "Source", "#NC Unicerts"], &rows)
    );
    println!(
        "registry: {} lints, {} new  [paper: 95 lints, 50 new; top lint w_rfc_ext_cp_explicit_text_not_utf8 at 117,471]",
        registry.lints().len(),
        registry.lints().iter().filter(|l| l.new_lint).count()
    );
}
