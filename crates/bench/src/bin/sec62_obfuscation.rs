//! E-S6.2 — the §6.2 traffic-obfuscation experiment: crafted Unicerts vs
//! middlebox engines (P2.1) and client SAN-format checks (P2.2).

use unicert::threats::{all_clients, run_obfuscation_experiment, ClientOutcome};
use unicert_bench::table;

const USAGE: &str = "usage: sec62_obfuscation [--metrics-out <path>] [--trace-out <path>]";

fn main() {
    unicert_bench::accept_flags(USAGE, &[]);
    let _telemetry = unicert_bench::telemetry_args();
    println!("§6.2 P2.1 — blocklist evasion against middlebox engines");
    let results = run_obfuscation_experiment();
    let mut techniques: Vec<&str> = results.iter().map(|(t, _, _)| *t).collect();
    techniques.dedup();
    let engines = ["Snort", "Suricata", "Zeek"];
    let mut headers = vec!["Technique"];
    headers.extend(engines);
    let rows: Vec<Vec<String>> = techniques
        .iter()
        .map(|t| {
            let mut row = vec![t.to_string()];
            for e in engines {
                let caught = results
                    .iter()
                    .find(|(rt, re, _)| rt == t && *re == e)
                    .map(|(_, _, c)| *c)
                    .unwrap_or(false);
                row.push(if caught { "caught".into() } else { "EVADED".into() });
            }
            row
        })
        .collect();
    println!("{}", table::render(&headers, &rows));

    println!("§6.2 P2.2 — client SAN format checks (U-label SAN for münchen.de)");
    let cert = unicert::x509::CertificateBuilder::new()
        .add_san(unicert::x509::GeneralName::DnsName(
            unicert::x509::RawValue::from_raw(
                unicert::asn1::StringKind::Ia5,
                "münchen.de".as_bytes(),
            ),
        ))
        .validity_days(unicert::asn1::DateTime::date(2024, 8, 1).expect("static"), 90)
        .build_signed(&unicert::x509::SimKey::from_seed("sec62-ca"));
    let rows: Vec<Vec<String>> = all_clients()
        .iter()
        .map(|c| {
            vec![
                c.name.to_string(),
                format!("{:?}", c.validate(&cert, "münchen.de")),
            ]
        })
        .collect();
    println!("{}", table::render(&["Client", "Outcome"], &rows));
    let accepted = all_clients()
        .iter()
        .filter(|c| c.validate(&cert, "münchen.de") == ClientOutcome::Accepted)
        .count();
    println!("paper anchors: NUL/case/duplicate-CN tricks evade naive rules; urllib3-family");
    println!("clients ({accepted} of 4 here) accept noncompliant U-label SANs.");
}
