//! E-T5 — regenerate **Table 5**: standard violations in parsing DN and
//! GN (illegal-character acceptance and non-standard escaping).
//!
//! Legend: ○ no violation · ⊙ unexploited violations · ⊗ exploited ·
//! `-` not considered (no API / structured output / incompatible decoding).

use unicert::asn1::StringKind;
use unicert::parsers::{all_profiles, escaping, Field};
use unicert::x509::EscapingStandard;
use unicert_bench::table;

const USAGE: &str = "usage: table5_violations [--metrics-out <path>] [--trace-out <path>]";

fn main() {
    unicert_bench::accept_flags(USAGE, &[]);
    let _telemetry = unicert_bench::telemetry_args();
    let profiles = all_profiles();
    let mut headers: Vec<&str> = vec!["Standard violation"];
    let names: Vec<&'static str> = profiles.iter().map(|p| p.name()).collect();
    headers.extend(names.iter().copied());

    let mut rows = Vec::new();

    // Illegal characters in DN, per string type.
    for (label, kind) in [
        ("Illegal chars in DN: PrintableString", StringKind::Printable),
        ("Illegal chars in DN: IA5String", StringKind::Ia5),
        ("Illegal chars in DN: BMPString", StringKind::Bmp),
    ] {
        let mut row = vec![label.to_string()];
        for p in &profiles {
            row.push(
                escaping::illegal_char_verdict(p.as_ref(), kind, Field::SubjectDn)
                    .symbol()
                    .to_string(),
            );
        }
        rows.push(row);
    }
    // Illegal characters in GN (IA5String).
    let mut row = vec!["Illegal chars in GN: IA5String".to_string()];
    for p in &profiles {
        row.push(
            escaping::illegal_char_verdict(p.as_ref(), StringKind::Ia5, Field::SanDns)
                .symbol()
                .to_string(),
        );
    }
    rows.push(row);

    // Non-standard escaping in DN, per DN-string RFC.
    for (label, std) in [
        ("DN escaping vs RFC 2253", EscapingStandard::Rfc2253),
        ("DN escaping vs RFC 4514", EscapingStandard::Rfc4514),
        ("DN escaping vs RFC 1779", EscapingStandard::Rfc1779),
    ] {
        let mut row = vec![label.to_string()];
        for p in &profiles {
            row.push(escaping::dn_escaping_verdict(p.as_ref(), std).symbol().to_string());
        }
        rows.push(row);
    }
    // Non-standard escaping in GN.
    let mut row = vec!["GN escaping (X.509 text form)".to_string()];
    for p in &profiles {
        row.push(escaping::gn_escaping_verdict(p.as_ref()).symbol().to_string());
    }
    rows.push(row);

    println!("Table 5 — Standard violations in parsing DN and GN");
    println!("{}", table::render(&headers, &rows));
    println!("paper anchors: no library enforces every character check; OpenSSL's DN");
    println!("escaping and PyOpenSSL's GN escaping are the two exploited (⊗) cells.");
}
