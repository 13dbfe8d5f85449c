//! E-T4 — regenerate **Table 4**: decoding methods for DN and GN across
//! the nine TLS libraries, inferred differentially.
//!
//! Legend: ○ no decoding errors · ◐ over-tolerant · ⊗ incompatible ·
//! ⊙ modified · `-` not supported by the tested APIs.

use unicert::asn1::StringKind;
use unicert::parsers::{all_profiles, infer, Field, Inference};
use unicert_bench::table;

const USAGE: &str = "usage: table4_decoding [--metrics-out <path>] [--trace-out <path>]";

fn main() {
    unicert_bench::accept_flags(USAGE, &[]);
    let _telemetry = unicert_bench::telemetry_args();
    let profiles = all_profiles();
    let scenarios: [(&str, StringKind, Field); 5] = [
        ("PrintableString in Name", StringKind::Printable, Field::SubjectDn),
        ("IA5String in Name", StringKind::Ia5, Field::SubjectDn),
        ("BMPString in Name", StringKind::Bmp, Field::SubjectDn),
        ("UTF8String in Name", StringKind::Utf8, Field::SubjectDn),
        ("IA5String in GN", StringKind::Ia5, Field::SanDns),
    ];

    let mut headers: Vec<&str> = vec!["Encoding scenario"];
    let names: Vec<&'static str> = profiles.iter().map(|p| p.name()).collect();
    headers.extend(names.iter().copied());

    let mut rows = Vec::new();
    for (label, kind, field) in scenarios {
        let mut row = vec![label.to_string()];
        for p in &profiles {
            row.push(match infer(p.as_ref(), kind, field) {
                Inference::Unsupported => "-".into(),
                Inference::Unexplained => "?".into(),
                Inference::Inferred { method_name, flags, .. } => {
                    format!("{method_name} {}", flags.symbol())
                }
            });
        }
        rows.push(row);
    }

    println!("Table 4 — Decoding methods for DN and GN (inferred)");
    println!("{}", table::render(&headers, &rows));
    println!("paper anchors: GnuTLS decodes all DN types with UTF-8 (◐);");
    println!("Forge decodes UTF8String with ISO-8859-1 (⊗); OpenSSL/Java modify with escapes/U+FFFD (⊙).");
}
