//! E-T14 — regenerate **Table 14**: certificate visualization and spoofing
//! feasibility in mainstream browsers (Appendix F.1), including the Fig. 7
//! RLO warning-page spoof.

use unicert::asn1::DateTime;
use unicert::threats::all_browsers;
use unicert::threats::browser::ControlRendering;
use unicert::x509::{CertificateBuilder, SimKey};
use unicert_bench::table;

const USAGE: &str = "usage: table14_browsers [--metrics-out <path>] [--trace-out <path>]";

fn main() {
    unicert_bench::accept_flags(USAGE, &[]);
    let _telemetry = unicert_bench::telemetry_args();
    println!("Table 14 — Certificate visualization and potential spoofing issues");
    let crafted = "www.\u{202E}lapyap\u{202C}.com";
    let rows: Vec<Vec<String>> = all_browsers()
        .iter()
        .map(|b| {
            vec![
                b.name.to_string(),
                b.engine.to_string(),
                match b.control_rendering {
                    ControlRendering::VisibleMarkers => "visible (●)".into(),
                    ControlRendering::Raw => "raw (Ø)".into(),
                },
                if b.layout_controls_invisible { "invisible (Ø)".into() } else { "visible".into() },
                if b.detects_homographs { "detected".into() } else { "feasible (✓)".into() },
                if b.incorrect_substitution { "✓".into() } else { "×".into() },
                if b.flawed_range_checking { "✓".into() } else { "×".into() },
                if b.spoofable_as(crafted, "www.paypal.com") && b.warning_renders_controls {
                    "✓".into()
                } else {
                    "×".into()
                },
            ]
        })
        .collect();
    println!(
        "{}",
        table::render(
            &["Browser", "Engine", "C0/C1", "Layout ctrls", "Homograph", "Bad subst", "Flawed range chk", "Warning spoof"],
            &rows
        )
    );

    println!("Fig. 7 — the Chromium warning-page spoof, end to end:");
    let cert = CertificateBuilder::new()
        .subject_cn(crafted)
        .validity_days(DateTime::date(2024, 8, 1).expect("static"), 90)
        .build_signed(&SimKey::from_seed("spoof-ca"));
    for b in all_browsers() {
        println!(
            "  {:<9} warning page shows: {:?}",
            b.name,
            b.warning_identity(&cert)
        );
    }
    println!("paper anchors: layout controls invisible everywhere; homographs undetected");
    println!("everywhere; Chromium warning pages render the RLO spoof as www.paypal.com.");
}
