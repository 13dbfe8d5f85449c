//! E-T3 — regenerate **Table 3**: value variant strategies in Subject
//! fields, with generated examples per strategy.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use unicert::corpus::variants::{generate_pairs, VariantStrategy};
use unicert::unicode::classify::visualize;
use unicert_bench::table;

const USAGE: &str = "usage: table3_variants [--metrics-out <path>] [--trace-out <path>]";

fn main() {
    unicert_bench::accept_flags(USAGE, &[]);
    let _telemetry = unicert_bench::telemetry_args();
    let mut rng = SmallRng::seed_from_u64(42);
    let bases = [
        "Samco Autotechnik GmbH",
        "NOWOCZESNASTODOŁA.PL SP. Z O.O.",
        "SKAT Elektroniks Ltd.",
        "RWE Energie, s.r.o.",
        "Peddy Shield",
        "株式会社 中国銀行",
        "EDP - Energias de Portugal, S.A",
        "Vegas.XXX (VegasLLC)",
        "crossmedia:team GmbH",
        "Störi AG",
    ];
    let pairs = generate_pairs(&mut rng, &bases, 2);

    let mut rows = Vec::new();
    for strategy in VariantStrategy::ALL {
        for p in pairs.iter().filter(|p| p.strategy == strategy).take(2) {
            rows.push(vec![
                strategy.label().to_string(),
                visualize(&p.base),
                visualize(&p.variant),
            ]);
        }
    }
    println!("Table 3 — Value variant strategies in Subject fields");
    println!("{}", table::render(&["Variant Strategy", "Base", "Variant"], &rows));
    println!(
        "{} strategies × {} pairs generated; every variant differs byte-wise from its base.",
        VariantStrategy::ALL.len(),
        pairs.len()
    );
}
