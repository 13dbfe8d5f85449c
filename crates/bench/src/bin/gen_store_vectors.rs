//! Regenerate the golden corrupt-store set under `tests/vectors/store/`.
//!
//! One directory per corruption class, each a frozen 12-certificate store
//! (seed 4242, shard size 4 → 3 shards) with exactly one artifact damaged
//! by the matching `unicert_chaos::fsfault` injector (seed 20250809):
//!
//! ```text
//! clean/            untouched store — the control
//! torn_write/       shard-00001.seg truncated mid-body
//! bit_rot/          shard-00001.seg with flipped bits
//! version_skew/     shard-00001.seg header version bumped
//! manifest_tamper/  store.manifest with one digit rewritten
//! ```
//!
//! `manifest.tsv` records, per directory, the injected fault and the
//! behavior the store layer must exhibit (`tests/store_vectors.rs` pins
//! it). Construction is deterministic — corpus generation, segment
//! encoding, and every injector are pure functions of their seeds — so
//! rerunning is a no-op diff unless the format or the injectors changed.
//!
//! Usage: `cargo run -p unicert-bench --bin gen_store_vectors [outdir]`
//! (default outdir: `tests/vectors/store`).

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use unicert::corpus::{CorpusConfig, CorpusEntry, CorpusGenerator};
use unicert_chaos::StoreFault;
use unicert_store::CorpusStore;

/// Corpus shape of every vector store: small enough to commit, large
/// enough for three shards with the middle one the victim.
const CERTS: usize = 12;
const SEED: u64 = 4242;
const SHARD_SIZE: usize = 4;
/// Injection seed (the generation date — any fixed value works).
const FAULT_SEED: u64 = 20_250_809;

struct Vector {
    dir: &'static str,
    fault: Option<StoreFault>,
    /// File the fault targets, relative to the store directory.
    target: &'static str,
    /// Behavior `tests/store_vectors.rs` pins: `ok`, a corruption class
    /// the damaged shard must classify as, or `manifest_rebuilt`.
    expected: &'static str,
}

const VECTORS: [Vector; 5] = [
    Vector { dir: "clean", fault: None, target: "-", expected: "ok" },
    Vector {
        dir: "torn_write",
        fault: Some(StoreFault::TornWrite),
        target: "shard-00001.seg",
        expected: "torn_write",
    },
    Vector {
        dir: "bit_rot",
        fault: Some(StoreFault::BitRot),
        target: "shard-00001.seg",
        expected: "fingerprint_mismatch",
    },
    Vector {
        dir: "version_skew",
        fault: Some(StoreFault::VersionSkew),
        target: "shard-00001.seg",
        expected: "version_skew",
    },
    Vector {
        dir: "manifest_tamper",
        fault: Some(StoreFault::Tamper),
        target: "store.manifest",
        expected: "manifest_rebuilt",
    },
];

const USAGE: &str = "usage: gen_store_vectors [outdir]";

fn main() {
    unicert_bench::accept_flags(USAGE, &[]);
    if let Err(e) = run() {
        eprintln!("gen_store_vectors: {e}");
        std::process::exit(1);
    }
}

fn freeze_store(dir: &Path, entries: &[CorpusEntry]) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
    }
    CorpusStore::freeze(dir, entries, SHARD_SIZE)
        .map_err(|e| format!("freeze {}: {e}", dir.display()))?;
    Ok(())
}

fn run() -> Result<(), String> {
    let outdir: PathBuf = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "tests/vectors/store".to_string())
        .into();
    std::fs::create_dir_all(&outdir)
        .map_err(|e| format!("create {}: {e}", outdir.display()))?;

    let entries: Vec<CorpusEntry> = CorpusGenerator::new(CorpusConfig {
        size: CERTS,
        seed: SEED,
        precert_fraction: 0.0,
        latent_defects: true,
    })
    .collect();

    let mut manifest = String::from("# dir\tfault\ttarget\texpected\n");
    for v in VECTORS {
        let dir = outdir.join(v.dir);
        freeze_store(&dir, &entries)?;
        let fault_label = match v.fault {
            Some(fault) => {
                let target = dir.join(v.target);
                let desc = unicert_chaos::fsfault::inject(&target, fault, FAULT_SEED)
                    .map_err(|e| format!("inject {} into {}: {e}", fault.label(), target.display()))?;
                println!("{}: {desc}", v.dir);
                fault.label()
            }
            None => {
                println!("{}: no fault (control)", v.dir);
                "-"
            }
        };
        let _ = writeln!(manifest, "{}\t{fault_label}\t{}\t{}", v.dir, v.target, v.expected);
    }
    let manifest_path = outdir.join("manifest.tsv");
    std::fs::write(&manifest_path, manifest)
        .map_err(|e| format!("write {}: {e}", manifest_path.display()))?;
    println!("wrote {}", manifest_path.display());
    Ok(())
}
