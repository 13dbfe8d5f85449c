//! Crash-resume proof harness for the persistent corpus store.
//!
//! Freezes the standard corpus into an on-disk store, then proves the
//! incremental survey's headline invariant — a resumed run is
//! **byte-identical** to a one-shot in-memory run — across three matrices:
//!
//! 1. **Kill points.** For every shard boundary `k` and every thread count
//!    in {1, 2, 4, 8}: survey shards `0..=k`, stop, resume, and compare
//!    the merged report's fingerprint against the one-shot reference.
//! 2. **Real crashes.** For every shard boundary, spawn a subprocess with
//!    `UNICERT_CRASH_AFTER_SHARD=<k>` (hard `exit(137)` right after shard
//!    `k`'s checkpoint commits), verify it died with 137, then resume in
//!    this process and compare fingerprints.
//! 3. **Corruption classes.** For every `unicert_chaos::fsfault` class:
//!    damage a copy of the store, survey it at every thread count, and
//!    compare against an *expected* report built independently (clean
//!    shards surveyed in memory at their global offsets, the corrupt
//!    shard replaced by its quarantine entry). Manifest tamper must
//!    rebuild and still match the clean reference byte for byte.
//!
//! Any violation aborts with exit 1. Results land in `BENCH_store.json`:
//!
//! ```text
//! cargo run --release -p unicert-bench --bin bench_store \
//!     [-- size seed] [--shard-size K] [--baseline BENCH_pipeline.json]
//! ```
//!
//! With `--baseline` the one-shot fingerprint is additionally checked
//! against the recorded `"fingerprint"` (exit 1 on mismatch) — CI pins
//! the 20k/seed-42 default to the committed survey baseline.

#![forbid(unsafe_code)]

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use unicert::corpus::{CorpusEntry, CorpusGenerator};
use unicert::lint::RunOptions;
use unicert::survey::{self, QuarantineEntry, SurveyOptions, SurveyReport};
use unicert_bench::baseline::Baseline;
use unicert_bench::{corpus_args, flag_arg};
use unicert_chaos::StoreFault;
use unicert_store::{resume, CorpusStore, ResumeOptions};

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn options(threads: usize) -> ResumeOptions {
    ResumeOptions {
        survey: SurveyOptions {
            lint: RunOptions { threads: Some(threads), ..RunOptions::default() },
            ..SurveyOptions::default()
        },
        stop_after: None,
    }
}

fn fresh_dir(path: PathBuf) -> PathBuf {
    std::fs::remove_dir_all(&path).ok();
    path
}

/// Copy a frozen store (flat directory of files) for destructive tests.
fn copy_store(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).expect("create store copy dir");
    for entry in std::fs::read_dir(src).expect("read store dir") {
        let entry = entry.expect("store dir entry");
        std::fs::copy(entry.path(), dst.join(entry.file_name())).expect("copy store file");
    }
}

/// The subprocess entry point for matrix 2: survey the given store with
/// checkpoints, letting `UNICERT_CRASH_AFTER_SHARD` (set by the parent)
/// kill us mid-run.
fn resume_worker(store_dir: &str, ckpt_dir: &str) -> ! {
    let store = CorpusStore::open(Path::new(store_dir)).expect("worker: open store");
    let run = resume::survey_incremental(&store, Path::new(ckpt_dir), options(1))
        .expect("worker: survey");
    println!("worker fingerprint: {:016x}", run.report.fingerprint());
    std::process::exit(0);
}

/// Build the report a run over `store` *must* produce when exactly the
/// shards in `corrupt` are unreadable: clean shards surveyed in memory at
/// their global offsets, corrupt ones replaced by their shard-granular
/// quarantine entries. This is the independent oracle the corruption
/// matrix compares against — it never touches the resume driver.
fn expected_with_corruption(
    corpus: &[CorpusEntry],
    store: &CorpusStore,
    corrupt: &[(usize, String)],
) -> SurveyReport {
    let registry = unicert::corpus::lint_registry();
    let mut report = SurveyReport::default();
    for shard in &store.manifest().shards {
        if let Some((_, detail)) = corrupt.iter().find(|(idx, _)| *idx == shard.index) {
            report.quarantine.push(QuarantineEntry {
                index: shard.start,
                cert_id: shard.file.clone(),
                stage: "store",
                detail: format!("{detail} (shard of {} certificates skipped)", shard.count),
                flight: Vec::new(),
            });
            continue;
        }
        let lo = shard.start as usize;
        let slice = &corpus[lo..lo + shard.count];
        report.merge(survey::run_parallel_slice_from(
            registry,
            slice,
            options(1).survey,
            shard.start,
        ));
    }
    if report.profile.is_empty() {
        report.profile = registry.profile_name();
    }
    report
}

const USAGE: &str = "usage: bench_store [size] [seed] [--shard-size <k>] [--baseline <json>] \
[--metrics-out <path>] [--trace-out <path>]";

fn main() {
    // Hidden worker mode must run before any flag/corpus handling.
    {
        let argv: Vec<String> = std::env::args().collect();
        if let Some(at) = argv.iter().position(|a| a == "--resume-worker") {
            let (Some(store_dir), Some(ckpt_dir)) = (argv.get(at + 1), argv.get(at + 2)) else {
                eprintln!("--resume-worker needs <store-dir> <ckpt-dir>");
                std::process::exit(2);
            };
            resume_worker(store_dir, ckpt_dir);
        }
    }
    unicert_bench::accept_flags(USAGE, &["--shard-size", "--baseline"]);
    let _telemetry = unicert_bench::telemetry_args();
    let config = corpus_args(20_000);
    let shard_size: usize = flag_arg("--shard-size")
        .and_then(|v| v.parse().ok())
        .unwrap_or(2_500);
    let baseline = flag_arg("--baseline").map(|path| {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
        (path, Baseline::parse(&text))
    });

    eprintln!("generating corpus: size={} seed={} ...", config.size, config.seed);
    let corpus: Vec<CorpusEntry> = CorpusGenerator::new(config.clone()).collect();

    // The one-shot in-memory reference every resumed run must reproduce.
    let reference = survey::run_parallel_slice(&corpus, options(1).survey);
    let fingerprint = format!("{:016x}", reference.fingerprint());
    println!("one-shot reference fingerprint: {fingerprint}");

    let scratch = std::env::temp_dir().join(format!("unicert-bench-store-{}", std::process::id()));
    let store_dir = fresh_dir(scratch.join("store"));
    let store = CorpusStore::freeze(&store_dir, &corpus, shard_size).expect("freeze store");
    let shard_count = store.manifest().shards.len();
    println!(
        "froze {} certificates into {shard_count} shards of {shard_size} at {}",
        store.manifest().total,
        store_dir.display()
    );

    let mut failures = 0usize;
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"benchmark\": \"store_crash_resume\",");
    let _ = writeln!(json, "  \"corpus_size\": {},", corpus.len());
    let _ = writeln!(json, "  \"seed\": {},", config.seed);
    let _ = writeln!(json, "  \"shard_size\": {shard_size},");
    let _ = writeln!(json, "  \"shards\": {shard_count},");
    let _ = writeln!(json, "  \"fingerprint\": \"{fingerprint}\",");

    // Matrix 1: every kill point × every thread count, graceful stop then
    // resume, merged report must match the reference byte for byte.
    let _ = writeln!(json, "  \"kill_points\": [");
    for kill_after in 0..shard_count {
        for (t_i, &threads) in THREAD_COUNTS.iter().enumerate() {
            let ckpts = fresh_dir(scratch.join(format!("ckpt-kill-{kill_after}-{threads}")));
            let partial = resume::survey_incremental(
                &store,
                &ckpts,
                ResumeOptions { stop_after: Some(kill_after + 1), ..options(threads) },
            )
            .expect("partial survey");
            let resumed = resume::survey_incremental(&store, &ckpts, options(threads))
                .expect("resumed survey");
            let ok = resumed.report == reference
                && resumed.resumed == kill_after + 1
                && resumed.corrupt == 0;
            if !ok {
                failures += 1;
                eprintln!(
                    "FAIL kill_point shard={kill_after} threads={threads}: \
                     resumed fingerprint {:016x}, resumed={} surveyed={}",
                    resumed.report.fingerprint(),
                    resumed.resumed,
                    resumed.surveyed
                );
            }
            let comma = if kill_after + 1 == shard_count && t_i + 1 == THREAD_COUNTS.len() {
                ""
            } else {
                ","
            };
            let _ = writeln!(
                json,
                "    {{\"shard\": {kill_after}, \"threads\": {threads}, \
                 \"partial_complete\": {}, \"resumed\": {}, \"surveyed\": {}, \
                 \"fingerprint_match\": {}}}{comma}",
                partial.complete,
                resumed.resumed,
                resumed.surveyed,
                ok
            );
        }
    }
    let _ = writeln!(json, "  ],");

    // Matrix 2: real subprocess crashes (hard exit 137 after shard k's
    // checkpoint commit), resumed in-process.
    let exe = std::env::current_exe().expect("current_exe");
    let _ = writeln!(json, "  \"subprocess_kills\": [");
    for kill_after in 0..shard_count {
        let ckpts = fresh_dir(scratch.join(format!("ckpt-crash-{kill_after}")));
        let status = std::process::Command::new(&exe)
            .arg("--resume-worker")
            .arg(&store_dir)
            .arg(&ckpts)
            .env("UNICERT_CRASH_AFTER_SHARD", kill_after.to_string())
            .status()
            .expect("spawn resume worker");
        let killed = status.code() == Some(137);
        let resumed = resume::survey_incremental(&store, &ckpts, options(1))
            .expect("resume after crash");
        let ok = killed && resumed.report == reference && resumed.resumed == kill_after + 1;
        if !ok {
            failures += 1;
            eprintln!(
                "FAIL subprocess_kill shard={kill_after}: exit={:?} resumed={} \
                 fingerprint {:016x}",
                status.code(),
                resumed.resumed,
                resumed.report.fingerprint()
            );
        }
        let comma = if kill_after + 1 == shard_count { "" } else { "," };
        let _ = writeln!(
            json,
            "    {{\"shard\": {kill_after}, \"exit\": {}, \"resumed\": {}, \
             \"surveyed\": {}, \"fingerprint_match\": {}}}{comma}",
            status.code().unwrap_or(-1),
            resumed.resumed,
            resumed.surveyed,
            ok
        );
    }
    let _ = writeln!(json, "  ],");

    // Matrix 3: every corruption class × every thread count, compared
    // against the independently built expected report.
    let fault_seed = 0xfau64 * 1000 + config.seed;
    let victim_shard = 1usize.min(shard_count - 1);
    let _ = writeln!(json, "  \"corruption\": [");
    for (f_i, fault) in StoreFault::ALL.into_iter().enumerate() {
        let dir = fresh_dir(scratch.join(format!("store-{}", fault.label())));
        copy_store(&store_dir, &dir);
        // Tamper attacks the manifest (the store must rebuild and still
        // match the clean reference); the other classes attack a segment.
        let manifest_attack = fault == StoreFault::Tamper;
        let target = if manifest_attack {
            dir.join("store.manifest")
        } else {
            dir.join(unicert_store::segment::segment_file_name(victim_shard))
        };
        unicert_chaos::fsfault::inject(&target, fault, fault_seed).expect("inject fault");
        let damaged = CorpusStore::open(&dir).expect("open damaged store");
        let health = damaged.verify();
        let corrupt: Vec<(usize, String)> = health
            .iter()
            .filter_map(|h| h.corruption.as_ref().map(|c| (h.index, c.to_string())))
            .collect();
        let expected = if manifest_attack {
            reference.clone()
        } else {
            expected_with_corruption(&corpus, &damaged, &corrupt)
        };
        let mut detected = corrupt
            .first()
            .and_then(|(_, d)| d.split(':').next())
            .unwrap_or("none")
            .to_string();
        if manifest_attack && damaged.manifest_rebuilt() {
            detected = "manifest_rebuilt".to_string();
        }
        let mut class_ok = true;
        let mut first: Option<SurveyReport> = None;
        for &threads in &THREAD_COUNTS {
            let ckpts = fresh_dir(scratch.join(format!("ckpt-{}-{threads}", fault.label())));
            let run = resume::survey_incremental(&damaged, &ckpts, options(threads))
                .expect("survey damaged store");
            // Resume over the damage: the second pass must reuse every
            // clean shard's checkpoint and reproduce the same bytes.
            let again = resume::survey_incremental(&damaged, &ckpts, options(threads))
                .expect("resume damaged store");
            let ok = run.report == expected
                && again.report == expected
                && again.resumed == shard_count - corrupt.len()
                && run.corrupt == corrupt.len()
                && first.as_ref().is_none_or(|f| *f == run.report);
            if !ok {
                class_ok = false;
                eprintln!(
                    "FAIL corruption class={} threads={threads}: corrupt={} \
                     fingerprint {:016x} expected {:016x}",
                    fault.label(),
                    run.corrupt,
                    run.report.fingerprint(),
                    expected.fingerprint()
                );
            }
            first.get_or_insert(run.report);
        }
        if !class_ok {
            failures += 1;
        }
        let comma = if f_i + 1 == StoreFault::ALL.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    {{\"class\": \"{}\", \"target\": \"{}\", \"detected\": \"{detected}\", \
             \"quarantined_shards\": {}, \"threads\": [1, 2, 4, 8], \"ok\": {class_ok}}}{comma}",
            fault.label(),
            if manifest_attack { "manifest" } else { "segment" },
            corrupt.len()
        );
    }
    let _ = writeln!(json, "  ],");

    // Baseline pin: the one-shot (hence every resumed) fingerprint must
    // equal the committed survey baseline's.
    let baseline_match = match &baseline {
        Some((path, b)) => match &b.fingerprint {
            Some(f) => {
                let matched = *f == fingerprint;
                if !matched {
                    failures += 1;
                    eprintln!(
                        "FAIL baseline {path}: fingerprint {fingerprint} != recorded {f}"
                    );
                }
                if b.corpus_size.is_some_and(|n| n != corpus.len())
                    || b.seed.is_some_and(|s| s != config.seed)
                {
                    eprintln!(
                        "warning: baseline {path} was taken at size={:?} seed={:?}; \
                         current run uses size={} seed={}",
                        b.corpus_size,
                        b.seed,
                        corpus.len(),
                        config.seed
                    );
                }
                matched.to_string()
            }
            None => "null".to_string(),
        },
        None => "null".to_string(),
    };
    let _ = writeln!(json, "  \"baseline_fingerprint_match\": {baseline_match}");
    let _ = writeln!(json, "}}");

    std::fs::write("BENCH_store.json", &json).expect("write BENCH_store.json");
    println!("wrote BENCH_store.json");
    std::fs::remove_dir_all(&scratch).ok();
    if failures > 0 {
        eprintln!("FATAL: {failures} crash-resume invariant violations");
        std::process::exit(1);
    }
    println!(
        "all kill points ({shard_count} shards x {:?} threads), {} subprocess crashes, \
         and {} corruption classes resumed byte-identically",
        THREAD_COUNTS,
        shard_count,
        StoreFault::ALL.len()
    );
}
