//! Parallel survey determinism: the sharded pipeline must reproduce the
//! serial pass exactly — same counts, same per-issuer/year/lint tables,
//! same validity sample vectors in the same order — for every thread
//! count. See DESIGN.md §7 for why the shard-merge construction makes
//! this hold by design rather than by accident.

use unicert::asn1::ParseBudget;
use unicert::corpus::{
    lint_registry, CertMeta, CorpusConfig, CorpusEntry, CorpusGenerator, RawEntry,
};
use unicert::lint::RunOptions;
use unicert::survey::{self, SurveyOptions, SurveyReport};

const CORPUS_SIZE: usize = 10_000;

fn config() -> CorpusConfig {
    CorpusConfig { size: CORPUS_SIZE, seed: 1337, precert_fraction: 0.3, latent_defects: true }
}

fn opts(threads: usize) -> SurveyOptions {
    SurveyOptions {
        lint: RunOptions { threads: Some(threads), ..RunOptions::default() },
        field_matrix: true,
    }
}

#[test]
fn parallel_streaming_matches_serial() {
    let serial = survey::run(CorpusGenerator::new(config()), SurveyOptions::default());
    assert_eq!(serial.total, CORPUS_SIZE);
    for threads in [2, 4, 8] {
        let parallel = survey::run_parallel(CorpusGenerator::new(config()), opts(threads));
        assert_eq!(serial, parallel, "streaming survey diverged at {threads} threads");
    }
}

#[test]
fn parallel_slice_matches_serial() {
    let corpus: Vec<CorpusEntry> = CorpusGenerator::new(config()).collect();
    let serial = survey::run(corpus.iter().cloned(), SurveyOptions::default());
    for threads in [2, 4, 8] {
        let parallel = survey::run_parallel_slice(&corpus, opts(threads));
        assert_eq!(serial, parallel, "slice survey diverged at {threads} threads");
    }
}

#[test]
fn shard_size_does_not_change_the_report() {
    let corpus: Vec<CorpusEntry> = CorpusGenerator::new(CorpusConfig {
        size: 3_000,
        seed: 7,
        precert_fraction: 0.25,
        latent_defects: false,
    })
    .collect();
    let baseline = survey::run_parallel_slice(&corpus, opts(4));
    for shard_size in [1, 17, 256, 10_000] {
        let opts = SurveyOptions {
            lint: RunOptions { threads: Some(4), shard_size, ..RunOptions::default() },
            field_matrix: true,
        };
        let report = survey::run_parallel_slice(&corpus, opts);
        assert_eq!(baseline, report, "shard_size={shard_size} diverged");
    }
}

/// DESIGN.md §8 inertness contract: running the sharded survey with
/// metrics and span-level tracing enabled must produce a byte-identical
/// report — telemetry observes the pipeline, it never feeds back into it.
#[test]
fn tracing_on_report_is_byte_identical() {
    use unicert::telemetry::{self, trace, MemorySink, TraceLevel};
    let corpus: Vec<CorpusEntry> = CorpusGenerator::new(CorpusConfig {
        size: 3_000,
        seed: 99,
        precert_fraction: 0.2,
        latent_defects: true,
    })
    .collect();
    let quiet = survey::run_parallel_slice(&corpus, opts(4));

    let sink = MemorySink::new();
    trace::install_collector(sink.clone());
    trace::set_trace_level(TraceLevel::Spans);
    telemetry::set_metrics_enabled(true);
    let traced = survey::run_parallel_slice(&corpus, opts(4));
    telemetry::set_metrics_enabled(false);
    trace::set_trace_level(TraceLevel::Off);
    trace::clear_collector();

    assert!(!sink.is_empty(), "span-level tracing emitted no events");
    assert_eq!(quiet, traced, "tracing/metrics changed the survey report");
}

#[test]
fn single_thread_parallel_is_the_serial_path() {
    let report: SurveyReport = survey::run_parallel(
        CorpusGenerator::new(CorpusConfig { size: 500, seed: 2, ..Default::default() }),
        opts(1),
    );
    let serial = survey::run(
        CorpusGenerator::new(CorpusConfig { size: 500, seed: 2, ..Default::default() }),
        SurveyOptions::default(),
    );
    assert_eq!(report, serial);
}

/// Every public survey entry point folds the same corpus into the same
/// report: the owned stream and slice paths at any thread count, a slice
/// cut off a shard boundary and merged back, and the zero-copy records
/// path. The raw-DER paths infer their metadata from the certificate, so
/// they are held to the entry path over content-inferred metadata, with
/// `parse_outcomes` (which only they count) cleared.
#[test]
fn every_entry_point_produces_one_report() {
    let corpus: Vec<CorpusEntry> = CorpusGenerator::new(CorpusConfig {
        size: 1_500,
        seed: 4242,
        precert_fraction: 0.3,
        latent_defects: true,
    })
    .collect();
    let sharded = |threads| SurveyOptions {
        lint: RunOptions { threads: Some(threads), shard_size: 64, ..RunOptions::default() },
        field_matrix: true,
    };
    let registry = lint_registry();
    let cut = 10 * 64 + 23;
    let records: Vec<RawEntry<'_>> =
        corpus.iter().map(|e| RawEntry { der: &e.cert.raw, meta: e.meta.clone() }).collect();

    let expected = survey::run(corpus.iter().cloned(), sharded(1));
    assert!(expected.precerts_filtered > 0 && expected.noncompliant > 0, "{expected:?}");
    let mut cases: Vec<(String, SurveyReport)> = vec![
        ("run_parallel t4".into(), survey::run_parallel(corpus.iter().cloned(), sharded(4))),
        ("run_parallel_slice_from split".into(), {
            let mut head = survey::run_parallel_slice_from(registry, &corpus[..cut], sharded(2), 0);
            let tail =
                survey::run_parallel_slice_from(registry, &corpus[cut..], sharded(2), cut as u64);
            head.merge(tail);
            head
        }),
    ];
    for threads in [1, 2, 4] {
        cases.push((
            format!("run_parallel_slice t{threads}"),
            survey::run_parallel_slice(&corpus, sharded(threads)),
        ));
        cases.push((
            format!("run_parallel_records_from t{threads}"),
            survey::run_parallel_records_from(registry, &records, sharded(threads), 0),
        ));
    }
    for (name, report) in &cases {
        assert_eq!(report, &expected, "{name} diverged from run");
    }

    let inferred: Vec<CorpusEntry> = corpus
        .iter()
        .map(|e| CorpusEntry { cert: e.cert.clone(), meta: CertMeta::inferred(&e.cert) })
        .collect();
    let expected = survey::run_parallel_slice(&inferred, sharded(1));
    let ders: Vec<Vec<u8>> = corpus.iter().map(|e| e.cert.raw.clone()).collect();
    let budget = ParseBudget::default();
    let mut cases = vec![("run_bytes".to_string(), survey::run_bytes(&ders, sharded(1), &budget))];
    for threads in [1, 2, 4] {
        cases.push((
            format!("run_parallel_bytes t{threads}"),
            survey::run_parallel_bytes(&ders, sharded(threads), &budget),
        ));
    }
    for (name, mut report) in cases {
        assert_eq!(report.parse_outcomes.get("ok"), Some(&corpus.len()), "{name}");
        report.parse_outcomes.clear();
        assert_eq!(report, expected, "{name} diverged from the entry path");
    }
}
