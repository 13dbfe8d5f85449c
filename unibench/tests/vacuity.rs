//! Self-tests that keep the benchmark from passing vacuously: a wrong
//! reference, a contained panic and a misspelled flag must all fail it,
//! different seeds must give different inputs, and both runs must emit
//! exactly the metrics `BENCHMARK.json` names.

use std::path::PathBuf;
use unibench::run::{end_to_end, traced, Outcome, RunConfig, END_TO_END, PER_LAYER};
use unibench::workload::{corpus, failures, survey_options, Sizes, Workload, WorkloadKind};

fn config(kind: WorkloadKind, seed: u64, tag: &str) -> RunConfig {
    RunConfig {
        kind,
        seed,
        seconds: 0.0,
        sizes: Sizes::TINY,
        threads: 2,
        setup_reps: 1,
        min_passes: 2,
        work: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("{tag}-{}", kind.name())),
    }
}

fn names(outcome: &Outcome) -> Vec<&'static str> {
    outcome.metrics.iter().map(|m| m.name).collect()
}

#[test]
fn every_workload_passes_its_reference() {
    for kind in WorkloadKind::ALL {
        let outcome = end_to_end(&config(kind, 7, "clean"), |_| {}).unwrap();
        assert!(outcome.correct, "{}", kind.name());
        assert_eq!(outcome.failed, 0, "{}", kind.name());
        assert!(outcome.attempted > 0);
        assert_eq!(names(&outcome), END_TO_END.map(|(n, _)| n));
        for m in &outcome.metrics {
            assert!(
                m.summary.value.is_finite() && m.summary.value > 0.0,
                "{} {}",
                kind.name(),
                m.name
            );
        }
    }
}

#[test]
fn a_tampered_reference_fails_the_run() {
    for kind in WorkloadKind::ALL {
        let outcome = end_to_end(&config(kind, 7, "tamper"), |reference| {
            let last = reference.last_mut().expect("a reference fingerprint");
            *last ^= 1;
        })
        .unwrap();
        assert!(!outcome.correct, "{}", kind.name());
        assert!(outcome.fail_frac() > 0.0, "{}", kind.name());
    }
}

#[test]
fn two_seeds_generate_different_inputs() {
    for kind in WorkloadKind::ALL {
        let fingerprint = |seed| {
            let cfg = config(kind, seed, &format!("seed{seed}"));
            let mut off = unibench::tracer::Tracer::off();
            Workload::setup(kind, seed, cfg.sizes, 2, &cfg.work, &mut off)
                .unwrap()
                .reference()
        };
        assert_ne!(fingerprint(1), fingerprint(2), "{}", kind.name());
    }
}

#[test]
fn a_contained_panic_counts_as_a_failure() {
    use unicert_lint::{Lint, LintStatus, NoncomplianceType, Registry, Severity, Source};
    let entries: Vec<_> = corpus(7, 200).collect();
    let reference = unicert::survey::run_parallel_slice(&entries, survey_options(1)).fingerprint();
    let mut sabotaged = Registry::for_profile(unicert_lint::DEFAULT_PROFILE).unwrap();
    sabotaged.register(Lint {
        name: "x_unibench_injected_panic",
        description: "panics on every eighth serial",
        citation: "none",
        source: Source::Rfc5280,
        severity: Severity::Warning,
        nc_type: NoncomplianceType::InvalidEncoding,
        new_lint: false,
        check: Box::new(|ctx| {
            if ctx.serial().last().is_some_and(|b| b % 8 == 3) {
                panic!("injected lint panic");
            }
            LintStatus::Pass
        }),
    });
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let report = unicert::survey::run_parallel_slice_with(&sabotaged, &entries, survey_options(2));
    std::panic::set_hook(hook);
    assert!(!report.quarantine.is_empty(), "the injected lint must fire");
    let failed = failures(&report, reference, entries.len());
    assert!(failed > 0 && failed as f64 / entries.len() as f64 > 0.0);
}

#[test]
fn the_traced_run_emits_every_per_layer_metric() {
    for kind in WorkloadKind::ALL {
        let (outcome, tracer) = traced(&config(kind, 7, "traced")).unwrap();
        assert!(outcome.correct, "{}", kind.name());
        assert_eq!(
            names(&outcome),
            PER_LAYER.map(|(n, _)| n),
            "{}",
            kind.name()
        );
        assert!(!tracer.spans().is_empty());
    }
}

#[test]
fn benchmark_json_names_exactly_these_workloads_and_metrics() {
    let text = include_str!("../../BENCHMARK.json");
    let quoted = |key: &str| -> Vec<String> {
        let pattern = format!("\"{key}\": \"");
        text.match_indices(&pattern)
            .map(|(at, _)| {
                let rest = &text[at + pattern.len()..];
                rest[..rest.find('"').unwrap()].to_string()
            })
            .collect()
    };
    let mut expected: Vec<String> = WorkloadKind::BENCHMARKED
        .iter()
        .map(|k| k.name().to_string())
        .collect();
    expected.extend(
        END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, _)| n.to_string()),
    );
    assert_eq!(quoted("name"), expected);
    let units: Vec<String> = END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .map(|(_, u)| u.to_string())
        .collect();
    assert_eq!(quoted("unit"), units);
}
