//! The end-to-end run and the separate traced run.

use crate::calib::{Calibration, REFERENCE_SLICE_NS};
use crate::json::Json;
use crate::layers::{staged_loop, survey_and_merge, LayerSamples};
use crate::stats::{median, quartiles, Summary};
use crate::store_rig::StoreRig;
use crate::sysinfo::{peak_rss_kib, rss_kib};
use crate::tracer::Tracer;
use crate::workload::{combine, corpus, survey_options, Inputs, Sizes, Workload, WorkloadKind};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// End-to-end metrics `(name, unit)`, as `BENCHMARK.json` lists them.
pub const END_TO_END: [(&str, &str); 3] = [
    ("ref_ns_per_cert", "ns"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`, as `BENCHMARK.json` lists them.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("corpus.gen_ns_per_cert", "ns"),
    ("x509.parse_ns_per_input", "ns"),
    ("asn1.elements_per_input", "count"),
    ("asn1.tlv_bytes_per_input", "bytes"),
    ("x509.parse_ok_frac", "fraction"),
    ("corpus.meta_infer_ns_per_cert", "ns"),
    ("lint.ctx_fill_ns_per_cert", "ns"),
    ("lint.ctx_fill_ns.san", "ns"),
    ("lint.ctx_fill_ns.dn_text", "ns"),
    ("lint.ctx_fill_ns.punycode", "ns"),
    ("lint.ctx_fill_ns.nfc", "ns"),
    ("lint.ctx_miss_per_cert.san", "count"),
    ("lint.ctx_miss_per_cert.dn_text", "count"),
    ("lint.ctx_miss_per_cert.punycode", "count"),
    ("lint.ctx_miss_per_cert.nfc", "count"),
    ("lint.ctx_hit_frac", "fraction"),
    ("lint.check_ns_per_cert", "ns"),
    ("lint.check_ns.invalid_character", "ns"),
    ("lint.check_ns.bad_normalization", "ns"),
    ("lint.check_ns.illegal_format", "ns"),
    ("lint.check_ns.invalid_encoding", "ns"),
    ("lint.check_ns.invalid_structure", "ns"),
    ("lint.check_ns.discouraged_field", "ns"),
    ("lint.runner_overhead_ns_per_cert", "ns"),
    ("lint.checks_per_cert", "count"),
    ("lint.findings_per_cert", "count"),
    ("core.classify_ns_per_cert", "ns"),
    ("core.aggregate_ns_per_cert", "ns"),
    ("core.merge_ns_per_shard", "ns"),
    ("core.parallel_efficiency", "fraction"),
    ("store.append_ns_per_cert", "ns"),
    ("store.segment_read_ns_per_cert", "ns"),
    ("store.checkpoint_write_ns_per_shard", "ns"),
    ("store.checkpoint_read_ns_per_shard", "ns"),
    ("store.resume_ns_per_new_cert", "ns"),
    ("store.bytes_written_per_cert", "bytes"),
    ("store.files_synced_per_batch", "count"),
    ("trace.overhead_frac", "fraction"),
];

/// Reference fingerprints pinned for the default seed at the standard
/// sizes: `workload<TAB>seed<TAB>combined fingerprint (hex)`.
const PINNED: &str = include_str!("../reference.tsv");

/// The pinned combined reference of `(kind, seed)`, if any.
fn pinned_reference(kind: WorkloadKind, seed: u64) -> Option<u64> {
    PINNED
        .lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|l| {
            let mut f = l.split('\t');
            let (name, s, fp) = (f.next()?, f.next()?, f.next()?);
            (name == kind.name() && s.parse() == Ok(seed))
                .then(|| u64::from_str_radix(fp, 16).ok())?
        })
}

/// Spans a traced run keeps for the spans file (later spans still count
/// toward the metrics).
const SPAN_CAP: usize = 50_000;

/// How to run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Workload.
    pub kind: WorkloadKind,
    /// Input seed.
    pub seed: u64,
    /// Measured-phase length.
    pub seconds: f64,
    /// Input sizes.
    pub sizes: Sizes,
    /// Worker threads of the traced run's parallel passes (`nproc`); the
    /// end-to-end run uses [`END_TO_END_THREADS`].
    pub threads: usize,
    /// Set-up repetitions whose median is `setup_s`.
    pub setup_reps: usize,
    /// Passes run even when `seconds` is already used up.
    pub min_passes: usize,
    /// Scratch directory for the store.
    pub work: PathBuf,
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Headline and spread.
    pub summary: Summary,
}

/// The outcome of a run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// No input failed and every reference held.
    pub correct: bool,
    /// Inputs attempted in checked passes.
    pub attempted: u64,
    /// Inputs that failed (see `workload::failures`).
    pub failed: u64,
    /// Metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Run details for the report file: references, pass counts.
    pub details: Vec<(&'static str, Json)>,
}

impl Outcome {
    /// Failed share of attempted inputs.
    pub fn fail_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Compute the references and check them against the pinned values.
/// Returns `(references, pinned check passed or not applicable)`.
fn checked_reference(w: &Workload, cfg: &RunConfig) -> (Vec<u64>, bool, Json) {
    let reference = w.reference();
    let combined = combine(&reference);
    let pinned = (cfg.sizes == Sizes::STANDARD)
        .then(|| pinned_reference(cfg.kind, cfg.seed))
        .flatten();
    let ok = pinned.is_none_or(|p| p == combined);
    let info = Json::obj([
        ("combined", Json::Str(format!("{combined:016x}"))),
        (
            "pinned",
            pinned.map_or(Json::Null, |p| Json::Str(format!("{p:016x}"))),
        ),
        ("pinned_matches", Json::Bool(ok)),
    ]);
    (reference, ok, info)
}

/// Calibration slices walked before each set-up, so every set-up has a
/// reference reading taken next to it.
const SETUP_SLICES: usize = 8;

/// Worker threads of the end-to-end run: one, so that a busy second CPU
/// slows the run only through the shared host, never through scheduling.
pub const END_TO_END_THREADS: usize = 1;

/// Scale `ns` measured while a reference slice took `slice_ns` to the
/// reference speed.
fn at_reference(ns: f64, slice_ns: f64) -> f64 {
    ns * REFERENCE_SLICE_NS / slice_ns
}

/// The end-to-end run: `setup_reps` set-ups (the last one is kept), the
/// references, then passes of timed units for `cfg.seconds`, every unit
/// preceded by reference slices (see [`crate::calib`]).
/// `adjust_reference` lets the self-tests tamper with the unit references
/// before the passes.
pub fn end_to_end(
    cfg: &RunConfig,
    adjust_reference: impl FnOnce(&mut Vec<u64>),
) -> Result<Outcome, String> {
    let rss_before = rss_kib();
    let mut calib = Calibration::new();
    let calib_kib = rss_kib()
        .zip(rss_before)
        .map_or(0, |(a, b)| a.saturating_sub(b));

    let mut setup_s = Vec::new();
    let mut setup_slices = Vec::new();
    let mut workload = None;
    for _ in 0..cfg.setup_reps.max(1) {
        drop(workload.take());
        setup_slices.push(
            (0..SETUP_SLICES)
                .map(|_| calib.slice_ns())
                .collect::<Vec<_>>(),
        );
        let started = Instant::now();
        let w = Workload::setup(
            cfg.kind,
            cfg.seed,
            cfg.sizes,
            END_TO_END_THREADS,
            &cfg.work,
            &mut Tracer::off(),
        )?;
        setup_s.push(started.elapsed().as_secs_f64());
        workload = Some(w);
    }
    setup_slices.push((0..SETUP_SLICES).map(|_| calib.slice_ns()).collect());
    let w = workload.ok_or("no set-up ran")?;
    let (whole, pinned_ok, reference_info) = checked_reference(&w, cfg);
    let (mut reference, units_ok) = w.unit_references(&whole);
    let reference_ok = pinned_ok && units_ok;
    adjust_reference(&mut reference);

    let budget = Duration::from_secs_f64(cfg.seconds);
    let started = Instant::now();
    let (mut passes, mut attempted, mut failed, mut unit_wall_ns) = (0, 0u64, 0u64, 0u64);
    let (mut unit_ns, mut slices) = (Vec::new(), Vec::new());
    while passes < cfg.min_passes.max(1) || started.elapsed() < budget {
        for i in 0..w.units() {
            // A first, untimed slice brings the reference set back into
            // the caches the previous unit used.
            calib.slice_ns();
            let block = cfg.kind.unit_slices();
            slices.push((0..block).map(|_| calib.slice_ns()).sum::<f64>() / block as f64);
            let unit = w.unit(i, &reference)?;
            unit_ns.push(unit.wall_ns as f64 / unit.inputs as f64);
            unit_wall_ns += unit.wall_ns;
            attempted += unit.inputs;
            failed += if reference_ok {
                unit.failed
            } else {
                unit.inputs
            };
        }
        passes += 1;
    }

    // First quartiles: the quarter of units and of slices that ran with
    // the fewest interruptions.
    let (unit_q1, _) = quartiles(&unit_ns);
    let (slice_q1, _) = quartiles(&slices);
    let normalised: Vec<f64> = unit_ns
        .iter()
        .zip(&slices)
        .map(|(&ns, &slice)| at_reference(ns, slice))
        .collect();
    let ref_ns = Summary {
        value: at_reference(unit_q1, slice_q1),
        ..Summary::of(&normalised)
    };
    // Each set-up is scaled by the slices walked just before and after it.
    let setup_ref: Vec<f64> = setup_s
        .iter()
        .zip(setup_slices.windows(2))
        .map(|(&s, around)| at_reference(s, median(&around.concat())))
        .collect();
    let rss_mb = peak_rss_kib().map_or(f64::NAN, |kib| {
        kib.saturating_sub(calib_kib) as f64 / 1024.0
    });
    let metrics = vec![
        Metric {
            name: "ref_ns_per_cert",
            unit: "ns",
            summary: ref_ns,
        },
        Metric {
            name: "setup_s",
            unit: "s",
            summary: Summary::of(&setup_ref),
        },
        Metric {
            name: "peak_rss_mb",
            unit: "MB",
            summary: Summary::of(&[rss_mb]),
        },
    ];
    let samples = |v: &[f64]| Json::Arr(v.iter().map(|&x| Json::Num(x)).collect());
    Ok(Outcome {
        correct: failed == 0 && reference_ok,
        attempted,
        failed,
        metrics,
        details: vec![
            ("reference", reference_info),
            ("unit_references_merge", Json::Bool(units_ok)),
            ("passes", Json::Num(passes as f64)),
            ("units_per_pass", Json::Num(w.units() as f64)),
            ("inputs_per_pass", Json::Num(w.pass_inputs() as f64)),
            (
                "raw_certs_per_s",
                Json::Num(attempted as f64 * 1e9 / unit_wall_ns as f64),
            ),
            ("unit_ns_per_cert", unit_tail_json(&unit_ns)),
            ("slice_ns", Summary::of(&slices).to_json("ns")),
            ("setup_raw_s", samples(&setup_s)),
            ("setup_slice_ns", Json::Num(median(&setup_slices.concat()))),
            ("calibration_mb", Json::Num(calib_kib as f64 / 1024.0)),
            ("threads", Json::Num(END_TO_END_THREADS as f64)),
        ],
    })
}

/// Median and tail of the per-input unit times, in ns: the highest
/// percentile with ten units beyond it.
fn unit_tail_json(unit_ns: &[f64]) -> Json {
    let mut ns = unit_ns.to_vec();
    ns.sort_by(f64::total_cmp);
    let (pct, value) = crate::stats::tail(&ns).map_or((Json::Null, Json::Null), |(p, v)| {
        (Json::Num(f64::from(p)), Json::Num(v))
    });
    Json::obj([
        ("median", Json::Num(median(&ns))),
        ("tail_pct", pct),
        ("tail", value),
        ("n", Json::Num(ns.len() as f64)),
    ])
}

/// The separate traced run: set-up with spans, the reference, parallel
/// efficiency, then staged/survey/store rounds for `cfg.seconds`. Returns
/// the outcome and the tracer holding every kept span.
pub fn traced(cfg: &RunConfig) -> Result<(Outcome, Tracer), String> {
    let mut tr = Tracer::new(true, SPAN_CAP);
    let w = Workload::setup(
        cfg.kind,
        cfg.seed,
        cfg.sizes,
        cfg.threads,
        &cfg.work,
        &mut tr,
    )?;
    let setup_totals = tr.take_totals();
    let gen_ns = setup_totals.get("corpus.generate").map_or(0, |t| t.ns);
    let (reference, reference_ok, reference_info) = checked_reference(&w, cfg);
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut layers = LayerSamples::default();
    layers.push("corpus.gen_ns_per_cert", gen_ns as f64 / w.generated as f64);

    // Parallel efficiency: alternate 1-thread and nproc-thread passes.
    let (mut one, mut many) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        for (threads, rates) in [(1, &mut one), (cfg.threads, &mut many)] {
            let pass = w.pass(threads, &reference)?;
            attempted += pass.inputs;
            failed += pass.failed;
            rates.push(pass.inputs as f64 / (pass.wall_ns as f64 / 1e9));
        }
    }
    layers.push(
        "core.parallel_efficiency",
        median(&many) / (cfg.threads as f64 * median(&one)),
    );

    // The store the rounds probe: the workload's own, or a side store of
    // the same seeded corpus.
    let side;
    let (rig, store_refs) = match &w.inputs {
        Inputs::Store(rig) => (rig, reference.clone()),
        Inputs::Bytes(_) => {
            let entries = corpus(cfg.seed, cfg.sizes.side_store.total()).collect();
            side = StoreRig::setup(&cfg.work, entries, cfg.sizes.side_store, cfg.threads)?;
            let refs = side.references();
            (&side, refs)
        }
    };

    let ders = w.probe_ders();
    let sample: Vec<&[u8]> = ders.iter().take(cfg.sizes.trace_sample).copied().collect();
    let owned: Vec<Vec<u8>> = sample.iter().map(|d| d.to_vec()).collect();
    let registry = unicert_corpus::lint_registry();
    let lint_opts = survey_options(1).lint;
    let mut sample_fp = None;
    let mut overhead = Vec::new();
    let budget = Duration::from_secs_f64(cfg.seconds);
    let started = Instant::now();
    let mut rounds = 0u64;
    tr.take_totals();
    while rounds < 3 || started.elapsed() < budget {
        // Traced and untraced staged loops, alternating which goes first.
        let run_staged = |tr: &mut Tracer, on: bool| {
            tr.set_enabled(on);
            let started = Instant::now();
            let counts = staged_loop(tr, &sample, registry, lint_opts);
            tr.set_enabled(true);
            (counts, started.elapsed().as_secs_f64())
        };
        let ((counts, traced_s), untraced_s) = if rounds.is_multiple_of(2) {
            let t = run_staged(&mut tr, true);
            (t, run_staged(&mut tr, false).1)
        } else {
            let u = run_staged(&mut tr, false).1;
            (run_staged(&mut tr, true), u)
        };
        overhead.push(1.0 - untraced_s / traced_s);

        let (report, shards, merge_ok) = survey_and_merge(&mut tr, &owned);
        let fp = report.fingerprint();
        attempted += owned.len() as u64;
        if !merge_ok || *sample_fp.get_or_insert(fp) != fp || !report.quarantine.is_empty() {
            failed += owned.len() as u64;
        }

        let (pass, store) = rig.pass(cfg.threads, &store_refs, &mut tr)?;
        let read = rig.probe_reads(&store, &mut tr)?;
        attempted += pass.inputs;
        failed += pass.failed;

        let totals = tr.take_totals();
        layers.push_staged(&totals, &counts);
        layers.push_survey(&totals, &counts, shards);
        layers.push_store(&totals, &pass, rig.sizes().cycles as u64, read);
        rounds += 1;
    }
    for v in overhead {
        layers.push("trace.overhead_frac", v);
    }

    let mut metrics = Vec::new();
    for (name, unit) in PER_LAYER {
        let samples = layers.get(name);
        if samples.is_empty() {
            return Err(format!("the traced run produced no sample of {name}"));
        }
        metrics.push(Metric {
            name,
            unit,
            summary: Summary::of(samples),
        });
    }
    if !reference_ok {
        failed = attempted;
    }
    let outcome = Outcome {
        correct: failed == 0 && reference_ok,
        attempted,
        failed,
        metrics,
        details: vec![
            ("reference", reference_info),
            ("threads", Json::Num(cfg.threads as f64)),
            ("rounds", Json::Num(rounds as f64)),
            ("sample_inputs", Json::Num(sample.len() as f64)),
            ("spans_kept", Json::Num(tr.spans().len() as f64)),
        ],
    };
    Ok((outcome, tr))
}
