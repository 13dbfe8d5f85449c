//! The traced run's layer probes.
//!
//! Each round walks a fixed sample of the workload's inputs through the
//! layers' public functions one call at a time, recording a span per call:
//!
//! * `x509.parse` — `CertView::parse_der_budgeted` (accepted and rejected
//!   inputs), with the `BudgetState` element and byte counts;
//! * `corpus.meta_infer` — `CertMeta::inferred_view`;
//! * `lint.ctx_fill.<family>` — the public accessor groups of a fresh
//!   `LintContext`, attributed by the `CacheStats` family whose misses
//!   they raise (extensions, DN text, punycode labels, NFC verdicts);
//! * `lint.run_cold` / `lint.run_warm` — `Registry::run_ctx` on a fresh
//!   context, then again on the now-warm one; their difference is the
//!   context fill the lint run pays;
//! * `lint.checks_direct` and `lint.check.<type>` — the applicable checks
//!   called directly on the warm context, all at once and grouped by
//!   Table 1 type;
//! * `core.classify`, then `lint.run_after_classify` — the pipeline's own
//!   order on a third fresh context;
//! * `core.run_bytes` and `core.merge` — a serial `run_bytes` of the
//!   sample, and `SurveyReport::merge` over per-shard reports;
//! * the store spans, from `store_rig`.
//!
//! The same staged loop also runs with the tracer off, which gives the
//! tracer's own overhead.

use crate::store_rig::StorePass;
use crate::tracer::{Total, Tracer};
use crate::workload::{survey_options, SHARD_SIZE};
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use unicert::survey::{run_bytes, SurveyReport};
use unicert_asn1::ParseBudget;
use unicert_corpus::CertMeta;
use unicert_lint::context::CachedVal;
use unicert_lint::helpers::Which;
use unicert_lint::{Lint, LintContext, NoncomplianceType, Registry, RunOptions};
use unicert_x509::CertView;

/// Work counts of one staged-loop round.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    /// Inputs walked.
    pub inputs: u64,
    /// Inputs that parsed.
    pub parsed: u64,
    /// Parsed, non-precertificate inputs linted.
    pub certs: u64,
    /// TLV elements charged to the parse budget.
    pub elements: u64,
    /// TLV bytes charged to the parse budget.
    pub tlv_bytes: u64,
    /// Applicable lint checks run (once per certificate).
    pub checks: u64,
    /// Findings (once per certificate).
    pub findings: u64,
    /// Cache misses after one lint run, per family (san, dn_text,
    /// punycode, nfc).
    pub misses: [u64; 4],
    /// Cache hits after one lint run, all families.
    pub hits: u64,
}

/// Fill span names, one per `CacheStats` family (san, dn_text, punycode,
/// nfc).
const FILL_SPANS: [&str; 4] = [
    "lint.ctx_fill.san",
    "lint.ctx_fill.dn_text",
    "lint.ctx_fill.punycode",
    "lint.ctx_fill.nfc",
];
const FILL_METRICS: [&str; 4] = [
    "lint.ctx_fill_ns.san",
    "lint.ctx_fill_ns.dn_text",
    "lint.ctx_fill_ns.punycode",
    "lint.ctx_fill_ns.nfc",
];
const MISS_METRICS: [&str; 4] = [
    "lint.ctx_miss_per_cert.san",
    "lint.ctx_miss_per_cert.dn_text",
    "lint.ctx_miss_per_cert.punycode",
    "lint.ctx_miss_per_cert.nfc",
];

/// Check span and metric names, in `NoncomplianceType::ALL` (Table 1)
/// order.
const CHECK_SPANS: [&str; 6] = [
    "lint.check.invalid_character",
    "lint.check.bad_normalization",
    "lint.check.illegal_format",
    "lint.check.invalid_encoding",
    "lint.check.invalid_structure",
    "lint.check.discouraged_field",
];
const CHECK_METRICS: [&str; 6] = [
    "lint.check_ns.invalid_character",
    "lint.check_ns.bad_normalization",
    "lint.check_ns.illegal_format",
    "lint.check_ns.invalid_encoding",
    "lint.check_ns.invalid_structure",
    "lint.check_ns.discouraged_field",
];

/// Every extension-derived cached value list.
fn ext_values<'c>(ctx: &'c LintContext<'_>) -> impl Iterator<Item = &'c CachedVal> {
    ctx.san_dns()
        .iter()
        .chain(ctx.san_rfc822())
        .chain(ctx.san_uri())
        .chain(ctx.smtp_mailboxes())
        .chain(ctx.ian_dns())
        .chain(ctx.ian_strings())
        .chain(ctx.aia_uris())
        .chain(ctx.sia_uris())
        .chain(ctx.crldp_uris())
        .chain(ctx.explicit_texts())
        .chain(ctx.cps_values())
}

/// Every cached value: DN attributes, then extension values.
fn all_values<'c>(ctx: &'c LintContext<'_>) -> impl Iterator<Item = &'c CachedVal> {
    ctx.dn_attrs(Which::Subject)
        .iter()
        .chain(ctx.dn_attrs(Which::Issuer))
        .map(|a| &a.val)
        .chain(ext_values(ctx))
}

/// Fill one cache family through its public accessors.
fn fill(ctx: &LintContext<'_>, family: usize) {
    match family {
        0 => {
            black_box(ctx.parsed_extensions());
            black_box(ext_values(ctx).count());
        }
        1 => {
            for v in all_values(ctx) {
                black_box((v.wire_text(), v.strict_ok()));
            }
        }
        2 => {
            let cn = unicert_asn1::oid::known::common_name();
            let names = ctx
                .san_dns()
                .iter()
                .chain(ctx.ian_dns())
                .chain(ctx.attr_vals(Which::Subject, &cn));
            for v in names {
                if let Some(text) = v.wire_text() {
                    black_box(ctx.any_ace_label(text, |_| false));
                }
            }
        }
        _ => {
            for v in all_values(ctx) {
                black_box(v.text_is_nfc());
            }
        }
    }
}

/// The checks `run_ctx` would run on this certificate (effective-date
/// gating applied).
fn applicable<'r>(
    registry: &'r Registry,
    ctx: &LintContext<'_>,
    opts: RunOptions,
) -> Vec<&'r Lint> {
    let issued = ctx.validity().not_before;
    registry
        .iter()
        .filter(|l| !(opts.enforce_effective_dates && issued < l.effective_date()))
        .collect()
}

/// One staged walk over `ders`, recording spans into `tr` (a disabled
/// tracer makes it the untraced twin). Each input's spans are children of
/// one `survey.input` span.
pub fn staged_loop(
    tr: &mut Tracer,
    ders: &[&[u8]],
    registry: &Registry,
    opts: RunOptions,
) -> Counts {
    let mut c = Counts::default();
    for (i, der) in ders.iter().enumerate() {
        let id = i as u64;
        tr.span("survey.input", id, |tr| {
            stage_one(tr, id, der, registry, opts, &mut c)
        });
    }
    c
}

fn stage_one(
    tr: &mut Tracer,
    id: u64,
    der: &[u8],
    registry: &Registry,
    opts: RunOptions,
    c: &mut Counts,
) {
    c.inputs += 1;
    let state = ParseBudget::default().start();
    let parsed = tr.span("x509.parse", id, |_| {
        CertView::parse_der_budgeted(der, &state)
    });
    c.elements += state.elements_used();
    c.tlv_bytes += state.tlv_bytes_used();
    let Ok(view) = parsed else { return };
    c.parsed += 1;
    black_box(tr.span("corpus.meta_infer", id, |_| CertMeta::inferred_view(&view)));
    if view.is_precertificate() {
        return;
    }
    c.certs += 1;

    let fresh = LintContext::from_view(&view);
    for (family, span) in FILL_SPANS.into_iter().enumerate() {
        tr.span(span, id, |_| fill(&fresh, family));
    }
    drop(fresh);

    let ctx = LintContext::from_view(&view);
    black_box(tr.span("lint.run_cold", id, |_| registry.run_ctx(&ctx, opts)));
    let stats = ctx.cache_stats();
    let pairs = [stats.san(), stats.dn_text(), stats.punycode(), stats.nfc()];
    for (slot, (hit, miss)) in c.misses.iter_mut().zip(pairs) {
        *slot += miss;
        c.hits += hit;
    }
    let warm = tr.span("lint.run_warm", id, |_| registry.run_ctx(&ctx, opts));
    c.findings += warm.findings.len() as u64;
    let checks = applicable(registry, &ctx, opts);
    c.checks += checks.len() as u64;
    tr.span("lint.checks_direct", id, |_| {
        for lint in &checks {
            black_box((lint.check)(&ctx));
        }
    });
    for (t, span) in NoncomplianceType::ALL.into_iter().zip(CHECK_SPANS) {
        tr.span(span, id, |_| {
            for lint in checks.iter().filter(|l| l.nc_type == t) {
                black_box((lint.check)(&ctx));
            }
        });
    }
    drop(ctx);

    let ctx = LintContext::from_view(&view);
    black_box(tr.span("core.classify", id, |_| {
        unicert::classify::classify_ctx(&ctx)
    }));
    black_box(tr.span("lint.run_after_classify", id, |_| {
        registry.run_ctx(&ctx, opts)
    }));
}

/// Serial `run_bytes` over the sample, then per-shard `run_bytes` reports
/// merged in shard order. Returns `(sample report, shards, merge matches)`.
pub fn survey_and_merge(tr: &mut Tracer, sample: &[Vec<u8>]) -> (SurveyReport, u64, bool) {
    let opts = survey_options(1);
    let budget = ParseBudget::default();
    let whole = tr.span("core.run_bytes", 0, |_| run_bytes(sample, opts, &budget));
    let shards: Vec<SurveyReport> = sample
        .chunks(SHARD_SIZE)
        .map(|chunk| run_bytes(chunk, opts, &budget))
        .collect();
    let count = shards.len() as u64;
    let merged = tr.span("core.merge", 0, |_| {
        let mut merged = SurveyReport::default();
        for shard in shards {
            merged.merge(shard);
        }
        merged
    });
    // Per-shard runs index quarantine entries from 0 within each shard, so
    // the merged report matches the serial one exactly only when nothing
    // is quarantined — which a correct run already requires.
    let matches = merged.fingerprint() == whole.fingerprint();
    (whole, count, matches)
}

/// Per-round samples of every per-layer metric, by name.
#[derive(Debug, Default)]
pub struct LayerSamples {
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl LayerSamples {
    /// Add one sample; non-finite values (an empty denominator) are skipped.
    pub fn push(&mut self, name: &'static str, value: f64) {
        if value.is_finite() {
            self.samples.entry(name).or_default().push(value);
        }
    }

    /// Samples of `name`.
    pub fn get(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }

    /// Record the staged-loop metrics of one round.
    pub fn push_staged(&mut self, totals: &HashMap<&'static str, Total>, c: &Counts) {
        let ns = |name: &str| totals.get(name).map_or(0, |t| t.ns) as f64;
        let inputs = c.inputs as f64;
        let parsed = c.parsed as f64;
        let certs = c.certs as f64;
        self.push("x509.parse_ns_per_input", ns("x509.parse") / inputs);
        self.push("asn1.elements_per_input", c.elements as f64 / inputs);
        self.push("asn1.tlv_bytes_per_input", c.tlv_bytes as f64 / inputs);
        self.push("x509.parse_ok_frac", parsed / inputs);
        self.push(
            "corpus.meta_infer_ns_per_cert",
            ns("corpus.meta_infer") / parsed,
        );
        self.push(
            "lint.ctx_fill_ns_per_cert",
            (ns("lint.run_cold") - ns("lint.run_warm")) / certs,
        );
        for family in 0..FILL_SPANS.len() {
            self.push(FILL_METRICS[family], ns(FILL_SPANS[family]) / certs);
            self.push(MISS_METRICS[family], c.misses[family] as f64 / certs);
        }
        let misses: u64 = c.misses.iter().sum();
        self.push(
            "lint.ctx_hit_frac",
            c.hits as f64 / (c.hits + misses) as f64,
        );
        self.push("lint.check_ns_per_cert", ns("lint.run_warm") / certs);
        for (metric, span) in CHECK_METRICS.into_iter().zip(CHECK_SPANS) {
            self.push(metric, ns(span) / certs);
        }
        self.push(
            "lint.runner_overhead_ns_per_cert",
            (ns("lint.run_warm") - ns("lint.checks_direct")) / certs,
        );
        self.push("lint.checks_per_cert", c.checks as f64 / certs);
        self.push("lint.findings_per_cert", c.findings as f64 / certs);
        self.push("core.classify_ns_per_cert", ns("core.classify") / certs);
    }

    /// Record the survey/merge metrics of one round. The aggregate stage is
    /// the residual of the serial survey after the staged calls that
    /// mirror it (parse, metadata, classify, lint in pipeline order).
    pub fn push_survey(&mut self, totals: &HashMap<&'static str, Total>, c: &Counts, shards: u64) {
        let ns = |name: &str| totals.get(name).map_or(0, |t| t.ns) as f64;
        let staged = ns("x509.parse")
            + ns("corpus.meta_infer")
            + ns("core.classify")
            + ns("lint.run_after_classify");
        self.push(
            "core.aggregate_ns_per_cert",
            (ns("core.run_bytes") - staged) / c.certs as f64,
        );
        self.push("core.merge_ns_per_shard", ns("core.merge") / shards as f64);
    }

    /// Record the store metrics of one round.
    pub fn push_store(
        &mut self,
        totals: &HashMap<&'static str, Total>,
        pass: &StorePass,
        cycles: u64,
        read: (u64, u64),
    ) {
        let ns = |name: &str| totals.get(name).map_or(0, |t| t.ns) as f64;
        let new = pass.inputs as f64;
        let (certs_read, shards) = (read.0 as f64, read.1 as f64);
        self.push("store.append_ns_per_cert", ns("store.append") / new);
        self.push(
            "store.segment_read_ns_per_cert",
            ns("store.segment_read") / certs_read,
        );
        self.push(
            "store.checkpoint_write_ns_per_shard",
            ns("store.checkpoint_write") / shards,
        );
        self.push(
            "store.checkpoint_read_ns_per_shard",
            ns("store.checkpoint_read") / shards,
        );
        self.push("store.resume_ns_per_new_cert", ns("store.resume") / new);
        self.push(
            "store.bytes_written_per_cert",
            pass.bytes_written as f64 / new,
        );
        self.push(
            "store.files_synced_per_batch",
            pass.files_synced as f64 / cycles as f64,
        );
    }
}
