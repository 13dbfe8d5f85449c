//! Differential fuzzing harness: hostile DER × nine library profiles.
//!
//! The fuzz entry point of this crate. Callers hand the harness a batch of
//! (possibly mutated) DER blobs under a label; [`run_class`] drives every
//! blob through the budgeted certificate parser, extracts each string
//! value the paper's nine-field study covers, and replays every value
//! against every [`LibraryProfile`] under a panic guard. The result is a
//! ParsEval-style [`ClassMatrix`]: per-profile outcome tallies, the count
//! of values on which the supporting libraries disagreed, and the escaped
//! panic count (which callers assert to be zero — the contract of the
//! whole chaos pipeline).
//!
//! [`run_class_sharded`] is the same computation fanned out over scoped
//! worker threads. Shards are merged in input order and every tally is a
//! plain sum over independent inputs, so the sharded matrix is
//! byte-identical to the serial one at any thread count — the determinism
//! invariant `bench_differential` and `tests/differential.rs` enforce.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use unicert_asn1::{ParseBudget, StringKind};
use unicert_x509::{reference, CertView, Certificate, GeneralName, ParsedExtension, RawValue};

use crate::context::{Field, ParseOutcome};
use crate::profiles::{all_profiles, LibraryProfile};

/// Per-profile outcome tallies for one batch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProfileCell {
    /// Values the library surfaced as text.
    pub text: usize,
    /// Values the library rejected with a parse error.
    pub error: usize,
    /// Values in fields or string kinds the library's APIs cannot surface
    /// (the `-` cells of Tables 4/12/13).
    pub unsupported: usize,
}

impl ProfileCell {
    fn absorb(&mut self, other: &ProfileCell) {
        self.text += other.text;
        self.error += other.error;
        self.unsupported += other.unsupported;
    }
}

/// The divergence matrix for one labelled batch (typically one chaos
/// mutation class).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClassMatrix {
    /// The batch label (mutation-class name).
    pub label: String,
    /// Inputs examined.
    pub inputs: usize,
    /// Inputs the budgeted parser rejected — no values to replay.
    pub unparsed: usize,
    /// String values extracted across all parsed inputs.
    pub values: usize,
    /// Per-profile tallies, keyed by library name (BTreeMap for a stable
    /// print order).
    pub cells: BTreeMap<&'static str, ProfileCell>,
    /// Values on which at least two supporting libraries returned
    /// different outcomes (error messages compared by category, not text).
    pub divergent: usize,
    /// Panics that crossed a profile or parser call. The invariant the
    /// harness exists to check: this must be zero.
    pub escaped_panics: usize,
}

impl ClassMatrix {
    fn new(label: &str) -> ClassMatrix {
        let mut cells = BTreeMap::new();
        for p in all_profiles() {
            cells.insert(p.name(), ProfileCell::default());
        }
        ClassMatrix { label: label.to_owned(), cells, ..ClassMatrix::default() }
    }

    /// Fold another shard of the same batch into this one. Tallies are
    /// sums over independent inputs, so folding in input order reproduces
    /// the serial matrix exactly.
    pub fn absorb(&mut self, other: &ClassMatrix) {
        debug_assert_eq!(self.label, other.label);
        self.inputs += other.inputs;
        self.unparsed += other.unparsed;
        self.values += other.values;
        for (name, cell) in &other.cells {
            self.cells.entry(name).or_default().absorb(cell);
        }
        self.divergent += other.divergent;
        self.escaped_panics += other.escaped_panics;
    }
}

/// One extracted string value: where it sat, its wire kind, its bytes.
/// Owns its bytes — extension values come out of transient
/// [`Extension::parse`] results, so borrowing is not an option.
struct ExtractedValue {
    field: Field,
    kind: StringKind,
    bytes: Vec<u8>,
}

fn extracted(field: Field, value: &RawValue) -> ExtractedValue {
    // Values under a tag no string type owns (mutated tags land here) are
    // replayed under the wire default for the context: IA5 in
    // GeneralNames, UTF-8 in names — the fallback real libraries apply.
    let fallback = if field.is_name() { StringKind::Utf8 } else { StringKind::Ia5 };
    let kind = StringKind::from_tag_number(value.tag_number).unwrap_or(fallback);
    ExtractedValue { field, kind, bytes: value.bytes.clone() }
}

/// Every string value of the parsed certificate the nine-field study
/// covers, in wire order.
fn extract_values(cert: &Certificate) -> Vec<ExtractedValue> {
    let mut out = Vec::new();
    for attr in cert.tbs.subject.attributes() {
        out.push(extracted(Field::SubjectDn, &attr.value));
    }
    for attr in cert.tbs.issuer.attributes() {
        out.push(extracted(Field::IssuerDn, &attr.value));
    }
    for ext in &cert.tbs.extensions {
        match ext.parse() {
            Ok(ParsedExtension::SubjectAltName(names)) => {
                // SAN is the only GeneralNames context split by form.
                for name in &names {
                    match name {
                        GeneralName::DnsName(v) => out.push(extracted(Field::SanDns, v)),
                        GeneralName::Rfc822Name(v) => out.push(extracted(Field::SanEmail, v)),
                        GeneralName::Uri(v) => out.push(extracted(Field::SanUri, v)),
                        _ => {}
                    }
                }
            }
            Ok(ParsedExtension::IssuerAltName(names)) => {
                for name in &names {
                    match name {
                        GeneralName::DnsName(v)
                        | GeneralName::Rfc822Name(v)
                        | GeneralName::Uri(v) => out.push(extracted(Field::Ian, v)),
                        _ => {}
                    }
                }
            }
            Ok(ParsedExtension::AuthorityInfoAccess(descs)) => {
                for d in &descs {
                    if let GeneralName::Uri(v) = &d.location {
                        out.push(extracted(Field::AiaUri, v));
                    }
                }
            }
            Ok(ParsedExtension::SubjectInfoAccess(descs)) => {
                for d in &descs {
                    if let GeneralName::Uri(v) = &d.location {
                        out.push(extracted(Field::SiaUri, v));
                    }
                }
            }
            Ok(ParsedExtension::CrlDistributionPoints(points)) => {
                for p in &points {
                    for name in &p.full_names {
                        if let GeneralName::Uri(v) = name {
                            out.push(extracted(Field::CrldpUri, v));
                        }
                    }
                }
            }
            _ => {}
        }
    }
    out
}

/// Outcome identity for divergence counting: texts compare by content,
/// errors compare as a category (each library words its diagnostics
/// differently by design — that is not a divergence).
#[derive(PartialEq, Eq)]
enum OutcomeKey {
    Text(String),
    Error,
}

/// Drive one batch of DER blobs through the budgeted parser and all nine
/// profiles, serially.
pub fn run_class(label: &str, ders: &[Vec<u8>], budget: &ParseBudget) -> ClassMatrix {
    run_slice(label, ders, budget, &all_profiles())
}

fn run_slice(
    label: &str,
    ders: &[Vec<u8>],
    budget: &ParseBudget,
    profiles: &[Box<dyn LibraryProfile>],
) -> ClassMatrix {
    let mut matrix = ClassMatrix::new(label);
    matrix.inputs = ders.len();
    for der in ders {
        let parsed = catch_unwind(AssertUnwindSafe(|| {
            Certificate::parse_der_budgeted(der, budget).ok()
        }));
        let cert = match parsed {
            Ok(Some(cert)) => cert,
            Ok(None) => {
                matrix.unparsed += 1;
                continue;
            }
            Err(_) => {
                matrix.escaped_panics += 1;
                matrix.unparsed += 1;
                continue;
            }
        };
        for value in extract_values(&cert) {
            matrix.values += 1;
            let mut keys: Vec<OutcomeKey> = Vec::with_capacity(profiles.len());
            for p in profiles {
                let cell = matrix.cells.entry(p.name()).or_default();
                if !p.supports(value.field) || !p.supports_kind(value.kind, value.field) {
                    cell.unsupported += 1;
                    continue;
                }
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    p.parse_value(value.kind, &value.bytes, value.field)
                }));
                match outcome {
                    Ok(ParseOutcome::Text(t)) => {
                        cell.text += 1;
                        keys.push(OutcomeKey::Text(t));
                    }
                    Ok(ParseOutcome::Error(_)) => {
                        cell.error += 1;
                        keys.push(OutcomeKey::Error);
                    }
                    Err(_) => {
                        matrix.escaped_panics += 1;
                    }
                }
            }
            if keys.windows(2).any(|w| w[0] != w[1]) {
                matrix.divergent += 1;
            }
        }
    }
    matrix
}

/// The sharded variant: split the batch into contiguous chunks, run each
/// on a scoped worker thread, and fold the shard matrices back together in
/// input order. Produces a matrix byte-identical to [`run_class`] at any
/// `threads` value.
pub fn run_class_sharded(
    label: &str,
    ders: &[Vec<u8>],
    budget: &ParseBudget,
    threads: usize,
) -> ClassMatrix {
    let threads = threads.max(1);
    if threads == 1 || ders.len() < 2 {
        return run_class(label, ders, budget);
    }
    let chunk = ders.len().div_ceil(threads);
    let shards: Vec<ClassMatrix> = std::thread::scope(|scope| {
        let handles: Vec<_> = ders
            .chunks(chunk)
            .map(|slice| {
                scope.spawn(move || run_slice(label, slice, budget, &all_profiles()))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("differential shard panicked")).collect()
    });
    let mut merged = ClassMatrix::new(label);
    for shard in &shards {
        merged.absorb(shard);
    }
    merged
}

/// Result of replaying one batch through both of this codebase's own
/// certificate decoders — the eager reference decoder
/// ([`unicert_x509::reference`]) and the zero-copy [`CertView`] decoder
/// every analysis path uses (the view-vs-reference oracle).
///
/// The two parsers are specified to be *byte-identical observers*: on
/// every input they must either both accept (producing structurally equal
/// certificate trees) or both reject with the same [`unicert_asn1::Error`]
/// value. `disagreed` counts inputs violating that contract; harness
/// callers assert it to be zero, exactly like `escaped_panics`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OracleReport {
    /// The batch label (mutation-class name).
    pub label: String,
    /// Inputs examined.
    pub inputs: usize,
    /// Inputs both parsers accepted with equal trees.
    pub both_accept: usize,
    /// Inputs both parsers rejected with equal errors.
    pub both_reject: usize,
    /// Inputs on which the parsers disagreed (acceptance, tree, or error).
    pub disagreed: usize,
    /// Panics that crossed either parser's guard; must be zero.
    pub escaped_panics: usize,
    /// Up to [`ORACLE_EXAMPLE_CAP`] human-readable disagreement examples.
    pub examples: Vec<String>,
}

/// How many disagreement descriptions an [`OracleReport`] retains.
pub const ORACLE_EXAMPLE_CAP: usize = 8;

impl OracleReport {
    /// Fold another shard of the same batch into this one (tallies are
    /// sums over independent inputs; examples keep the first
    /// [`ORACLE_EXAMPLE_CAP`] in input order).
    pub fn absorb(&mut self, other: &OracleReport) {
        debug_assert_eq!(self.label, other.label);
        self.inputs += other.inputs;
        self.both_accept += other.both_accept;
        self.both_reject += other.both_reject;
        self.disagreed += other.disagreed;
        self.escaped_panics += other.escaped_panics;
        for ex in &other.examples {
            if self.examples.len() >= ORACLE_EXAMPLE_CAP {
                break;
            }
            self.examples.push(ex.clone());
        }
    }
}

/// Replay `ders` through the reference decoder and the [`CertView`]
/// decoder and report where they disagree. Both parses run under the same
/// budget limits and a panic guard; an accepted view is materialized with
/// [`CertView::to_owned`] so the comparison covers the whole tree, not
/// just the accept/reject bit. ([`Certificate::parse_der_budgeted`] is the
/// view decode itself, so it cannot stand in for the reference.)
pub fn run_oracle(label: &str, ders: &[Vec<u8>], budget: &ParseBudget) -> OracleReport {
    let mut report = OracleReport { label: label.to_owned(), ..OracleReport::default() };
    report.inputs = ders.len();
    for (i, der) in ders.iter().enumerate() {
        let owned =
            catch_unwind(AssertUnwindSafe(|| reference::parse_der(der, Some(budget))));
        let viewed = catch_unwind(AssertUnwindSafe(|| {
            let state = budget.start();
            CertView::parse_der_budgeted(der, &state).map(|v| v.to_owned())
        }));
        let (owned, viewed) = match (owned, viewed) {
            (Ok(o), Ok(v)) => (o, v),
            _ => {
                report.escaped_panics += 1;
                continue;
            }
        };
        let example = match (&owned, &viewed) {
            (Ok(o), Ok(v)) if o == v => {
                report.both_accept += 1;
                continue;
            }
            (Err(eo), Err(ev)) if eo == ev => {
                report.both_reject += 1;
                continue;
            }
            (Ok(_), Ok(_)) => format!("input #{i}: both accept but trees differ"),
            (Ok(_), Err(ev)) => format!("input #{i}: reference accepts, view rejects ({ev:?})"),
            (Err(eo), Ok(_)) => format!("input #{i}: view accepts, reference rejects ({eo:?})"),
            (Err(eo), Err(ev)) => {
                format!("input #{i}: errors differ (reference {eo:?}, view {ev:?})")
            }
        };
        report.disagreed += 1;
        if report.examples.len() < ORACLE_EXAMPLE_CAP {
            report.examples.push(example);
        }
    }
    report
}

/// Sharded [`run_oracle`] — contiguous chunks on scoped worker threads,
/// folded in input order, byte-identical to the serial report at any
/// `threads` value. Examples included: each shard keeps at least its
/// earliest [`ORACLE_EXAMPLE_CAP`] disagreements (indexes rebased to the
/// batch), so folding in input order reproduces exactly the serial
/// report's first examples.
pub fn run_oracle_sharded(
    label: &str,
    ders: &[Vec<u8>],
    budget: &ParseBudget,
    threads: usize,
) -> OracleReport {
    let threads = threads.max(1);
    if threads == 1 || ders.len() < 2 {
        return run_oracle(label, ders, budget);
    }
    let chunk = ders.len().div_ceil(threads);
    let shards: Vec<OracleReport> = std::thread::scope(|scope| {
        let handles: Vec<_> = ders
            .chunks(chunk)
            .enumerate()
            .map(|(shard_idx, slice)| {
                scope.spawn(move || {
                    let mut shard = run_oracle(label, slice, budget);
                    // Rebase example indexes to the batch's input order so
                    // the merged report matches the serial one.
                    let base = shard_idx * chunk;
                    for ex in &mut shard.examples {
                        if let Some(rest) = ex.strip_prefix("input #") {
                            if let Some((idx, tail)) = rest.split_once(':') {
                                if let Ok(local) = idx.parse::<usize>() {
                                    *ex = format!("input #{}:{tail}", base + local);
                                }
                            }
                        }
                    }
                    shard
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("oracle shard panicked")).collect()
    });
    let mut merged = OracleReport { label: label.to_owned(), ..OracleReport::default() };
    for shard in &shards {
        merged.absorb(shard);
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use unicert_asn1::oid::known;
    use unicert_asn1::DateTime;
    use unicert_x509::{CertificateBuilder, SimKey};

    fn sample_ders() -> Vec<Vec<u8>> {
        let key = SimKey::from_seed("differential-harness-test");
        (0..6u8)
            .map(|i| {
                CertificateBuilder::new()
                    .serial(&[0x01, i + 1])
                    .subject_attr(known::organization_name(), StringKind::Utf8, "Beispiel GmbH")
                    .subject_cn(&format!("host{i}.example"))
                    .add_dns_san(&format!("host{i}.example"))
                    .validity_days(DateTime::date(2024, 1, 1).unwrap(), 90)
                    .build_signed(&key)
                    .raw
            })
            .collect()
    }

    #[test]
    fn clean_certs_extract_values_for_every_profile() {
        let ders = sample_ders();
        let m = run_class("clean", &ders, &ParseBudget::default());
        assert_eq!(m.inputs, 6);
        assert_eq!(m.unparsed, 0);
        assert_eq!(m.escaped_panics, 0);
        assert!(m.values > 0);
        assert_eq!(m.cells.len(), 9);
        // Every profile either handled or declined every value.
        for (name, cell) in &m.cells {
            assert_eq!(
                cell.text + cell.error + cell.unsupported,
                m.values,
                "{name} tallies do not cover all values"
            );
        }
    }

    #[test]
    fn garbage_is_counted_as_unparsed_not_a_crash() {
        let ders = vec![vec![0xde, 0xad, 0xbe, 0xef], Vec::new(), vec![0x30, 0x03, 0x01, 0x01, 0xff]];
        let m = run_class("garbage", &ders, &ParseBudget::default());
        assert_eq!(m.inputs, 3);
        assert_eq!(m.unparsed, 3);
        assert_eq!(m.values, 0);
        assert_eq!(m.escaped_panics, 0);
    }

    #[test]
    fn oracle_agrees_on_clean_and_garbage_inputs() {
        let mut ders = sample_ders();
        ders.push(vec![0xde, 0xad, 0xbe, 0xef]);
        ders.push(Vec::new());
        ders.push(vec![0x30, 0x03, 0x01, 0x01, 0xff]);
        let m = run_oracle("mix", &ders, &ParseBudget::default());
        assert_eq!(m.inputs, 9);
        assert_eq!(m.both_accept, 6);
        assert_eq!(m.both_reject, 3);
        assert_eq!(m.disagreed, 0, "{:?}", m.examples);
        assert_eq!(m.escaped_panics, 0);
        assert!(m.examples.is_empty());
    }

    #[test]
    fn sharded_oracle_is_byte_identical_to_serial() {
        let mut ders = sample_ders();
        for der in sample_ders() {
            // Truncations exercise the both-reject comparison.
            ders.push(der[..der.len() / 2].to_vec());
        }
        let budget = ParseBudget::default();
        let serial = run_oracle("mix", &ders, &budget);
        for threads in [1usize, 2, 3, 4, 8] {
            let sharded = run_oracle_sharded("mix", &ders, &budget, threads);
            assert_eq!(serial, sharded, "threads={threads}");
        }
    }

    #[test]
    fn sharded_matrix_is_byte_identical_to_serial() {
        let mut ders = sample_ders();
        ders.push(vec![0x00; 7]); // one unparseable straggler
        let budget = ParseBudget::default();
        let serial = run_class("mix", &ders, &budget);
        for threads in [1usize, 2, 3, 4, 8] {
            let sharded = run_class_sharded("mix", &ders, &budget, threads);
            assert_eq!(serial, sharded, "threads={threads}");
        }
    }
}
