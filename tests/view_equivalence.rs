//! View-vs-reference equivalence suite: [`CertView`] decodes exactly what
//! the eager reference decoder does.
//!
//! `Certificate::parse_der` is itself the view decode plus a copy, so the
//! owned side of every comparison here comes from the independent eager
//! walk in [`reference`]. The view must be *observationally identical* to
//! it — every accessor of a parsed view equals the corresponding
//! [`Certificate`] field, rejected inputs fail with the very same
//! [`Error`] value, [`Certificate::view`] inverts [`CertView::to_owned`],
//! and a lint run over a view-backed context produces findings
//! byte-identical to the owned context. Three layers of evidence:
//!
//! - a fixed-seed 10 000-certificate corpus sweep (the survey benchmark's
//!   generator, latent defects on, precertificates included) checking
//!   every accessor, the full-tree [`CertView::to_owned`] bridge, and the
//!   complete default registry on every certificate;
//! - every committed golden vector (`tests/vectors/webpki` +
//!   `tests/vectors/bimi`) through the same assertions, plus one crafted
//!   certificate whose names hold multi-valued and empty RDNs, which the
//!   generator never writes;
//! - the committed malformed vectors plus all ten chaos mutation classes
//!   through the view-vs-reference oracle: same accept/reject decision,
//!   same error value, same [`Error::class`] on every input.
//!
//! Any divergence here means the zero-copy path changed analysis
//! semantics — the perf work's one forbidden failure mode.

use std::path::PathBuf;
use unicert::corpus::{BimiConfig, BimiGenerator, CorpusConfig, CorpusGenerator};
use unicert::lint::{default_registry, LintContext, RunOptions};
use unicert::parsers::differential::run_oracle;
use unicert::x509::{
    reference, AttributeTypeAndValue, CertView, Certificate, CertificateBuilder,
    DistinguishedName, Rdn, SimKey,
};
use unicert_asn1::oid::known;
use unicert_asn1::{DateTime, Error, ParseBudget, StringKind};
use unicert_chaos::{MutationClass, Mutator};

fn vectors_dir(profile: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/vectors").join(profile)
}

/// Every `.der` under one committed vector directory, sorted by name.
fn vector_ders(profile: &str) -> Vec<(String, Vec<u8>)> {
    let dir = vectors_dir(profile);
    let mut out = Vec::new();
    for entry in std::fs::read_dir(&dir)
        .unwrap_or_else(|_| panic!("missing vector dir {}", dir.display()))
    {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "der") {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            out.push((name, std::fs::read(&path).unwrap()));
        }
    }
    out.sort();
    assert!(!out.is_empty(), "no vectors under {}", dir.display());
    out
}

/// Assert every accessor of the borrowed view against the reference parse
/// of the same DER, field by field, then the whole tree at once.
fn assert_view_matches_owned(label: &str, der: &[u8], cert: &Certificate) {
    let state = ParseBudget::default().start();
    let view = CertView::parse_der_budgeted(der, &state)
        .unwrap_or_else(|e| panic!("{label}: reference parses but view rejects ({e:?})"));

    // TBS scalars.
    assert_eq!(view.version, cert.tbs.version, "{label}: version");
    assert_eq!(view.serial, cert.tbs.serial.as_slice(), "{label}: serial");
    assert_eq!(
        view.tbs_signature_algorithm.to_owned(),
        cert.tbs.signature_algorithm,
        "{label}: tbs signature algorithm"
    );
    assert_eq!(view.validity, cert.tbs.validity, "{label}: validity");

    // Distinguished names: structural equality plus the derived accessors
    // the lints actually call.
    for (which, dn_view, dn) in [
        ("issuer", &view.issuer, &cert.tbs.issuer),
        ("subject", &view.subject, &cert.tbs.subject),
    ] {
        assert_eq!(&dn_view.to_owned(), dn, "{label}: {which} tree");
        assert_eq!(dn_view.is_empty(), dn.is_empty(), "{label}: {which} is_empty");
        assert_eq!(dn_view.common_name(), dn.common_name(), "{label}: {which} cn");
        assert_eq!(dn_view.organization(), dn.organization(), "{label}: {which} org");
        let view_attrs: Vec<_> = dn_view.attributes().map(|a| a.raw_value()).collect();
        let owned_attrs: Vec<_> = dn.attributes().map(|a| a.value.clone()).collect();
        assert_eq!(view_attrs, owned_attrs, "{label}: {which} attributes");
        for (va, oa) in dn_view.attributes().zip(dn.attributes()) {
            assert_eq!(va.oid, oa.oid, "{label}: {which} attr oid");
            assert_eq!(va.display_lossy(), oa.value.display_lossy(), "{label}: {which} attr text");
            assert_eq!(dn_view.count_of(&va.oid), dn.count_of(&va.oid), "{label}: count_of");
        }
    }

    // SPKI.
    assert_eq!(view.spki.to_owned(), cert.tbs.spki, "{label}: spki");
    assert_eq!(
        view.spki.public_key_unused_bits, cert.tbs.spki.public_key.unused_bits,
        "{label}: spki unused bits"
    );
    assert_eq!(
        view.spki.public_key,
        cert.tbs.spki.public_key.bytes.as_slice(),
        "{label}: spki key bytes"
    );

    // Extensions: frame fields, lazy parse results, and lookup.
    assert_eq!(view.extensions.len(), cert.tbs.extensions.len(), "{label}: ext count");
    for (ve, oe) in view.extensions.iter().zip(&cert.tbs.extensions) {
        assert_eq!(ve.oid, oe.oid, "{label}: ext oid");
        assert_eq!(ve.critical, oe.critical, "{label}: ext critical");
        assert_eq!(ve.value, oe.value.as_slice(), "{label}: ext value");
        assert_eq!(ve.parse().ok(), oe.parse().ok(), "{label}: ext parse");
        assert_eq!(
            view.extension(&ve.oid).map(|e| e.value),
            cert.tbs.extension(&ve.oid).map(|e| e.value.as_slice()),
            "{label}: ext lookup"
        );
    }
    assert_eq!(
        view.is_precertificate(),
        cert.tbs.is_precertificate(),
        "{label}: precert poison"
    );

    // Signature and raw spans.
    assert_eq!(
        view.signature_algorithm.to_owned(),
        cert.signature_algorithm,
        "{label}: signature algorithm"
    );
    assert_eq!(
        view.signature_unused_bits, cert.signature.unused_bits,
        "{label}: signature unused bits"
    );
    assert_eq!(view.signature, cert.signature.bytes.as_slice(), "{label}: signature bytes");
    assert_eq!(view.raw_tbs, cert.raw_tbs.as_slice(), "{label}: raw_tbs");
    assert_eq!(view.raw, cert.raw.as_slice(), "{label}: raw");

    // The whole tree at once, through the bridge `Certificate::parse_der`
    // uses.
    assert_eq!(&view.to_owned(), cert, "{label}: to_owned tree");
    // And back: borrowing the owned tree inverts the bridge.
    assert_eq!(cert.view().to_owned(), *cert, "{label}: view round trip");

    // And the end-to-end consumer: a full default-registry run over a
    // view-backed context is byte-identical to the owned context.
    let registry = default_registry();
    let owned_findings = registry.run_ctx(&LintContext::new(cert), RunOptions::default());
    let view_findings =
        registry.run_ctx(&LintContext::from_view(&view), RunOptions::default());
    assert_eq!(view_findings.findings, owned_findings.findings, "{label}: lint findings");
}

#[test]
fn seeded_10k_corpus_views_match_owned() {
    let corpus = CorpusGenerator::new(CorpusConfig {
        size: 10_000,
        seed: 42,
        precert_fraction: 0.05,
        latent_defects: true,
    });
    let mut checked = 0usize;
    for (i, entry) in corpus.enumerate() {
        // Full accessor + registry sweep on a deterministic sample (the
        // registry run dominates); every certificate still gets the parse
        // and full-tree comparison.
        let der = &entry.cert.raw;
        let cert = reference::parse_der(der, None).expect("generated cert reparses");
        if i % 100 == 0 {
            assert_view_matches_owned(&format!("corpus[{i}]"), der, &cert);
        } else {
            let state = ParseBudget::default().start();
            let view = CertView::parse_der_budgeted(der, &state).expect("view parses");
            assert_eq!(view.to_owned(), cert, "corpus[{i}]: to_owned tree");
        }
        checked += 1;
    }
    // Precertificate pairs can push the stream slightly past `size`.
    assert!(checked >= 10_000, "only {checked} certificates checked");
}

#[test]
fn golden_webpki_vectors_views_match_owned() {
    for (name, der) in vector_ders("webpki") {
        let cert = reference::parse_der(&der, None)
            .unwrap_or_else(|e| panic!("{name}: golden vector does not parse ({e:?})"));
        assert_view_matches_owned(&name, &der, &cert);
    }
}

#[test]
fn multi_valued_and_empty_rdns_match_reference() {
    let atv = |oid, text| AttributeTypeAndValue::new(oid, StringKind::Utf8, text);
    let subject = DistinguishedName {
        rdns: vec![
            Rdn {
                attributes: vec![
                    atv(known::common_name(), "multi.example"),
                    atv(known::organization_name(), "Example"),
                ],
            },
            Rdn { attributes: Vec::new() },
            Rdn { attributes: vec![atv(known::country_name(), "DE")] },
            Rdn {
                attributes: vec![
                    atv(known::organizational_unit(), "Unit"),
                    atv(known::locality_name(), "Köln"),
                    atv(known::state_or_province(), "NRW"),
                ],
            },
            Rdn { attributes: Vec::new() },
        ],
    };
    let issuer = DistinguishedName {
        rdns: vec![
            Rdn { attributes: Vec::new() },
            Rdn { attributes: vec![atv(known::common_name(), "Issuer R1")] },
        ],
    };
    let der = CertificateBuilder::new()
        .validity_days(DateTime::date(2024, 6, 1).unwrap(), 90)
        .subject(subject)
        .issuer(issuer)
        .add_dns_san("multi.example")
        .build_signed(&SimKey::from_seed("rdn-shapes"))
        .raw;
    let cert = reference::parse_der(&der, None).expect("crafted certificate parses");
    assert_view_matches_owned("multi_valued_and_empty_rdns", &der, &cert);
    let view = CertView::parse_der(&der).expect("view parses");
    let shape = |rdns: Vec<&[unicert::x509::AttrView<'_>]>| -> Vec<usize> {
        rdns.iter().map(|r| r.len()).collect()
    };
    assert_eq!(shape(view.subject.rdns().collect()), [2, 0, 1, 3, 0]);
    assert_eq!(shape(view.issuer.rdns().collect()), [0, 1]);
    assert_eq!(view.subject.rdn_count(), 5);
}

#[test]
fn golden_bimi_vectors_views_match_owned() {
    for (name, der) in vector_ders("bimi") {
        let cert = reference::parse_der(&der, None)
            .unwrap_or_else(|e| panic!("{name}: golden vector does not parse ({e:?})"));
        assert_view_matches_owned(&name, &der, &cert);
    }
}

/// Both decoders must reject a malformed input with the *same* error value
/// (and therefore the same [`Error::class`]).
#[test]
fn malformed_vectors_reject_identically() {
    let budget = ParseBudget::default();
    let mut rejected = 0usize;
    for (name, der) in vector_ders("malformed") {
        let owned = reference::parse_der(&der, Some(&budget));
        let state = budget.start();
        let viewed = CertView::parse_der_budgeted(&der, &state);
        match (&owned, &viewed) {
            (Ok(_), Ok(_)) => {}
            (Err(eo), Err(ev)) => {
                assert_eq!(eo, ev, "{name}: error values differ");
                assert_eq!(
                    Error::class(eo),
                    Error::class(ev),
                    "{name}: error classes differ"
                );
                rejected += 1;
            }
            _ => panic!(
                "{name}: parsers disagree on acceptance (reference {:?}, view {:?})",
                owned.as_ref().map(|_| ()),
                viewed.as_ref().map(|_| ())
            ),
        }
    }
    assert!(rejected > 0, "malformed vectors exercised no rejection at all");
}

/// The mixed webpki+bimi seed corpus itself, then all ten chaos mutation
/// classes over it, through the harness's view-vs-reference oracle: zero
/// disagreements, zero escaped panics. The unmutated batch keeps the
/// oracle's accept-side comparison exercised on every field: the mutants
/// that still parse need not carry, say, a critical extension.
#[test]
fn chaos_mutants_agree_across_parsers() {
    let seed = 42u64;
    let mut base: Vec<Vec<u8>> = CorpusGenerator::new(CorpusConfig {
        size: 150,
        seed,
        precert_fraction: 0.0,
        latent_defects: true,
    })
    .map(|e| e.cert.raw)
    .collect();
    base.extend(
        BimiGenerator::new(BimiConfig { size: 40, seed, ..BimiConfig::default() })
            .map(|e| e.cert.raw),
    );
    let budget = ParseBudget::default();
    let mutated = MutationClass::ALL.into_iter().enumerate().map(|(class_idx, class)| {
        let mut mutator = Mutator::new(seed.wrapping_add(class_idx as u64));
        (class.label(), base.iter().map(|der| mutator.mutate(der, class)).collect())
    });
    for (label, batch) in std::iter::once(("unmutated", base.clone())).chain(mutated) {
        let report = run_oracle(label, &batch, &budget);
        assert_eq!(report.escaped_panics, 0, "{label}: escaped panics");
        assert_eq!(report.disagreed, 0, "{label}: parsers disagreed: {:?}", report.examples);
        assert_eq!(report.inputs, base.len(), "{label}: inputs");
    }
}
