//! Oracles for the lint layer's fast paths, written without their code.
//!
//! Four fast paths answer questions that a slower, obvious computation also
//! answers. Each test here keeps that obvious computation as its reference
//! and compares the two on inputs built to hit the fast path's edges:
//!
//! - the bidi rule's "no RTL code point" shortcut, against the rule as it
//!   read before the shortcut (classes recomputed from literal ranges);
//! - the one-decode [`LabelInfo`] verdict, against `classify_a_label`,
//!   `a_to_u` and a direct punycode-decode-and-NFC check;
//! - the classify stage's byte-level IDN test, against the wire decode plus
//!   `is_idn_domain` it replaced;
//! - the cached value's identity wire form and its `strict_ok`, against
//!   `decode_wire` and `decode_strict` for every string kind.
//!
//! [`LabelInfo`]: unicert::lint::context::LabelInfo

use unicert::asn1::oid::known;
use unicert::asn1::strings::ALL_KINDS;
use unicert::asn1::{DateTime, StringKind};
use unicert::classify::{classify_ctx, UnicertClass};
use unicert::corpus::{CorpusConfig, CorpusGenerator};
use unicert::idna::bidi::satisfies_bidi_rule;
use unicert::idna::label::{a_to_u, classify_a_label, has_ace_prefix, LabelError};
use unicert::idna::{is_idn_domain, punycode};
use unicert::lint::helpers::Which;
use unicert::lint::LintContext;
use unicert::unicode::nfc::is_nfc;
use unicert::unicode::GeneralCategory;
use unicert::x509::extensions::PolicyQualifier;
use unicert::x509::{
    Certificate, CertificateBuilder, GeneralName, ParsedExtension, RawValue, SimKey,
};

// --- Bidi rule ----------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RefClass {
    L,
    Rtl,
    En,
    An,
    Nsm,
    Other,
}

/// The bidi class as computed before the fast path, ranges spelled out.
fn ref_bidi_class(ch: char) -> RefClass {
    let cp = ch as u32;
    let rtl = (0x0590..=0x05FF).contains(&cp)
        || (0x0600..=0x06FF).contains(&cp)
        || (0x0700..=0x074F).contains(&cp)
        || (0x0750..=0x077F).contains(&cp)
        || (0x0780..=0x07BF).contains(&cp)
        || (0x07C0..=0x07FF).contains(&cp)
        || (0x08A0..=0x08FF).contains(&cp)
        || (0xFB1D..=0xFDFF).contains(&cp)
        || (0xFE70..=0xFEFF).contains(&cp)
        || (0x1EE00..=0x1EEFF).contains(&cp);
    if ch.is_ascii_digit() {
        return RefClass::En;
    }
    if (0x0660..=0x0669).contains(&cp) || (0x06F0..=0x06F9).contains(&cp) {
        return RefClass::An;
    }
    let cat = GeneralCategory::of(ch);
    if cat == GeneralCategory::NonspacingMark {
        return RefClass::Nsm;
    }
    if rtl {
        return RefClass::Rtl;
    }
    if cat.is_letter() {
        return RefClass::L;
    }
    RefClass::Other
}

/// `satisfies_bidi_rule` as it read before the fast path: one full pass.
fn ref_bidi_rule(label: &str) -> bool {
    let classes: Vec<RefClass> = label.chars().map(ref_bidi_class).collect();
    let Some(&first) = classes.first() else {
        return true;
    };
    let has = |c: RefClass| classes.contains(&c);
    if !has(RefClass::Rtl) && !has(RefClass::An) {
        return true;
    }
    if first != RefClass::Rtl {
        return false;
    }
    if has(RefClass::En) && has(RefClass::An) {
        return false;
    }
    if has(RefClass::L) {
        return false;
    }
    let last = classes.iter().rev().find(|&&c| c != RefClass::Nsm);
    matches!(
        last,
        Some(RefClass::Rtl) | Some(RefClass::En) | Some(RefClass::An)
    )
}

#[test]
fn bidi_fast_path_matches_reference_at_every_range_edge() {
    // Each pair straddles one boundary of the strong-RTL or Arabic-number
    // ranges; the window around it covers both sides.
    let edges: [(u32, u32); 11] = [
        (0x58F, 0x590),
        (0x5FF, 0x600),
        (0x65F, 0x66A),
        (0x6EF, 0x6FA),
        (0x8FF, 0x900),
        (0xFB1C, 0xFB1D),
        (0xFDFF, 0xFE00),
        (0xFE6F, 0xFE70),
        (0xFEFF, 0xFF00),
        (0x1EDFF, 0x1EE00),
        (0x1EEFF, 0x1EF00),
    ];
    let around = [
        "", "a", "1", "\u{5D0}", "\u{627}", "\u{661}", "\u{301}", "-", "a1",
    ];
    let mut checked = 0;
    for (lo, hi) in edges {
        for cp in lo.saturating_sub(1)..=hi + 1 {
            let Some(ch) = char::from_u32(cp) else {
                continue;
            };
            for before in around {
                for after in around {
                    let label = format!("{before}{ch}{after}");
                    assert_eq!(
                        satisfies_bidi_rule(&label),
                        ref_bidi_rule(&label),
                        "U+{cp:04X} in {label:?}"
                    );
                    checked += 1;
                }
            }
        }
    }
    // Labels that never touch an RTL range, where only the fast path runs.
    for label in [
        "",
        "münchen",
        "例え",
        "abc123",
        "\u{800}\u{89F}",
        "a\u{301}",
    ] {
        assert_eq!(
            satisfies_bidi_rule(label),
            ref_bidi_rule(label),
            "{label:?}"
        );
        assert!(satisfies_bidi_rule(label), "{label:?}");
    }
    assert!(checked > 4000, "only {checked} labels checked");
}

// --- One-decode label verdict -------------------------------------------

fn corpus(size: usize) -> Vec<Certificate> {
    let config = CorpusConfig {
        size,
        seed: 42,
        precert_fraction: 0.0,
        latent_defects: true,
    };
    CorpusGenerator::new(config).map(|e| e.cert).collect()
}

/// Every ACE-prefixed label in a certificate's CN, SAN and IAN DNSNames.
fn ace_labels(cert: &Certificate, out: &mut Vec<String>) {
    let ctx = LintContext::new(cert);
    let cn = known::common_name();
    let names = ctx
        .san_dns()
        .iter()
        .chain(ctx.ian_dns())
        .chain(ctx.attr_vals(Which::Subject, &cn));
    for v in names {
        if let Some(text) = v.wire_text() {
            out.extend(
                text.split('.')
                    .filter(|l| has_ace_prefix(l))
                    .map(str::to_owned),
            );
        }
    }
}

/// The non-NFC verdict computed the long way: the payload, lowercased and
/// punycode-decoded, is not NFC; or the full pipeline says so.
fn ref_non_nfc(label: &str) -> bool {
    let decoded = label
        .get(4..)
        .and_then(|p| punycode::decode(&p.to_ascii_lowercase()).ok());
    matches!(a_to_u(label), Err(LabelError::NotNfc)) || decoded.is_some_and(|u| !is_nfc(&u))
}

#[test]
fn label_info_matches_independent_pipeline_runs() {
    let mut labels = Vec::new();
    for cert in corpus(10_000) {
        ace_labels(&cert, &mut labels);
    }
    let corpus_labels = labels.len();
    assert!(
        corpus_labels > 1000,
        "corpus yielded only {corpus_labels} ACE labels"
    );
    let non_nfc = format!("xn--{}", punycode::encode("mu\u{308}nchen").unwrap());
    let long_non_nfc = format!("xn--{}", punycode::encode(&"mu\u{308}".repeat(30)).unwrap());
    labels.extend(
        [
            "XN--MNCHEN-3YA",
            "xn--MNCHEN-3ya",
            "xn--mnchen-3ya",
            "xn--tda",
            "xn---foo",
            "xn--abc-",
            "xn--",
            "xn--99999999999",
            "xn--a-ecp!",
            "xn--www-hn0a",
            "xn--mnchen-3yA",
            "xn--example-",
            non_nfc.as_str(),
            &non_nfc.to_uppercase(),
            long_non_nfc.as_str(),
        ]
        .map(str::to_owned),
    );
    let cert = CertificateBuilder::new()
        .validity_days(DateTime::date(2024, 6, 1).unwrap(), 90)
        .build_signed(&SimKey::from_seed("oracle"));
    let ctx = LintContext::new(&cert);
    let (mut any_non_nfc, mut any_mismatch) = (false, false);
    for label in &labels {
        let info = ctx.label_info(label);
        assert_eq!(info.status, classify_a_label(label), "{label}");
        assert_eq!(
            info.roundtrip_mismatch,
            matches!(a_to_u(label), Err(LabelError::RoundTripMismatch)),
            "{label}"
        );
        assert_eq!(info.non_nfc, ref_non_nfc(label), "{label}");
        any_non_nfc |= info.non_nfc;
        any_mismatch |= info.roundtrip_mismatch;
    }
    assert!(
        ctx.label_info(&long_non_nfc).non_nfc,
        "non-NFC label failing LDH first"
    );
    assert!(any_non_nfc && any_mismatch);
}

// --- Classify byte test ---------------------------------------------------

/// `classify_ctx` as it read before the byte test: every GeneralName string
/// wire-decoded and run through `is_idn_domain`.
fn ref_classify(ctx: &LintContext<'_>) -> UnicertClass {
    let has_unicode = |bytes: &[u8]| bytes.iter().any(|&b| !(0x20..=0x7E).contains(&b));
    let mut class = UnicertClass {
        has_unicode: false,
        has_idn: false,
    };
    for attr in ctx
        .dn_attrs(Which::Subject)
        .iter()
        .chain(ctx.dn_attrs(Which::Issuer))
    {
        class.has_unicode |= has_unicode(attr.val.bytes());
        if attr.oid == known::common_name() {
            if let Ok(text) = attr.val.raw().decode_wire() {
                class.has_idn |= is_idn_domain(&text);
            }
        }
    }
    for parsed in ctx.parsed_extensions().iter().flatten() {
        let names: Vec<&GeneralName> = match parsed {
            ParsedExtension::SubjectAltName(n) | ParsedExtension::IssuerAltName(n) => {
                n.iter().collect()
            }
            ParsedExtension::CrlDistributionPoints(dps) => {
                dps.iter().flat_map(|d| d.full_names.iter()).collect()
            }
            ParsedExtension::AuthorityInfoAccess(ads) | ParsedExtension::SubjectInfoAccess(ads) => {
                ads.iter().map(|a| &a.location).collect()
            }
            ParsedExtension::CertificatePolicies(ps) => {
                for q in ps.iter().flat_map(|p| p.qualifiers.iter()) {
                    if let PolicyQualifier::UserNotice {
                        explicit_text: Some(t),
                    } = q
                    {
                        class.has_unicode |= has_unicode(&t.bytes);
                    }
                }
                Vec::new()
            }
            _ => Vec::new(),
        };
        for n in names {
            match n {
                GeneralName::DnsName(v) => {
                    class.has_unicode |= has_unicode(&v.bytes);
                    if let Ok(text) = v.decode_wire() {
                        class.has_idn |= is_idn_domain(&text);
                    }
                }
                GeneralName::Rfc822Name(v) | GeneralName::Uri(v) => {
                    class.has_unicode |= has_unicode(&v.bytes);
                    if let Ok(text) = v.decode_wire() {
                        class.has_idn |= text.split(['@', '/']).any(is_idn_domain);
                    }
                }
                _ => {}
            }
        }
    }
    class
}

fn vector_certs() -> Vec<Certificate> {
    let root = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/vectors");
    let mut certs = Vec::new();
    for dir in ["webpki", "bimi", "malformed"] {
        let entries = std::fs::read_dir(root.join(dir)).expect("vector dir readable");
        let mut paths: Vec<_> = entries.map(|e| e.expect("dir entry").path()).collect();
        paths.sort();
        for path in paths
            .iter()
            .filter(|p| p.extension().is_some_and(|x| x == "der"))
        {
            let der = std::fs::read(path).expect("vector readable");
            certs.extend(Certificate::parse_der(&der).ok());
        }
    }
    certs
}

/// Certificates whose GeneralName strings sit on the byte test's edges.
fn crafted_certs() -> Vec<Certificate> {
    let names: [&[u8]; 12] = [
        b"xn--mnchen-3ya.de",
        b"XN--MNCHEN-3YA.DE",
        b"a.Xn--b",
        b"xn-.example",
        b"xn--",
        b"..xn--a..",
        b"mail@xn--bcher-kva.example",
        b"https://xn--bcher-kva.example/x",
        b"a@b/xn--c",
        b"caf\xe9.example",
        b"plain.example",
        b"",
    ];
    let mut certs = Vec::new();
    for name in names {
        let raw = || RawValue::from_raw(StringKind::Ia5, name);
        let cert = CertificateBuilder::new()
            .validity_days(DateTime::date(2024, 6, 1).unwrap(), 90)
            .subject_attr_raw(known::common_name(), StringKind::Utf8, name)
            .add_san(GeneralName::DnsName(raw()))
            .add_san(GeneralName::Rfc822Name(raw()))
            .add_san(GeneralName::Uri(raw()))
            .build_signed(&SimKey::from_seed("oracle"));
        certs.push(cert);
    }
    certs
}

#[test]
fn classify_byte_test_matches_decode_reference() {
    let mut certs = corpus(10_000);
    let generated = certs.len();
    // Mutated copies of the first certificates: those that still parse
    // carry damaged strings the generator never writes.
    let mut mutator = unicert_chaos::Mutator::new(7);
    let classes = unicert_chaos::MutationClass::ALL;
    let mutated: Vec<Vec<u8>> = certs
        .iter()
        .take(2_000)
        .enumerate()
        .map(|(i, c)| mutator.mutate(&c.raw, classes[i % classes.len()]))
        .collect();
    certs.extend(
        mutated
            .iter()
            .filter_map(|der| Certificate::parse_der(der).ok()),
    );
    certs.extend(vector_certs());
    certs.extend(crafted_certs());
    let (mut idn, mut unicode) = (0, 0);
    for (i, cert) in certs.iter().enumerate() {
        let ctx = LintContext::new(cert);
        let got = classify_ctx(&ctx);
        assert_eq!(
            got,
            ref_classify(&ctx),
            "certificate #{i} (first {generated} generated)"
        );
        idn += usize::from(got.has_idn);
        unicode += usize::from(got.has_unicode);
    }
    assert!(idn > 0 && unicode > 0 && idn < certs.len());
}

// --- Identity wire form and strict_ok -------------------------------------

#[test]
fn cached_wire_text_and_strict_ok_match_decoders_for_every_kind() {
    let inputs: [&[u8]; 13] = [
        b"",
        b"Plain ASCII 123",
        b"a@b_c",
        b"user@example",
        b"\x00\x1f\x7f",
        b"caf\xe9",
        b"\xff\xfe",
        "Müller".as_bytes(),
        "中文".as_bytes(),
        b"\xc3\x28",
        &[0x00, 0x41, 0x00, 0x42],
        &[0xD8, 0x00],
        &[0x00, 0x01, 0xF6, 0x00, 0x00, 0x11, 0x00, 0x00],
    ];
    let mut decodable = 0;
    for kind in ALL_KINDS {
        let mut builder =
            CertificateBuilder::new().validity_days(DateTime::date(2024, 6, 1).unwrap(), 90);
        for bytes in inputs {
            builder = builder.subject_attr_raw(known::organization_name(), kind, bytes);
        }
        let cert = builder.build_signed(&SimKey::from_seed("oracle"));
        let ctx = LintContext::new(&cert);
        let vals: Vec<_> = ctx
            .attr_vals(Which::Subject, &known::organization_name())
            .collect();
        assert_eq!(vals.len(), inputs.len(), "{kind:?}");
        for (v, bytes) in vals.into_iter().zip(inputs) {
            assert_eq!(v.bytes(), bytes);
            let wire = kind.decode_wire(bytes).ok();
            let strict = kind.decode_strict(bytes).is_ok();
            // Both orders of first use fill the shared memo.
            if bytes.len() % 2 == 0 {
                assert_eq!(v.strict_ok(), strict, "{kind:?} {bytes:?}");
                assert_eq!(v.wire_text(), wire.as_deref(), "{kind:?} {bytes:?}");
            } else {
                assert_eq!(v.wire_text(), wire.as_deref(), "{kind:?} {bytes:?}");
                assert_eq!(v.strict_ok(), strict, "{kind:?} {bytes:?}");
            }
            assert_eq!(
                v.wire_text(),
                wire.as_deref(),
                "{kind:?} {bytes:?} (memoized)"
            );
            assert_eq!(v.strict_ok(), v.raw().decode_strict().is_ok());
            decodable += usize::from(wire.is_some());
        }
    }
    assert!(decodable > 0);
}
