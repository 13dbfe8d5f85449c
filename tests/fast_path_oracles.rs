//! Oracles for the lint layer's fast paths, written without their code.
//!
//! Each fast path here answers a question that a slower, obvious
//! computation also answers. Each test keeps that obvious computation as
//! its reference and compares the two on inputs built to hit the fast
//! path's edges:
//!
//! - the bidi rule's "no RTL code point" shortcut, against the rule as it
//!   read before the shortcut (classes recomputed from literal ranges);
//! - the one-decode [`LabelInfo`] verdict, against `classify_a_label`,
//!   `a_to_u` and a direct punycode-decode-and-NFC check;
//! - the classify stage's byte-level IDN test, against the wire decode plus
//!   `is_idn_domain` it replaced;
//! - the cached value's identity wire form and its `strict_ok`, against
//!   `decode_wire` and `decode_strict` for every string kind;
//! - the cached value's printable-ASCII bit, against `helpers::free_of`
//!   and a decode of the raw bytes, for every character predicate routed
//!   through it;
//! - the cached value's ACE-label memo, against splitting its wire text;
//! - the DN presence mask behind `attr_vals`, against a linear filter of
//!   `dn_attrs`;
//! - the fixed-array timestamp digits, against the `Vec`-based parser they
//!   replaced;
//! - `Reader::read_tlv`, against a TLV header decoder written here from
//!   X.690 (it shares no code with the reader, which the reference
//!   certificate decoder also goes through).
//!
//! [`LabelInfo`]: unicert::lint::context::LabelInfo

use unicert::asn1::oid::known;
use unicert::asn1::strings::ALL_KINDS;
use unicert::asn1::{
    BudgetState, Class, DateTime, Error, Oid, ParseBudget, Reader, StringKind, Tag, Tlv,
};
use unicert::classify::{classify_ctx, UnicertClass};
use unicert::corpus::{CorpusConfig, CorpusGenerator};
use unicert::idna::bidi::satisfies_bidi_rule;
use unicert::idna::label::{a_to_u, classify_a_label, has_ace_prefix, LabelError};
use unicert::idna::{is_idn_domain, punycode};
use unicert::lint::context::{CachedVal, LabelInfo};
use unicert::lint::helpers::{self, Which};
use unicert::lint::LintContext;
use unicert::unicode::classify;
use unicert::unicode::nfc::is_nfc;
use unicert::unicode::GeneralCategory;
use unicert::x509::extensions::PolicyQualifier;
use unicert::x509::{
    AttributeTypeAndValue, Certificate, CertificateBuilder, DistinguishedName, GeneralName,
    ParsedExtension, RawValue, Rdn, SimKey,
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
        let org = known::organization_name();
        let vals: Vec<_> = ctx.attr_vals(Which::Subject, &org).collect();
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

// --- Per-value facts ------------------------------------------------------

/// The generated corpus, 2 000 chaos mutants of it that still parse, the
/// committed vectors and the crafted certificates.
fn mixed_certs() -> Vec<Certificate> {
    let mut certs = corpus(10_000);
    let mut mutator = unicert_chaos::Mutator::new(11);
    let classes = unicert_chaos::MutationClass::ALL;
    let mutated: Vec<Vec<u8>> = certs
        .iter()
        .take(2_000)
        .enumerate()
        .map(|(i, c)| mutator.mutate(&c.raw, classes[i % classes.len()]))
        .collect();
    certs.extend(mutated.iter().filter_map(|der| Certificate::parse_der(der).ok()));
    certs.extend(vector_certs());
    certs.extend(crafted_certs());
    certs.extend(byte_edge_certs());
    certs
}

/// One certificate per string kind whose subject holds `a` + every byte
/// value, so each byte meets each kind's decode once.
fn byte_edge_certs() -> Vec<Certificate> {
    ALL_KINDS
        .iter()
        .map(|&kind| {
            let mut builder =
                CertificateBuilder::new().validity_days(DateTime::date(2024, 6, 1).unwrap(), 90);
            for b in 0..=u8::MAX {
                builder = builder.subject_attr_raw(known::organization_name(), kind, &[b'a', b]);
            }
            builder.build_signed(&SimKey::from_seed("oracle"))
        })
        .collect()
}

/// Every cached value a context holds: both DNs, then every
/// extension-derived list.
fn every_value<'c>(ctx: &'c LintContext<'_>) -> Vec<&'c CachedVal> {
    let dn = [Which::Subject, Which::Issuer]
        .into_iter()
        .flat_map(|which| ctx.dn_attrs(which).iter().map(|a| &a.val));
    let lists = [
        ctx.san_dns(),
        ctx.san_rfc822(),
        ctx.san_uri(),
        ctx.smtp_mailboxes(),
        ctx.ian_dns(),
        ctx.ian_strings(),
        ctx.aia_uris(),
        ctx.sia_uris(),
        ctx.crldp_uris(),
        ctx.explicit_texts(),
        ctx.cps_values(),
    ];
    dn.chain(lists.into_iter().flatten()).collect()
}

/// A character class, as the lint catalog tests it.
type CharPredicate = fn(char) -> bool;

/// The character predicates the catalog answers through
/// `CachedVal::free_of_unprintable`.
const UNPRINTABLE_PREDICATES: [(&str, CharPredicate); 5] = [
    ("nul", |c| c == '\u{0}'),
    ("bidi_control", classify::is_bidi_control),
    ("zero_width", classify::is_zero_width),
    ("control", classify::is_control),
    ("nonstandard_whitespace", classify::is_nonstandard_whitespace),
];

#[test]
fn unprintable_predicates_are_false_on_printable_ascii() {
    for (name, bad) in UNPRINTABLE_PREDICATES {
        for c in ' '..='~' {
            assert!(!bad(c), "{name} accepts {c:?}, so the printable-ASCII bit cannot answer it");
        }
    }
}

#[test]
fn printable_ascii_bit_matches_decoded_text() {
    let (mut values, mut ascii) = (0usize, 0usize);
    for cert in mixed_certs() {
        let ctx = LintContext::new(&cert);
        for v in every_value(&ctx) {
            // The bit, recomputed: the wire decode is the bytes
            // themselves and every byte is printable ASCII.
            let decoded = v.kind().and_then(|k| k.decode_wire(v.bytes()).ok());
            let expect_bit = decoded.as_deref().is_some_and(|t| {
                t.as_bytes() == v.bytes() && t.bytes().all(|b| (0x20..=0x7E).contains(&b))
            });
            assert_eq!(v.is_printable_ascii(), expect_bit, "bit of {:?}", v.raw());
            for (name, bad) in UNPRINTABLE_PREDICATES {
                let fast = v.free_of_unprintable(bad);
                assert_eq!(fast, helpers::free_of(v, bad), "{name} on {:?}", v.raw());
                let slow = decoded.as_deref().is_none_or(|t| !t.chars().any(bad));
                assert_eq!(fast, slow, "{name} on {:?} (raw decode)", v.raw());
            }
            values += 1;
            ascii += usize::from(expect_bit);
        }
    }
    assert!(ascii > 1000 && values - ascii > 1000, "{ascii} of {values} values printable");
}

/// An ACE prefix, spelled out: the first four bytes are `xn--` in any case.
fn ref_ace_prefix(label: &str) -> bool {
    label.as_bytes().get(..4).is_some_and(|p| p.eq_ignore_ascii_case(b"xn--"))
}

/// Certificates whose DNS-bearing values sit on the ACE memo's edges.
fn ace_edge_certs() -> Vec<Certificate> {
    let texts = [
        "XN--MNCHEN-3YA.DE",
        "a.Xn--b",
        "xn--",
        "..",
        ".",
        "",
        "a..xn--c.",
        ".XN--b",
        "xn-.xn-",
        "x.n--a",
        "münchen.xn--tda",
    ];
    let mut certs = Vec::new();
    for text in texts {
        let mut builder = CertificateBuilder::new()
            .validity_days(DateTime::date(2024, 6, 1).unwrap(), 90)
            .subject_attr(known::common_name(), StringKind::Bmp, text)
            .subject_attr(known::common_name(), StringKind::Universal, text)
            .subject_attr(known::common_name(), StringKind::Utf8, text);
        for kind in [StringKind::Ia5, StringKind::Bmp, StringKind::Utf8] {
            builder = builder.add_san(GeneralName::DnsName(RawValue::from_text(kind, text)));
        }
        certs.push(builder.build_signed(&SimKey::from_seed("oracle")));
    }
    certs
}

#[test]
fn ace_label_memo_matches_splitting_the_wire_text() {
    let preds: [fn(LabelInfo) -> bool; 3] = [|_| true, |i| i.non_nfc, |i| i.roundtrip_mismatch];
    let (mut values, mut with_ace) = (0usize, 0usize);
    let mut certs = mixed_certs();
    certs.extend(ace_edge_certs());
    for cert in &certs {
        let ctx = LintContext::new(cert);
        for v in every_value(&ctx) {
            let text = v.kind().and_then(|k| k.decode_wire(v.bytes()).ok());
            let expect = text.as_deref().is_some_and(|t| t.split('.').any(ref_ace_prefix));
            assert_eq!(v.has_ace_label(), expect, "{:?}", v.raw());
            for pred in preds {
                let slow = v.wire_text().is_some_and(|t| ctx.any_ace_label(t, pred));
                assert_eq!(ctx.any_ace_label_of(v, pred), slow, "{:?}", v.raw());
            }
            values += 1;
            with_ace += usize::from(expect);
        }
    }
    assert!(with_ace > 100 && values - with_ace > 1000, "{with_ace} of {values} values with ACE");
}

/// Certificates whose DNs carry attribute types the presence mask treats
/// specially: `id-at` arcs at and beyond the mask's width, the bare `id-at`
/// arc, and types outside `id-at`.
fn mask_edge_certs() -> Vec<Certificate> {
    let oid = |arcs: &[u64]| Oid::from_arcs(arcs).unwrap();
    let unusual = [
        oid(&[2, 5, 4, 62]),
        oid(&[2, 5, 4, 63]),
        oid(&[2, 5, 4, 64]),
        oid(&[2, 5, 4, 127]),
        oid(&[2, 5, 4, 128]),
        oid(&[2, 5, 4, 300]),
        oid(&[2, 5, 4, 3, 1]),
        oid(&[2, 5, 5, 3]),
        oid(&[1, 2, 3, 4]),
    ];
    let atv = |oid: &Oid| AttributeTypeAndValue::new(oid.clone(), StringKind::Utf8, "v");
    let mut certs = Vec::new();
    for (i, extra) in unusual.iter().enumerate() {
        // One unusual type alone, then beside a common one in a
        // multi-valued RDN, then after an empty RDN.
        let subject = DistinguishedName {
            rdns: vec![
                Rdn { attributes: vec![atv(extra)] },
                Rdn { attributes: vec![atv(&known::common_name()), atv(extra)] },
                Rdn { attributes: Vec::new() },
                Rdn { attributes: vec![atv(&unusual[(i + 1) % unusual.len()])] },
            ],
        };
        let cert = CertificateBuilder::new()
            .validity_days(DateTime::date(2024, 6, 1).unwrap(), 90)
            .subject(subject.clone())
            .issuer(subject)
            .build_signed(&SimKey::from_seed("oracle"));
        certs.push(cert);
    }
    certs
}

#[test]
fn presence_mask_matches_linear_filter() {
    let mut oids: Vec<Oid> = known::ALL.iter().map(|e| e.oid.clone()).collect();
    for arcs in [
        &[2, 5, 4, 63][..],
        &[2, 5, 4, 64],
        &[2, 5, 4, 100],
        &[2, 5, 4, 127],
        &[2, 5, 4, 128],
        &[2, 5, 4, 300],
        &[2, 5, 4],
        &[2, 5, 4, 3, 1],
        &[2, 5, 5, 3],
        &[1, 2, 3, 4],
    ] {
        oids.push(Oid::from_arcs(arcs).unwrap());
    }
    let mut certs = corpus(2_000);
    certs.extend(vector_certs());
    certs.extend(mask_edge_certs());
    let mut found = 0usize;
    for cert in &certs {
        let ctx = LintContext::new(cert);
        for which in [Which::Subject, Which::Issuer] {
            for oid in &oids {
                let fast: Vec<*const CachedVal> =
                    ctx.attr_vals(which, oid).map(std::ptr::from_ref).collect();
                let slow: Vec<*const CachedVal> = ctx
                    .dn_attrs(which)
                    .iter()
                    .filter(|a| a.oid == *oid)
                    .map(|a| std::ptr::from_ref(&a.val))
                    .collect();
                assert_eq!(fast, slow, "{which:?} {oid}");
                assert_eq!(ctx.count_of(which, oid), slow.len(), "{which:?} {oid} count");
                found += slow.len();
            }
        }
    }
    assert!(found > 5_000, "only {found} attributes found");
}

// --- Timestamp digits -----------------------------------------------------

/// The timestamp digits as parsed before the fixed array: one `Vec` per
/// call.
fn ref_digits(s: &str) -> Result<Vec<i32>, Error> {
    s.bytes()
        .map(|b| if b.is_ascii_digit() { Ok((b - b'0') as i32) } else { Err(Error::InvalidTime) })
        .collect()
}

/// `DateTime::from_utc_time` on the `Vec`-based digits.
fn ref_from_utc_time(bytes: &[u8]) -> Result<DateTime, Error> {
    let s = std::str::from_utf8(bytes).map_err(|_| Error::InvalidTime)?;
    if s.len() != 13 || !s.ends_with('Z') {
        return Err(Error::InvalidTime);
    }
    let d = ref_digits(&s[..12])?;
    let yy = d[0] * 10 + d[1];
    let year = if yy >= 50 { 1900 + yy } else { 2000 + yy };
    DateTime::new(
        year,
        (d[2] * 10 + d[3]) as u8,
        (d[4] * 10 + d[5]) as u8,
        (d[6] * 10 + d[7]) as u8,
        (d[8] * 10 + d[9]) as u8,
        (d[10] * 10 + d[11]) as u8,
    )
}

/// `DateTime::from_generalized` on the `Vec`-based digits.
fn ref_from_generalized(bytes: &[u8]) -> Result<DateTime, Error> {
    let s = std::str::from_utf8(bytes).map_err(|_| Error::InvalidTime)?;
    if s.len() != 15 || !s.ends_with('Z') {
        return Err(Error::InvalidTime);
    }
    let d = ref_digits(&s[..14])?;
    let year = d[0] * 1000 + d[1] * 100 + d[2] * 10 + d[3];
    DateTime::new(
        year,
        (d[4] * 10 + d[5]) as u8,
        (d[6] * 10 + d[7]) as u8,
        (d[8] * 10 + d[9]) as u8,
        (d[10] * 10 + d[11]) as u8,
        (d[12] * 10 + d[13]) as u8,
    )
}

#[test]
fn time_parsing_matches_vec_digits() {
    let mut inputs: Vec<Vec<u8>> = [
        "240315123045Z",
        "500101000000Z",
        "491231235959Z",
        "000229000000Z",
        "010229000000Z",
        "991231235959Z",
        "000000000000Z",
        "999999999999Z",
        "241315123045Z",
        "240230123045Z",
        "240315243045Z",
        "240315126045Z",
        "240315123060Z",
        "2403151230Z",
        "240315123045",
        "24031512304aZ",
        "24031512304 Z",
        "2403151230450Z",
        "Z",
        "",
        "20240315123045Z",
        "20000229000000Z",
        "19000229000000Z",
        "00000101000000Z",
        "99991231235959Z",
        "99999999999999Z",
        "20240315123045+0800",
        "2024031512304Z",
        "202403151230456Z",
        "2024031512304éZ",
        "24031512304éZ",
    ]
    .iter()
    .map(|s| s.as_bytes().to_vec())
    .collect();
    inputs.push(b"24031512304\xffZ".to_vec());
    inputs.push(b"2024031512304\xc3Z".to_vec());
    // Seeded random inputs: fields near their valid ranges in both forms,
    // a quarter with one byte replaced and some cut or extended.
    let mut state: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut next = move |bound: u64| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state % bound
    };
    let noise = b"0123456789Z+-. a\xff";
    for _ in 0..50_000 {
        let year = if next(2) == 0 { format!("{:02}", next(100)) } else { format!("{:04}", next(10_000)) };
        let fields = [next(14), next(33), next(26), next(62), next(62)];
        let mut input = year.into_bytes();
        for field in fields {
            input.extend(format!("{field:02}").bytes());
        }
        input.push(b'Z');
        if next(4) == 0 {
            let at = next(input.len() as u64) as usize;
            input[at] = noise[next(noise.len() as u64) as usize];
        }
        match next(8) {
            0 => input.truncate(input.len() - 1),
            1 => input.insert(0, b'1'),
            _ => {}
        }
        inputs.push(input);
    }
    let (mut utc_ok, mut gen_ok) = (0usize, 0usize);
    for input in &inputs {
        let utc = DateTime::from_utc_time(input);
        assert_eq!(utc, ref_from_utc_time(input), "UTCTime {input:?}");
        let generalized = DateTime::from_generalized(input);
        assert_eq!(generalized, ref_from_generalized(input), "GeneralizedTime {input:?}");
        utc_ok += usize::from(utc.is_ok());
        gen_ok += usize::from(generalized.is_ok());
    }
    assert!(
        utc_ok > 1_000 && gen_ok > 1_000,
        "{utc_ok} UTCTime and {gen_ok} GeneralizedTime accepted"
    );
}

// --- TLV header decode ----------------------------------------------------

/// The tag number octets the reader accepts after a high-form identifier:
/// at most four (28 bits), its bound on tag numbers.
const MAX_TAG_OCTETS: usize = 4;

/// One element decoded from the front of `input` by the rules of X.690
/// alone: `(tag, header length, content length)`.
///
/// - Identifier octets (§8.1.2): class in bits 8-7, constructed in bit 6,
///   the number in bits 5-1 below 31. Otherwise (§8.1.2.4) the number
///   follows base-128, bit 8 set on every octet but the last; the first
///   of them is not 0x80 and a number below 31 must use the one-octet
///   form (the minimal encoding DER requires).
/// - Length octets (§8.1.3, DER §10.1): definite only; short form below
///   0x80; long form 0x81-0x88 with no leading zero octet and a value of
///   at least 0x80; 0x80 is indefinite; more than 8 octets is refused.
/// - A length or tag octet past the end, or content longer than what is
///   left, is `UnexpectedEof` with the number of missing bytes.
fn ref_header(input: &[u8]) -> Result<(Tag, usize, usize), Error> {
    let eof = |needed: usize| Error::UnexpectedEof { needed };
    let first = *input.first().ok_or(eof(1))?;
    let class = match first >> 6 {
        0 => Class::Universal,
        1 => Class::Application,
        2 => Class::ContextSpecific,
        _ => Class::Private,
    };
    let constructed = first & 0x20 != 0;
    let mut at = 1;
    let mut number = u32::from(first & 0x1F);
    if number == 0x1F {
        number = 0;
        loop {
            if at > MAX_TAG_OCTETS {
                return Err(Error::InvalidTag);
            }
            let b = *input.get(at).ok_or(eof(1))?;
            if at == 1 && b == 0x80 {
                return Err(Error::InvalidTag);
            }
            number = number * 128 + u32::from(b & 0x7F);
            at += 1;
            if b & 0x80 == 0 {
                break;
            }
        }
        if number < 31 {
            return Err(Error::InvalidTag);
        }
    }
    let tag = Tag { class, constructed, number };
    let l0 = *input.get(at).ok_or(eof(1))?;
    at += 1;
    let len = match l0 {
        0x00..=0x7F => usize::from(l0),
        0x80 => return Err(Error::IndefiniteLength),
        0x81..=0x88 => {
            let n = usize::from(l0 - 0x80);
            let octets = input.get(at..at + n).ok_or_else(|| eof(at + n - input.len()))?;
            at += n;
            if octets[0] == 0 {
                return Err(Error::NonMinimalLength);
            }
            let len = octets.iter().fold(0u64, |acc, &b| acc * 256 + u64::from(b));
            if len < 0x80 {
                return Err(Error::NonMinimalLength);
            }
            usize::try_from(len).map_err(|_| Error::InvalidLength)?
        }
        _ => return Err(Error::InvalidLength),
    };
    let left = input.len() - at;
    if len > left {
        return Err(eof(len - left));
    }
    Ok((tag, at, len))
}

/// Read the element at the front of `rest` with `r` (positioned there)
/// and compare everything the reader reports with [`ref_header`]: tag,
/// value and raw slices (as positions in `rest`), the exact error, the
/// bytes left, and what the read added to the budget's element and byte
/// counts. Returns the element when both decode it, `None` when both
/// refuse it with the same error.
fn compare_read<'a>(
    r: &mut Reader<'a>,
    rest: &'a [u8],
    budget: &BudgetState,
) -> Result<Option<Tlv<'a>>, String> {
    let before = (budget.elements_used(), budget.tlv_bytes_used());
    let want = ref_header(rest);
    let got = r.read_tlv();
    let after = (budget.elements_used(), budget.tlv_bytes_used());
    match (&got, &want) {
        (Ok(tlv), Ok((tag, hdr, len))) => {
            let end = hdr + len;
            if tlv.tag == *tag
                && std::ptr::eq(tlv.raw, &rest[..end])
                && std::ptr::eq(tlv.value, &rest[*hdr..end])
                && r.remaining() == rest.len() - end
                && after == (before.0 + 1, before.1 + end as u64)
            {
                return Ok(Some(*tlv));
            }
        }
        (Err(g), Err(w)) if g == w && after == before => return Ok(None),
        _ => {}
    }
    Err(format!(
        "{:02x?}: reader {got:?} with counts {before:?} -> {after:?}, X.690 {want:?}",
        &rest[..rest.len().min(16)]
    ))
}

/// Walk `der` element by element with one budgeted reader per level,
/// recursing into constructed contents, and compare every element reached
/// with [`ref_header`], up to and including the refusal that ends each
/// level (at its end, `UnexpectedEof`). Returns the elements read.
fn walk_against_ref(der: &[u8], budget: &BudgetState) -> Result<u64, String> {
    let mut r = Reader::with_budget(der, budget);
    let (mut read, mut at) = (0, 0);
    while let Some(tlv) = compare_read(&mut r, &der[at..], budget)? {
        read += 1;
        at += tlv.raw.len();
        if tlv.tag.constructed {
            read += walk_against_ref(tlv.value, budget)?;
        }
    }
    Ok(read)
}

#[test]
fn header_decode_matches_x690_on_every_two_octet_prefix() {
    const THIRD: [u8; 7] = [0x00, 0x01, 0x7F, 0x80, 0x81, 0x82, 0xFF];
    // Content bytes that, read as length or tag octets, are themselves
    // edge values (0x05 after a high-form tag and 0x81 is a non-minimal
    // long-form length).
    let content: Vec<u8> =
        [0x05, 0x81, 0x00, 0x80, 0xFF, 0x7F, 0x01].iter().copied().cycle().take(300).collect();
    let mut input = Vec::with_capacity(3 + content.len());
    let mut outcomes = std::collections::BTreeMap::<&str, usize>::new();
    for prefix in 0..=u16::MAX {
        for third in THIRD {
            for len in [0, 1, 2, 3, 4, 300] {
                input.clear();
                input.extend(prefix.to_be_bytes());
                input.push(third);
                input.extend(&content[..len]);
                let budget = ParseBudget::default().start();
                let mut r = Reader::with_budget(&input, &budget);
                compare_read(&mut r, &input, &budget).unwrap_or_else(|msg| panic!("{msg}"));
                let outcome = match ref_header(&input) {
                    Ok(_) => "ok",
                    Err(Error::UnexpectedEof { .. }) => "UnexpectedEof",
                    Err(Error::InvalidTag) => "InvalidTag",
                    Err(Error::IndefiniteLength) => "IndefiniteLength",
                    Err(Error::NonMinimalLength) => "NonMinimalLength",
                    Err(Error::InvalidLength) => "InvalidLength",
                    Err(_) => "other",
                };
                *outcomes.entry(outcome).or_default() += 1;
            }
        }
    }
    // Every outcome a header can have is reached, and no other.
    assert_eq!(
        outcomes.keys().copied().collect::<Vec<_>>(),
        ["IndefiniteLength", "InvalidLength", "InvalidTag", "NonMinimalLength", "UnexpectedEof", "ok"],
        "{outcomes:?}"
    );
}

#[test]
fn header_decode_matches_x690_on_every_element_of_chaos_mutants() {
    let config = CorpusConfig { size: 2_000, seed: 7, precert_fraction: 0.0, latent_defects: true };
    let mut mutator = unicert_chaos::Mutator::new(7);
    let classes = unicert_chaos::MutationClass::ALL;
    let mut elements = 0;
    for (i, entry) in CorpusGenerator::new(config).enumerate() {
        let der = mutator.mutate(&entry.cert.raw, classes[i % classes.len()]);
        let budget = ParseBudget::default().start();
        elements += walk_against_ref(&der, &budget).unwrap_or_else(|msg| panic!("mutant #{i}: {msg}"));
    }
    assert!(elements > 50_000, "only {elements} elements walked");
}
