//! Context-equivalence suite: the memoized [`LintContext`] is a pure cache.
//!
//! Every cached accessor must return exactly what the direct, uncached
//! reference extractors in `unicert::lint::helpers` compute from the bare
//! certificate, and `Registry::run_ctx` against a caller-built (and even
//! pre-warmed) context must produce findings byte-identical to
//! `Registry::run`. Two layers of evidence:
//!
//! - property tests over builder-assembled certificates carrying arbitrary
//!   attribute bytes, SAN mixes, and string kinds;
//! - a fixed-seed 10 000-certificate corpus sweep (the same generator the
//!   survey benchmarks use, latent defects on), checking every accessor and
//!   the full registry on every certificate.
//!
//! Any divergence here means the cache changed analysis semantics — the
//! perf work's one forbidden failure mode.

use proptest::prelude::*;
use unicert::asn1::oid::known;
use unicert::asn1::{DateTime, StringKind};
use unicert::corpus::{CorpusConfig, CorpusGenerator};
use unicert::lint::context::CachedVal;
use unicert::lint::helpers::{self, Which};
use unicert::lint::{default_registry, LintContext, RunOptions};
use unicert::x509::{Certificate, CertificateBuilder, GeneralName, RawValue, SimKey};

fn raws(vals: &[CachedVal]) -> Vec<RawValue> {
    vals.iter().map(|v| v.raw()).collect()
}

/// Assert every cached accessor of one certificate against its direct,
/// uncached oracle. Each accessor is exercised twice so the second (cached)
/// read is covered as well as the first (computing) one.
fn assert_context_matches_direct(cert: &Certificate) {
    let ctx = LintContext::new(cert);
    for _ in 0..2 {
        // Parsed-extension name lists.
        assert_eq!(ctx.san(), helpers::san(cert).as_slice(), "san");
        assert_eq!(ctx.ian(), helpers::ian(cert).as_slice(), "ian");
        assert_eq!(raws(ctx.san_dns()), helpers::san_dns_values(cert), "san_dns");
        assert_eq!(
            raws(ctx.san_rfc822()),
            helpers::san_values(cert, |n| match n {
                GeneralName::Rfc822Name(v) => Some(v.clone()),
                _ => None,
            }),
            "san_rfc822"
        );
        assert_eq!(
            raws(ctx.san_uri()),
            helpers::san_values(cert, |n| match n {
                GeneralName::Uri(v) => Some(v.clone()),
                _ => None,
            }),
            "san_uri"
        );
        assert_eq!(
            raws(ctx.aia_uris()),
            helpers::access_uris(cert, &known::authority_info_access()),
            "aia_uris"
        );
        assert_eq!(
            raws(ctx.sia_uris()),
            helpers::access_uris(cert, &known::subject_info_access()),
            "sia_uris"
        );
        assert_eq!(raws(ctx.crldp_uris()), helpers::crldp_uris(cert), "crldp_uris");
        assert_eq!(raws(ctx.explicit_texts()), helpers::explicit_texts(cert), "explicit_texts");

        // DN attributes: same order, same types, same raw bytes.
        for which in [Which::Subject, Which::Issuer] {
            let direct: Vec<_> = helpers::dn(cert, which)
                .attributes()
                .map(|a| (a.oid.clone(), a.value.clone()))
                .collect();
            let cached: Vec<_> =
                ctx.dn_attrs(which).iter().map(|a| (a.oid.clone(), a.val.raw())).collect();
            assert_eq!(direct, cached, "dn_attrs {which:?}");
            for attr in ctx.dn_attrs(which) {
                let owned: Vec<RawValue> =
                    ctx.attr_vals(which, &attr.oid).map(|v| v.raw()).collect();
                let per_oid: Vec<&RawValue> = owned.iter().collect();
                assert_eq!(per_oid, helpers::attr_values(cert, which, &attr.oid), "attr_vals");
            }
        }

        // Per-value memoized verdicts against a fresh computation.
        for v in ctx
            .dn_attrs(Which::Subject)
            .iter()
            .map(|a| &a.val)
            .chain(ctx.san_dns())
            .chain(ctx.explicit_texts())
        {
            assert_eq!(v.wire_text(), v.raw().decode_wire().ok().as_deref(), "wire_text");
            assert_eq!(v.strict_ok(), v.raw().decode_strict().is_ok(), "strict_ok");
            let direct_nfc = match v.raw().decode_wire() {
                Ok(t) => unicert::unicode::nfc::is_nfc(&t),
                Err(_) => true,
            };
            assert_eq!(v.text_is_nfc(), direct_nfc, "text_is_nfc");
        }

        // DNS-label cache against the uncached IDNA pipeline.
        for v in ctx.san_dns() {
            let Some(text) = v.wire_text() else { continue };
            for label in text.split('.') {
                assert_eq!(
                    ctx.label_info(label).status,
                    unicert::idna::label::classify_a_label(label),
                    "label_info({label})"
                );
            }
        }
    }
}

/// Run the registry both ways — building its own context, and against a
/// caller context whose caches were already warmed by unrelated accessor
/// traffic — and demand identical findings.
fn assert_registry_runs_identically(cert: &Certificate) {
    let reg = default_registry();
    for opts in [RunOptions::default(), RunOptions::ungated()] {
        let direct = reg.run(cert, opts);
        let ctx = LintContext::new(cert);
        // Pre-warm in an order no lint uses; memoization must be inert.
        let _ = ctx.explicit_texts();
        let _ = ctx.dn_attrs(Which::Issuer);
        let _ = ctx.san_dns();
        let via_ctx = reg.run_ctx(&ctx, opts);
        assert_eq!(direct.findings, via_ctx.findings, "run vs run_ctx diverged");
    }
}

proptest! {
    /// Cached accessors equal the direct extraction on certificates with
    /// arbitrary attribute bytes and SAN contents.
    #[test]
    fn cached_accessors_match_direct(
        cn_bytes in proptest::collection::vec(any::<u8>(), 0..40),
        dns in "[ -~]{0,40}",
        email in "[a-z]{1,8}@[a-z]{1,8}\\.[a-z]{2,4}",
        kind in proptest::sample::select(vec![
            StringKind::Utf8, StringKind::Printable, StringKind::Ia5,
            StringKind::Bmp, StringKind::Teletex, StringKind::Numeric,
        ]),
    ) {
        let cert = CertificateBuilder::new()
            .subject_attr_raw(known::common_name(), kind, &cn_bytes)
            .add_dns_san(&dns)
            .add_dns_san("xn--mnchen-3ya.de")
            .add_san(GeneralName::Rfc822Name(RawValue::from_text(StringKind::Ia5, &email)))
            .validity_days(DateTime::date(2024, 3, 1).unwrap(), 90)
            .build_signed(&SimKey::from_seed("ctx-eq"));
        assert_context_matches_direct(&cert);
    }

    /// The registry's findings are identical whether it builds the context
    /// itself or receives a pre-warmed one.
    #[test]
    fn registry_identical_via_context(
        cn_bytes in proptest::collection::vec(any::<u8>(), 0..40),
        dns in "[ -~]{0,40}",
    ) {
        let cert = CertificateBuilder::new()
            .subject_attr_raw(known::common_name(), StringKind::Utf8, &cn_bytes)
            .add_dns_san(&dns)
            .validity_days(DateTime::date(2024, 3, 1).unwrap(), 90)
            .build_signed(&SimKey::from_seed("ctx-eq"));
        assert_registry_runs_identically(&cert);
    }
}

/// The fixed-seed corpus sweep: every accessor and the full registry on
/// every certificate of a 10 000-cert survey corpus (latent defects on, so
/// the malformed/IDN/confusable recipes are all represented).
#[test]
fn corpus_sweep_context_equivalence() {
    let config = CorpusConfig { size: 10_000, seed: 42, precert_fraction: 0.0, latent_defects: true };
    let reg = default_registry();
    let opts = RunOptions::default();
    for entry in CorpusGenerator::new(config) {
        assert_context_matches_direct(&entry.cert);
        let direct = reg.run(&entry.cert, opts);
        let ctx = LintContext::new(&entry.cert);
        let _ = ctx.san();
        let via_ctx = reg.run_ctx(&ctx, opts);
        assert_eq!(
            direct.findings, via_ctx.findings,
            "serial {:?}: run vs run_ctx diverged",
            entry.cert.tbs.serial
        );
    }
}
