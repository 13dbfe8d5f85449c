//! Unicert classification (§2.3 / §4.1).
//!
//! A certificate is a *Unicert* when it contains characters beyond
//! printable ASCII (U+0020–U+007E) in any field, or IDNs in its
//! DNSName-related fields. An *IDNCert* is the IDN-carrying subset.

use unicert_asn1::oid::known;

use unicert_lint::helpers::Which;
use unicert_lint::LintContext;
use unicert_x509::{Certificate, GeneralName};

/// Classification of one certificate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnicertClass {
    /// Any field carries non-printable-ASCII content.
    pub has_unicode: bool,
    /// DNS-related fields carry IDNs (A-labels or raw U-labels).
    pub has_idn: bool,
}

impl UnicertClass {
    /// Is this certificate a Unicert at all?
    pub fn is_unicert(&self) -> bool {
        self.has_unicode || self.has_idn
    }

    /// Is it an IDNCert?
    pub fn is_idn_cert(&self) -> bool {
        self.has_idn
    }
}

fn value_has_unicode(bytes: &[u8]) -> bool {
    // Raw byte view: anything outside 0x20..=0x7E counts (§2.3 applies to
    // contents regardless of decodability).
    bytes.iter().any(|&b| !(0x20..=0x7E).contains(&b))
}

/// Is this GeneralName string an IDN? `is_idn_domain` applied to its text,
/// after splitting on `seps` as well as `.` (`@` and `/` for email and URI
/// values, nothing more for DNSNames), read straight from the bytes.
///
/// Exact for GeneralName strings: `GeneralName::parse` tags every string
/// alternative IA5, whose wire decode widens each byte to one char. So the
/// text is non-ASCII exactly when a byte is ≥ 0x80, and otherwise its
/// labels are the byte runs between separators.
pub(crate) fn ia5_is_idn(bytes: &[u8], seps: &[u8]) -> bool {
    !bytes.is_ascii()
        || bytes
            .split(|b| *b == b'.' || seps.contains(b))
            .any(|label| label.get(..4).is_some_and(|p| p.eq_ignore_ascii_case(b"xn--")))
}

/// Classify a certificate.
pub fn classify(cert: &Certificate) -> UnicertClass {
    classify_ctx(&LintContext::new(cert))
}

/// Classify through a memoized [`LintContext`], sharing parsed extensions
/// and decoded attribute text with the lint run that uses the same context.
pub fn classify_ctx(ctx: &LintContext<'_>) -> UnicertClass {
    let mut class = UnicertClass { has_unicode: false, has_idn: false };

    for attr in ctx.dn_attrs(Which::Subject).iter().chain(ctx.dn_attrs(Which::Issuer)) {
        class.has_unicode |= value_has_unicode(attr.val.bytes());
        // CN may carry a domain: IDN check applies to it too (§4.1 —
        // "containing IDNs in the DNSName-related fields (e.g. CommonName
        // and the extensions)").
        if attr.oid == known::common_name() {
            if let Some(text) = attr.val.wire_text() {
                class.has_idn |= unicert_idna::is_idn_domain(text);
            }
        }
    }
    // All extensions (duplicates included), parse results memoized in ctx.
    for parsed in ctx.parsed_extensions().iter().flatten() {
        use unicert_x509::extensions::PolicyQualifier;
        use unicert_x509::ParsedExtension::*;
        match parsed {
            SubjectAltName(names) | IssuerAltName(names) => {
                names.iter().for_each(|n| note_name(&mut class, n))
            }
            CrlDistributionPoints(dps) => dps
                .iter()
                .flat_map(|d| &d.full_names)
                .for_each(|n| note_name(&mut class, n)),
            AuthorityInfoAccess(ads) | SubjectInfoAccess(ads) => {
                ads.iter().for_each(|a| note_name(&mut class, &a.location))
            }
            CertificatePolicies(ps) => {
                for q in ps.iter().flat_map(|p| &p.qualifiers) {
                    if let PolicyQualifier::UserNotice { explicit_text: Some(t) } = q {
                        class.has_unicode |= value_has_unicode(&t.bytes);
                    }
                }
            }
            _ => {}
        }
    }
    class
}

/// Fold one extension GeneralName into `class`.
fn note_name(class: &mut UnicertClass, name: &GeneralName) {
    let (v, seps): (_, &[u8]) = match name {
        GeneralName::DnsName(v) => (v, b""),
        GeneralName::Rfc822Name(v) | GeneralName::Uri(v) => (v, b"@/"),
        _ => return,
    };
    class.has_unicode |= value_has_unicode(&v.bytes);
    class.has_idn |= ia5_is_idn(&v.bytes, seps);
}

#[cfg(test)]
mod tests {
    use super::*;
    use unicert_asn1::DateTime;
    use unicert_x509::{CertificateBuilder, SimKey};

    fn build(f: impl FnOnce(CertificateBuilder) -> CertificateBuilder) -> Certificate {
        f(CertificateBuilder::new().validity_days(DateTime::date(2024, 6, 1).unwrap(), 90))
            .build_signed(&SimKey::from_seed("classify-ca"))
    }

    #[test]
    fn ascii_cert_is_not_a_unicert() {
        let cert = build(|b| b.subject_cn("plain.example").add_dns_san("plain.example"));
        // Issuer has ASCII defaults too.
        let c = classify(&cert);
        assert!(!c.is_unicert());
    }

    #[test]
    fn unicode_org_is_a_unicert() {
        let cert = build(|b| b.subject_org("Müller GmbH"));
        assert!(classify(&cert).is_unicert());
        assert!(!classify(&cert).is_idn_cert());
    }

    #[test]
    fn ace_san_is_an_idncert() {
        let cert = build(|b| b.add_dns_san("xn--mnchen-3ya.de"));
        let c = classify(&cert);
        assert!(c.is_idn_cert());
        assert!(c.is_unicert());
        assert!(!c.has_unicode); // pure ASCII bytes, still an IDNCert
    }

    #[test]
    fn idn_in_cn_counts() {
        let cert = build(|b| b.subject_cn("xn--fiqs8s.cn"));
        assert!(classify(&cert).is_idn_cert());
    }

    #[test]
    fn control_bytes_count_as_unicode() {
        let cert = build(|b| {
            b.subject_attr_raw(
                unicert_asn1::oid::known::organization_name(),
                unicert_asn1::StringKind::Utf8,
                b"Evil\x00Org",
            )
        });
        assert!(classify(&cert).has_unicode);
    }
}
