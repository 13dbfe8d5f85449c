//! Byte-range provenance for parsed certificates.
//!
//! [`CertSpans::capture`] re-walks a certificate's DER with a spanned
//! [`Reader`] and records where every field the lint catalog cares about
//! sits in the original buffer: the TBS window, serial, both DNs (down to
//! individual attribute values, in the same flat wire order as
//! [`DistinguishedName::attributes`](crate::DistinguishedName::attributes)),
//! validity, SPKI, and each extension (down to the top-level elements of
//! its inner value — the GeneralNames of a SAN, the AccessDescriptions of
//! an AIA, and so on).
//!
//! This walk is *separate* from the certificate decoder
//! ([`CertView`](crate::CertView), which [`Certificate::parse_der`] wraps)
//! on purpose: the hot survey path never pays for provenance. Evidence capture
//! (`unicert_lint::context`) runs it only when a caller asks for explained
//! findings, and the `explain` bin renders its output as an annotated hex
//! dump. All spans are zero-copy `(offset, len)` pairs indexing the DER
//! buffer passed to `capture`.

use crate::certificate::Certificate;
use unicert_asn1::reader::Span;
use unicert_asn1::tag::tags;
use unicert_asn1::{Oid, Reader, Result, Tag, Tlv};

/// Byte ranges of one certificate extension.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExtensionSpans {
    /// The extension's OID.
    pub oid: Oid,
    /// The whole `Extension` SEQUENCE (oid + criticality + value).
    pub extension: Span,
    /// The contents of the extnValue OCTET STRING (the inner DER).
    pub value: Span,
    /// Top-level elements of the inner value when it is a single
    /// constructed element — e.g. one span per GeneralName of a SAN/IAN,
    /// per AccessDescription of an AIA/SIA, per DistributionPoint of a
    /// CRLDP, per PolicyInformation of certificatePolicies. Empty when the
    /// value has a different shape.
    pub children: Vec<Span>,
}

/// Byte-range map of one certificate, produced by [`CertSpans::capture`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertSpans {
    /// The whole outer `Certificate` SEQUENCE.
    pub certificate: Span,
    /// The `tbsCertificate` SEQUENCE — the signed window.
    pub tbs: Span,
    /// The `[0] EXPLICIT version` element, when present.
    pub version: Option<Span>,
    /// The serialNumber INTEGER.
    pub serial: Span,
    /// The TBS `signature` AlgorithmIdentifier.
    pub tbs_signature_algorithm: Span,
    /// The issuer Name SEQUENCE.
    pub issuer: Span,
    /// Issuer attribute *value* TLVs, flat wire order (RDNs in sequence
    /// order, attributes in SET order) — index-aligned with
    /// `DistinguishedName::attributes`.
    pub issuer_attrs: Vec<Span>,
    /// The Validity SEQUENCE.
    pub validity: Span,
    /// The subject Name SEQUENCE.
    pub subject: Span,
    /// Subject attribute value TLVs, flat wire order.
    pub subject_attrs: Vec<Span>,
    /// The SubjectPublicKeyInfo SEQUENCE.
    pub spki: Span,
    /// The `[3] EXPLICIT extensions` wrapper, when present.
    pub extensions_block: Option<Span>,
    /// Per-extension spans, in wire order (index-aligned with
    /// `TbsCertificate::extensions`).
    pub extensions: Vec<ExtensionSpans>,
    /// The outer signatureAlgorithm AlgorithmIdentifier.
    pub signature_algorithm: Span,
    /// The signatureValue BIT STRING.
    pub signature: Span,
}

/// A reader over a spanned element's contents that keeps absolute offsets:
/// the content octets are the last `value.len()` bytes of the element.
fn contents_reader<'a>(span: Span, tlv: &Tlv<'a>) -> Reader<'a> {
    Reader::with_base(tlv.value, span.end().saturating_sub(tlv.value.len()))
}

fn read_spanned_tag<'a>(r: &mut Reader<'a>, tag: Tag) -> Result<(Span, Tlv<'a>)> {
    let (span, tlv) = r.read_tlv_spanned()?;
    tlv.expect(tag)?; // analysis:allow(expect) Tlv::expect returns Result, it never panics
    Ok((span, tlv))
}

/// Record the span of every attribute value TLV of a Name, flat wire order.
fn dn_attr_spans(span: Span, tlv: &Tlv<'_>) -> Result<Vec<Span>> {
    let mut out = Vec::new();
    let mut seq = contents_reader(span, tlv);
    while !seq.is_empty() {
        let (rdn_span, rdn_tlv) = read_spanned_tag(&mut seq, tags::SET)?;
        let mut set = contents_reader(rdn_span, &rdn_tlv);
        while !set.is_empty() {
            let (atv_span, atv_tlv) = read_spanned_tag(&mut set, tags::SEQUENCE)?;
            let mut atv = contents_reader(atv_span, &atv_tlv);
            let _oid = atv.read_expected(tags::OBJECT_IDENTIFIER)?;
            let (val_span, _val) = atv.read_tlv_spanned()?;
            atv.finish()?;
            out.push(val_span);
        }
    }
    Ok(out)
}

/// Best-effort structural children of an extension value: when the inner
/// DER is exactly one constructed element, the spans of its top-level
/// members; otherwise empty (never an error — hostile extension bodies
/// just yield no sub-spans).
fn generic_children(value: &[u8], base: usize) -> Vec<Span> {
    let mut r = Reader::with_base(value, base);
    let Ok((outer_span, outer)) = r.read_tlv_spanned() else {
        return Vec::new();
    };
    if !r.is_empty() || !outer.tag.constructed {
        return Vec::new();
    }
    let mut inner = contents_reader(outer_span, &outer);
    let mut out = Vec::new();
    while !inner.is_empty() {
        match inner.read_tlv_spanned() {
            Ok((s, _)) => out.push(s),
            Err(_) => return Vec::new(),
        }
    }
    out
}

fn extension_spans(list_span: Span, list_tlv: &Tlv<'_>) -> Result<Vec<ExtensionSpans>> {
    let mut out = Vec::new();
    let mut list = contents_reader(list_span, list_tlv);
    while !list.is_empty() {
        let (ext_span, ext_tlv) = read_spanned_tag(&mut list, tags::SEQUENCE)?;
        let mut e = contents_reader(ext_span, &ext_tlv);
        let oid_tlv = e.read_expected(tags::OBJECT_IDENTIFIER)?;
        let oid = Oid::from_der_value(oid_tlv.value)?;
        if e.peek_tag() == Some(tags::BOOLEAN) {
            let _ = e.read_tlv()?;
        }
        let (octets_span, octets_tlv) = read_spanned_tag(&mut e, tags::OCTET_STRING)?;
        e.finish()?;
        let value_base = octets_span.end().saturating_sub(octets_tlv.value.len());
        let value = Span { offset: value_base, len: octets_tlv.value.len() };
        let children = generic_children(octets_tlv.value, value_base);
        out.push(ExtensionSpans { oid, extension: ext_span, value, children });
    }
    Ok(out)
}

impl CertSpans {
    /// Walk `der` (one complete certificate) and record field byte ranges.
    ///
    /// Fails with the same [`unicert_asn1::Error`]s as the certificate
    /// parser on structurally invalid input; callers that already hold a
    /// parsed [`Certificate`] can treat failure as "no provenance
    /// available" and fall back to whole-certificate spans.
    pub fn capture(der: &[u8]) -> Result<CertSpans> {
        let mut r = Reader::new(der);
        let (certificate, cert_tlv) = read_spanned_tag(&mut r, tags::SEQUENCE)?;
        r.finish()?;

        let mut c = contents_reader(certificate, &cert_tlv);
        let (tbs, tbs_tlv) = read_spanned_tag(&mut c, tags::SEQUENCE)?;

        let mut t = contents_reader(tbs, &tbs_tlv);
        let mut version = None;
        if t.peek_tag() == Some(Tag::context_constructed(0)) {
            let (v_span, _) = t.read_tlv_spanned()?;
            version = Some(v_span);
        }
        let (serial, _) = read_spanned_tag(&mut t, tags::INTEGER)?;
        let (tbs_signature_algorithm, _) = read_spanned_tag(&mut t, tags::SEQUENCE)?;
        let (issuer, issuer_tlv) = read_spanned_tag(&mut t, tags::SEQUENCE)?;
        let issuer_attrs = dn_attr_spans(issuer, &issuer_tlv)?;
        let (validity, _) = read_spanned_tag(&mut t, tags::SEQUENCE)?;
        let (subject, subject_tlv) = read_spanned_tag(&mut t, tags::SEQUENCE)?;
        let subject_attrs = dn_attr_spans(subject, &subject_tlv)?;
        let (spki, _) = read_spanned_tag(&mut t, tags::SEQUENCE)?;
        let _ = t.read_optional_context(1)?;
        let _ = t.read_optional_context(2)?;
        let mut extensions_block = None;
        let mut extensions = Vec::new();
        if t.peek_tag() == Some(Tag::context_constructed(3)) {
            let (block_span, block_tlv) = t.read_tlv_spanned()?;
            extensions_block = Some(block_span);
            let mut b = contents_reader(block_span, &block_tlv);
            let (list_span, list_tlv) = read_spanned_tag(&mut b, tags::SEQUENCE)?;
            b.finish()?;
            extensions = extension_spans(list_span, &list_tlv)?;
        }
        t.finish()?;

        let (signature_algorithm, _) = read_spanned_tag(&mut c, tags::SEQUENCE)?;
        let (signature, _) = read_spanned_tag(&mut c, tags::BIT_STRING)?;
        c.finish()?;

        Ok(CertSpans {
            certificate,
            tbs,
            version,
            serial,
            tbs_signature_algorithm,
            issuer,
            issuer_attrs,
            validity,
            subject,
            subject_attrs,
            spki,
            extensions_block,
            extensions,
            signature_algorithm,
            signature,
        })
    }

    /// Capture spans for an already-parsed certificate's raw DER.
    pub fn of(cert: &Certificate) -> Result<CertSpans> {
        Self::capture(&cert.raw)
    }

    /// The span of extension `idx` (wire order), if captured.
    pub fn extension(&self, idx: usize) -> Option<&ExtensionSpans> {
        self.extensions.get(idx)
    }

    /// TLV path of a DN attribute value: `tbs.<which>.attr[<idx>].value`.
    pub fn dn_attr_path(which: &str, idx: usize) -> String {
        format!("tbs.{which}.attr[{idx}].value")
    }

    /// TLV path of an extension: `tbs.ext[<idx>](<oid>)`.
    pub fn ext_path(&self, idx: usize) -> String {
        match self.extensions.get(idx) {
            Some(e) => format!("tbs.ext[{idx}]({})", e.oid),
            None => format!("tbs.ext[{idx}]"),
        }
    }

    /// TLV path of the `child`-th top-level element inside extension `idx`.
    pub fn ext_child_path(&self, idx: usize, child: usize) -> String {
        format!("{}.item[{child}]", self.ext_path(idx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CertificateBuilder;
    use crate::sign::SimKey;
    use unicert_asn1::DateTime;

    fn sample() -> Certificate {
        CertificateBuilder::new()
            .subject_cn("span-test.example")
            .add_dns_san("span-test.example")
            .add_dns_san("alt.example")
            .validity_days(DateTime::date(2024, 6, 1).unwrap(), 90)
            .build_signed(&SimKey::from_seed("spans-test-ca"))
    }

    #[test]
    fn capture_covers_the_whole_buffer_in_order() {
        let cert = sample();
        let spans = CertSpans::of(&cert).unwrap();
        assert_eq!(spans.certificate, Span { offset: 0, len: cert.raw.len() });
        assert!(spans.certificate.contains(&spans.tbs));
        for field in [
            &spans.serial,
            &spans.tbs_signature_algorithm,
            &spans.issuer,
            &spans.validity,
            &spans.subject,
            &spans.spki,
        ] {
            assert!(spans.tbs.contains(field), "{field} outside tbs {}", spans.tbs);
        }
        assert!(spans.certificate.contains(&spans.signature_algorithm));
        assert!(spans.certificate.contains(&spans.signature));
        // The signed window is exactly the raw_tbs bytes.
        assert_eq!(
            &cert.raw[spans.tbs.offset..spans.tbs.end()],
            cert.raw_tbs.as_slice(),
            "tbs span must reproduce raw_tbs"
        );
    }

    #[test]
    fn dn_attr_spans_align_with_attributes_iteration() {
        let cert = sample();
        let spans = CertSpans::of(&cert).unwrap();
        let attrs: Vec<_> = cert.tbs.subject.attributes().collect();
        assert_eq!(spans.subject_attrs.len(), attrs.len());
        for (span, attr) in spans.subject_attrs.iter().zip(&attrs) {
            assert!(spans.subject.contains(span));
            // The span's content octets are the attribute's raw bytes.
            let raw = &cert.raw[span.offset..span.end()];
            assert!(
                raw.len() >= attr.value.bytes.len() + 2,
                "value TLV must cover the attribute bytes"
            );
            assert!(
                raw.ends_with(&attr.value.bytes),
                "span content must end with the attribute value octets"
            );
        }
    }

    #[test]
    fn san_children_map_to_general_names() {
        let cert = sample();
        let spans = CertSpans::of(&cert).unwrap();
        let san_oid = unicert_asn1::oid::known::subject_alt_name();
        let (idx, ext) = spans
            .extensions
            .iter()
            .enumerate()
            .find(|(_, e)| e.oid == san_oid)
            .expect("SAN extension captured");
        assert_eq!(ext.children.len(), 2, "two dNSName entries");
        for child in &ext.children {
            assert!(ext.value.contains(child));
        }
        // First child's content octets spell the first DNS name.
        let first = ext.children[0];
        let raw = &cert.raw[first.offset..first.end()];
        assert!(raw.ends_with(b"span-test.example"));
        assert!(spans.ext_path(idx).contains("2.5.29.17"));
        assert_eq!(
            spans.ext_child_path(idx, 1),
            format!("tbs.ext[{idx}](2.5.29.17).item[1]")
        );
    }

    #[test]
    fn capture_rejects_truncated_input() {
        let cert = sample();
        let cut = &cert.raw[..cert.raw.len() - 3];
        assert!(CertSpans::capture(cut).is_err());
    }
}
