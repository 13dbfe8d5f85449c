//! The eager reference decoder: a second, independent certificate parser.
//!
//! [`CertView`](crate::CertView) is the only decoder on every analysis
//! path — [`Certificate::parse_der`] and
//! [`Certificate::parse_der_budgeted`] are thin wrappers over it. This
//! module keeps the original owned walk, which builds the [`Certificate`]
//! tree directly from a [`Reader`], as the differential oracle's
//! reference: the view-equivalence suite, the chaos oracle
//! (`unicert_parsers::differential::run_oracle`), and the throughput
//! bench's owned arm compare the view against it on freshly drawn inputs.
//! Both decoders must accept the same inputs with equal trees and reject
//! the rest with the same [`Error`](unicert_asn1::Error).
//!
//! Nothing on a survey, lint or store path calls into this module (a guard
//! test enforces it). It stays in this crate so the panic-safety audit and
//! the recursion-bound pass keep covering it.

use crate::certificate::{
    AlgorithmIdentifier, Certificate, SubjectPublicKeyInfo, TbsCertificate, Validity,
};
use crate::extensions::Extension;
use crate::name::DistinguishedName;
use unicert_asn1::tag::{tags, Tag};
use unicert_asn1::{
    BitString, BudgetState, DateTime, Error, Oid, ParseBudget, Reader, Result, TimeKind,
};

/// Parse a complete certificate from DER with the eager walk. With a
/// budget, the input is admitted against `max_input` first and every
/// decoded TLV is charged against the cumulative element/byte limits,
/// exactly as [`Certificate::parse_der_budgeted`] does.
pub fn parse_der(der: &[u8], budget: Option<&ParseBudget>) -> Result<Certificate> {
    match budget {
        Some(budget) => {
            budget.admit(der)?;
            let state = budget.start();
            parse_with(der, Some(&state))
        }
        None => parse_with(der, None),
    }
}

fn parse_with(der: &[u8], budget: Option<&BudgetState>) -> Result<Certificate> {
    let mut r = match budget {
        Some(state) => Reader::with_budget(der, state),
        None => Reader::new(der),
    };
    let cert = r.read_sequence(|c| {
        // Peek the raw TBS bytes: read the TLV, then re-parse it.
        let tbs_tlv = c.read_expected(tags::SEQUENCE)?;
        let raw_tbs = tbs_tlv.raw.to_vec();
        let mut tbs_reader = match budget {
            Some(state) => Reader::with_budget(tbs_tlv.raw, state),
            None => Reader::new(tbs_tlv.raw),
        };
        let tbs = parse_tbs(&mut tbs_reader)?;
        tbs_reader.finish()?;
        let signature_algorithm = parse_algorithm(c)?;
        let sig_tlv = c.read_expected(tags::BIT_STRING)?;
        let signature = BitString::from_der_value(sig_tlv.value)?;
        Ok(Certificate { tbs, signature_algorithm, signature, raw_tbs, raw: der.to_vec() })
    })?;
    r.finish()?;
    Ok(cert)
}

/// `AlgorithmIdentifier ::= SEQUENCE { algorithm OID, parameters ANY }`.
fn parse_algorithm(r: &mut Reader<'_>) -> Result<AlgorithmIdentifier> {
    r.read_sequence(|seq| {
        let oid = seq.read_expected(tags::OBJECT_IDENTIFIER)?;
        let algorithm = Oid::from_der_value(oid.value)?;
        let parameters = if seq.is_empty() {
            None
        } else {
            Some(seq.read_tlv()?.raw.to_vec())
        };
        Ok(AlgorithmIdentifier { algorithm, parameters })
    })
}

fn parse_time(r: &mut Reader<'_>) -> Result<(DateTime, TimeKind)> {
    let tlv = r.read_tlv()?;
    match tlv.tag {
        t if t == tags::UTC_TIME => Ok((DateTime::from_utc_time(tlv.value)?, TimeKind::Utc)),
        t if t == tags::GENERALIZED_TIME => {
            Ok((DateTime::from_generalized(tlv.value)?, TimeKind::Generalized))
        }
        found => Err(Error::TagMismatch { expected: tags::UTC_TIME, found }),
    }
}

fn parse_tbs(r: &mut Reader<'_>) -> Result<TbsCertificate> {
    r.read_sequence(|tbs| {
        // version [0] EXPLICIT, DEFAULT v1.
        let version = match tbs.read_optional(Tag::context_constructed(0))? {
            Some(v) => {
                let mut c = v.contents();
                let i = c.read_expected(tags::INTEGER)?;
                c.finish()?;
                unicert_asn1::integer::decode_u64(i.value)?
            }
            None => 0,
        };
        let serial_tlv = tbs.read_expected(tags::INTEGER)?;
        let serial = unicert_asn1::integer::unsigned_magnitude(serial_tlv.value)?.to_vec();
        let signature_algorithm = parse_algorithm(tbs)?;
        let issuer = DistinguishedName::parse(tbs)?;
        let validity = tbs.read_sequence(|v| {
            let (not_before, not_before_kind) = parse_time(v)?;
            let (not_after, not_after_kind) = parse_time(v)?;
            Ok(Validity { not_before, not_after, not_before_kind, not_after_kind })
        })?;
        let subject = DistinguishedName::parse(tbs)?;
        let spki = tbs.read_sequence(|s| {
            let algorithm = parse_algorithm(s)?;
            let bits = s.read_expected(tags::BIT_STRING)?;
            Ok(SubjectPublicKeyInfo {
                algorithm,
                public_key: BitString::from_der_value(bits.value)?,
            })
        })?;
        // issuerUniqueID [1], subjectUniqueID [2]: skipped if present.
        let _ = tbs.read_optional_context(1)?;
        let _ = tbs.read_optional_context(2)?;
        // extensions [3] EXPLICIT.
        let mut extensions = Vec::new();
        if let Some(exts) = tbs.read_optional(Tag::context_constructed(3))? {
            let mut c = exts.contents();
            c.read_sequence(|list| {
                while !list.is_empty() {
                    extensions.push(parse_extension(list)?);
                }
                Ok(())
            })?;
            c.finish()?;
        }
        Ok(TbsCertificate {
            version,
            serial,
            signature_algorithm,
            issuer,
            validity,
            subject,
            spki,
            extensions,
        })
    })
}

fn parse_extension(list: &mut Reader<'_>) -> Result<Extension> {
    list.read_sequence(|e| {
        let oid_tlv = e.read_expected(tags::OBJECT_IDENTIFIER)?;
        let oid = Oid::from_der_value(oid_tlv.value)?;
        let mut critical = false;
        if e.peek_tag() == Some(tags::BOOLEAN) {
            let b = e.read_tlv()?;
            critical = b.value == [0xFF];
        }
        let value_tlv = e.read_expected(tags::OCTET_STRING)?;
        Ok(Extension { oid, critical, value: value_tlv.value.to_vec() })
    })
}
