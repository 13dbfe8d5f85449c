//! OBJECT IDENTIFIER values and the X.509 OID dictionary.

use crate::error::{Error, Result};
use std::fmt;

/// Inline capacity: every OID in the X.509 dictionary (and essentially every
/// OID seen on the wire) fits in 22 content octets, so the common case never
/// touches the heap. Chosen so `size_of::<Oid>()` matches the old
/// `Vec<u8>`-backed layout (24 bytes).
const INLINE_CAP: usize = 22;

/// Storage for the DER content octets: small OIDs live inline on the stack,
/// pathological ones spill to the heap.
///
/// Every constructor zero-pads `buf` past `len`, so two inline reprs hold
/// the same content octets exactly when their `len` and whole `buf` agree.
enum Repr {
    /// The first `len` bytes of `buf` are the content octets.
    Inline {
        /// Number of valid bytes in `buf`.
        len: u8,
        /// Inline content octets (zero-padded past `len`).
        buf: [u8; INLINE_CAP],
    },
    /// Heap storage for OIDs longer than [`INLINE_CAP`].
    Heap(Box<[u8]>),
}

/// An OBJECT IDENTIFIER, stored as its DER content octets.
///
/// Storing the wire form keeps comparisons and re-encoding trivial; the arc
/// sequence is decoded on demand. The representation is a small-buffer
/// optimization: dictionary OIDs (`known::*`) and everything certificates
/// carry in practice are built, cloned, and compared without allocating.
pub struct Oid {
    repr: Repr,
}

impl Oid {
    /// Build from raw content octets already validated by the caller.
    #[inline]
    fn from_bytes(der: &[u8]) -> Oid {
        if der.len() <= INLINE_CAP {
            let mut buf = [0u8; INLINE_CAP];
            for (dst, src) in buf.iter_mut().zip(der) {
                *dst = *src;
            }
            Oid { repr: Repr::Inline { len: der.len() as u8, buf } }
        } else {
            Oid { repr: Repr::Heap(der.into()) }
        }
    }

    /// Build from an arc sequence, e.g. `&[2, 5, 4, 3]` for `id-at-commonName`.
    ///
    /// Returns `None` for sequences that cannot be encoded (fewer than two
    /// arcs, or first/second arcs out of range).
    pub fn from_arcs(arcs: &[u64]) -> Option<Oid> {
        let (&a0, &a1) = (arcs.first()?, arcs.get(1)?);
        if a0 > 2 || (a0 < 2 && a1 > 39) {
            return None;
        }
        let first = a0 * 40 + a1;
        let total = arcs.get(2..).map_or(0, |rest| {
            rest.iter().map(|&a| base128_len(a)).sum::<usize>()
        }) + base128_len(first);
        if total <= INLINE_CAP {
            let mut buf = [0u8; INLINE_CAP];
            let mut at = 0usize;
            let mut emit = |b: u8| {
                if let Some(slot) = buf.get_mut(at) {
                    *slot = b;
                }
                at += 1;
            };
            for_each_base128(first, &mut emit);
            for &arc in arcs.get(2..).unwrap_or(&[]) {
                for_each_base128(arc, &mut emit);
            }
            Some(Oid { repr: Repr::Inline { len: total as u8, buf } })
        } else {
            let mut der = Vec::with_capacity(total); // analysis:allow(unbounded_alloc) capacity is the exact encoded length of caller-supplied arcs on the builder path, not attacker-controlled input
            for_each_base128(first, |b| der.push(b));
            for &arc in arcs.get(2..).unwrap_or(&[]) {
                for_each_base128(arc, |b| der.push(b));
            }
            Some(Oid { repr: Repr::Heap(der.into()) })
        }
    }

    /// Parse DER content octets (the V of the OID's TLV).
    #[inline]
    pub fn from_der_value(der: &[u8]) -> Result<Oid> {
        if der.is_empty() || der.last().map(|b| b & 0x80 != 0) == Some(true) {
            return Err(Error::InvalidOid);
        }
        // Verify each arc is minimally encoded and fits in u64.
        let mut continuations = 0;
        let mut at_arc_start = true;
        for &b in der {
            if at_arc_start && b == 0x80 {
                return Err(Error::InvalidOid); // non-minimal
            }
            if b & 0x80 != 0 {
                continuations += 1;
                if continuations > 9 {
                    return Err(Error::InvalidOid);
                }
                at_arc_start = false;
            } else {
                continuations = 0;
                at_arc_start = true;
            }
        }
        Ok(Oid::from_bytes(der))
    }

    /// Parse a dotted-decimal string like `"2.5.4.3"`.
    pub fn from_dotted(s: &str) -> Option<Oid> {
        let arcs: Option<Vec<u64>> = s.split('.').map(|p| p.parse().ok()).collect();
        Oid::from_arcs(&arcs?)
    }

    /// The DER content octets.
    pub fn as_der_value(&self) -> &[u8] {
        match &self.repr {
            Repr::Inline { len, buf } => buf.get(..usize::from(*len)).unwrap_or(buf),
            Repr::Heap(der) => der,
        }
    }

    /// Decode the arc sequence.
    pub fn arcs(&self) -> Vec<u64> {
        let mut arcs = Vec::new();
        let mut iter = self.as_der_value().iter();
        let mut cur: u64 = 0;
        let mut first = true;
        for &b in iter.by_ref() {
            cur = (cur << 7) | (b & 0x7F) as u64;
            if b & 0x80 == 0 {
                if first {
                    if cur < 40 {
                        arcs.push(0);
                        arcs.push(cur);
                    } else if cur < 80 {
                        arcs.push(1);
                        arcs.push(cur - 40);
                    } else {
                        arcs.push(2);
                        arcs.push(cur - 80);
                    }
                    first = false;
                } else {
                    arcs.push(cur);
                }
                cur = 0;
            }
        }
        arcs
    }

    /// Dotted-decimal form.
    pub fn to_dotted(&self) -> String {
        self.arcs().iter().map(|a| a.to_string()).collect::<Vec<_>>().join(".")
    }

    /// Short name from the X.509 dictionary (e.g. `CN`), if known.
    pub fn short_name(&self) -> Option<&'static str> {
        known::lookup(self).map(|(short, _)| short)
    }

    /// Long name from the X.509 dictionary (e.g. `commonName`), if known.
    pub fn long_name(&self) -> Option<&'static str> {
        known::lookup(self).map(|(_, long)| long)
    }
}

impl Clone for Oid {
    fn clone(&self) -> Oid {
        let repr = match &self.repr {
            Repr::Inline { len, buf } => Repr::Inline { len: *len, buf: *buf },
            Repr::Heap(der) => Repr::Heap(der.clone()),
        };
        Oid { repr }
    }
}

// Equality, ordering, and hashing all mean "same content octets", so an
// inline and a heap `Oid` with the same wire form are indistinguishable.
// Two inline reprs compare as fixed-size values (`len` plus the zero-padded
// buffer), which is the same answer because of the padding invariant on
// [`Repr`]; any other pairing compares the octets themselves.
impl PartialEq for Oid {
    fn eq(&self, other: &Oid) -> bool {
        match (&self.repr, &other.repr) {
            (Repr::Inline { len: a, buf: x }, Repr::Inline { len: b, buf: y }) => a == b && x == y,
            _ => self.as_der_value() == other.as_der_value(),
        }
    }
}

impl Eq for Oid {}

impl std::hash::Hash for Oid {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_der_value().hash(state);
    }
}

impl PartialOrd for Oid {
    fn partial_cmp(&self, other: &Oid) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Oid {
    fn cmp(&self, other: &Oid) -> std::cmp::Ordering {
        self.as_der_value().cmp(other.as_der_value())
    }
}

/// Number of base-128 septets `v` encodes to.
fn base128_len(v: u64) -> usize {
    1 + (1..10).rev().find(|&i| (v >> (7 * i)) & 0x7F != 0).unwrap_or(0)
}

/// Encode a dictionary arc sequence as an inline [`Oid`] at compile time.
///
/// Only `const` items in [`known`] call this, so every index below is
/// evaluated by the compiler: an arc list that does not fit the inline
/// buffer is a compile error, never a runtime panic. The arcs are not
/// range-checked here; the dictionary test pins each entry against
/// [`Oid::from_arcs`].
const fn const_oid(arcs: &[u64]) -> Oid {
    let mut buf = [0u8; INLINE_CAP];
    let mut at = 0;
    let mut i = 1;
    while i < arcs.len() {
        // The first two arcs share one subidentifier (X.690 §8.19.4).
        let arc = if i == 1 { arcs[0] * 40 + arcs[1] } else { arcs[i] }; // analysis:allow(slice_index) const-evaluated only; an out-of-range index is a compile error
        let mut top = 0;
        while top < 9 && arc >> (7 * (top + 1)) != 0 {
            top += 1;
        }
        while top > 0 {
            buf[at] = ((arc >> (7 * top)) & 0x7F) as u8 | 0x80; // analysis:allow(slice_index) const-evaluated only; an out-of-range index is a compile error
            at += 1;
            top -= 1;
        }
        buf[at] = (arc & 0x7F) as u8; // analysis:allow(slice_index) const-evaluated only; an out-of-range index is a compile error
        at += 1;
        i += 1;
    }
    Oid { repr: Repr::Inline { len: at as u8, buf } }
}

fn for_each_base128(v: u64, mut emit: impl FnMut(u8)) {
    // 10 septets cover a u64; emit most-significant first with the
    // continuation bit on every octet but the last.
    let top = (1..10).rev().find(|&i| (v >> (7 * i)) & 0x7F != 0).unwrap_or(0);
    for i in (1..=top).rev() {
        emit(((v >> (7 * i)) & 0x7F) as u8 | 0x80);
    }
    emit((v & 0x7F) as u8);
}

impl fmt::Debug for Oid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.short_name() {
            Some(name) => write!(f, "Oid({} /{}/)", self.to_dotted(), name),
            None => write!(f, "Oid({})", self.to_dotted()),
        }
    }
}

impl fmt::Display for Oid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_dotted())
    }
}

/// The OID dictionary used throughout the workspace: DN attribute types
/// (Table 9 of the paper, plus App. E's tested attribute OIDs), extension
/// OIDs (Fig. 1), and algorithm identifiers for the simulated signer.
pub mod known {
    use super::Oid;

    /// One dictionary entry: the OID, its arcs, and its short and long
    /// names.
    #[derive(Debug)]
    pub struct Entry {
        /// The OID (the same value the entry's accessor returns).
        pub oid: Oid,
        /// The arc sequence the OID encodes.
        pub arcs: &'static [u64],
        /// Short name, e.g. `CN`.
        pub short: &'static str,
        /// Long name, e.g. `commonName`.
        pub long: &'static str,
    }

    macro_rules! oids {
        ($($(#[$doc:meta])* $name:ident = [$($arc:expr),+], $short:literal, $long:literal;)+) => {
            $(
                $(#[$doc])*
                pub const fn $name() -> Oid {
                    // Encoded by the compiler: a call is a 24-byte copy.
                    const OID: Oid = super::const_oid(&[$($arc),+]);
                    OID
                }
            )+

            /// Every dictionary entry, in declaration order.
            pub const ALL: &[Entry] = &[
                $(Entry { oid: $name(), arcs: &[$($arc),+], short: $short, long: $long },)+
            ];
        };
    }

    /// Look up `(short_name, long_name)` for a known OID.
    pub fn lookup(oid: &Oid) -> Option<(&'static str, &'static str)> {
        ALL.iter().find(|e| e.oid == *oid).map(|e| (e.short, e.long))
    }

    oids! {
        /// `id-at-commonName` — 2.5.4.3.
        common_name = [2, 5, 4, 3], "CN", "commonName";
        /// `id-at-surname` — 2.5.4.4.
        surname = [2, 5, 4, 4], "SN", "surname";
        /// `id-at-serialNumber` — 2.5.4.5.
        serial_number = [2, 5, 4, 5], "serialNumber", "serialNumber";
        /// `id-at-countryName` — 2.5.4.6.
        country_name = [2, 5, 4, 6], "C", "countryName";
        /// `id-at-localityName` — 2.5.4.7.
        locality_name = [2, 5, 4, 7], "L", "localityName";
        /// `id-at-stateOrProvinceName` — 2.5.4.8.
        state_or_province = [2, 5, 4, 8], "ST", "stateOrProvinceName";
        /// `id-at-streetAddress` — 2.5.4.9.
        street_address = [2, 5, 4, 9], "STREET", "streetAddress";
        /// `id-at-organizationName` — 2.5.4.10.
        organization_name = [2, 5, 4, 10], "O", "organizationName";
        /// `id-at-organizationalUnitName` — 2.5.4.11.
        organizational_unit = [2, 5, 4, 11], "OU", "organizationalUnitName";
        /// `id-at-title` — 2.5.4.12.
        title = [2, 5, 4, 12], "title", "title";
        /// `id-at-businessCategory` — 2.5.4.15.
        business_category = [2, 5, 4, 15], "businessCategory", "businessCategory";
        /// `id-at-postalCode` — 2.5.4.17.
        postal_code = [2, 5, 4, 17], "postalCode", "postalCode";
        /// `id-at-givenName` — 2.5.4.42.
        given_name = [2, 5, 4, 42], "GN", "givenName";
        /// `id-at-initials` — 2.5.4.43.
        initials = [2, 5, 4, 43], "initials", "initials";
        /// `id-at-dnQualifier` — 2.5.4.46.
        dn_qualifier = [2, 5, 4, 46], "dnQualifier", "dnQualifier";
        /// `id-at-pseudonym` — 2.5.4.65.
        pseudonym = [2, 5, 4, 65], "pseudonym", "pseudonym";
        /// EV jurisdictionLocalityName — 1.3.6.1.4.1.311.60.2.1.1.
        jurisdiction_locality = [1, 3, 6, 1, 4, 1, 311, 60, 2, 1, 1], "jurisdictionL", "jurisdictionLocalityName";
        /// EV jurisdictionStateOrProvinceName — 1.3.6.1.4.1.311.60.2.1.2.
        jurisdiction_state = [1, 3, 6, 1, 4, 1, 311, 60, 2, 1, 2], "jurisdictionST", "jurisdictionStateOrProvinceName";
        /// EV jurisdictionCountryName — 1.3.6.1.4.1.311.60.2.1.3.
        jurisdiction_country = [1, 3, 6, 1, 4, 1, 311, 60, 2, 1, 3], "jurisdictionC", "jurisdictionCountryName";
        /// `domainComponent` — 0.9.2342.19200300.100.1.25.
        domain_component = [0, 9, 2342, 19200300, 100, 1, 25], "DC", "domainComponent";
        /// `userId` — 0.9.2342.19200300.100.1.1.
        user_id = [0, 9, 2342, 19200300, 100, 1, 1], "UID", "userId";
        /// PKCS#9 `emailAddress` — 1.2.840.113549.1.9.1.
        email_address = [1, 2, 840, 113549, 1, 9, 1], "emailAddress", "emailAddress";
        /// `id-ce-subjectAltName` — 2.5.29.17.
        subject_alt_name = [2, 5, 29, 17], "SAN", "subjectAltName";
        /// `id-ce-issuerAltName` — 2.5.29.18.
        issuer_alt_name = [2, 5, 29, 18], "IAN", "issuerAltName";
        /// `id-ce-basicConstraints` — 2.5.29.19.
        basic_constraints = [2, 5, 29, 19], "BC", "basicConstraints";
        /// `id-ce-keyUsage` — 2.5.29.15.
        key_usage = [2, 5, 29, 15], "KU", "keyUsage";
        /// `id-ce-extKeyUsage` — 2.5.29.37.
        ext_key_usage = [2, 5, 29, 37], "EKU", "extKeyUsage";
        /// `id-ce-certificatePolicies` — 2.5.29.32.
        certificate_policies = [2, 5, 29, 32], "CP", "certificatePolicies";
        /// `id-ce-cRLDistributionPoints` — 2.5.29.31.
        crl_distribution_points = [2, 5, 29, 31], "CRLDP", "cRLDistributionPoints";
        /// `id-ce-subjectKeyIdentifier` — 2.5.29.14.
        subject_key_identifier = [2, 5, 29, 14], "SKI", "subjectKeyIdentifier";
        /// `id-ce-authorityKeyIdentifier` — 2.5.29.35.
        authority_key_identifier = [2, 5, 29, 35], "AKI", "authorityKeyIdentifier";
        /// `id-ce-nameConstraints` — 2.5.29.30.
        name_constraints = [2, 5, 29, 30], "NC", "nameConstraints";
        /// `id-pe-authorityInfoAccess` — 1.3.6.1.5.5.7.1.1.
        authority_info_access = [1, 3, 6, 1, 5, 5, 7, 1, 1], "AIA", "authorityInfoAccess";
        /// `id-pe-subjectInfoAccess` — 1.3.6.1.5.5.7.1.11.
        subject_info_access = [1, 3, 6, 1, 5, 5, 7, 1, 11], "SIA", "subjectInfoAccess";
        /// CT precertificate poison — 1.3.6.1.4.1.11129.2.4.3.
        ct_poison = [1, 3, 6, 1, 4, 1, 11129, 2, 4, 3], "CTPoison", "ctPrecertificatePoison";
        /// CT SCT list — 1.3.6.1.4.1.11129.2.4.2.
        ct_sct_list = [1, 3, 6, 1, 4, 1, 11129, 2, 4, 2], "SCTList", "signedCertificateTimestampList";
        /// `id-ad-ocsp` — 1.3.6.1.5.5.7.48.1.
        ad_ocsp = [1, 3, 6, 1, 5, 5, 7, 48, 1], "OCSP", "id-ad-ocsp";
        /// `id-ad-caIssuers` — 1.3.6.1.5.5.7.48.2.
        ad_ca_issuers = [1, 3, 6, 1, 5, 5, 7, 48, 2], "caIssuers", "id-ad-caIssuers";
        /// `id-ad-caRepository` — 1.3.6.1.5.5.7.48.5.
        ad_ca_repository = [1, 3, 6, 1, 5, 5, 7, 48, 5], "caRepository", "id-ad-caRepository";
        /// `id-on-SmtpUTF8Mailbox` — 1.3.6.1.5.5.7.8.9 (RFC 9598).
        smtp_utf8_mailbox = [1, 3, 6, 1, 5, 5, 7, 8, 9], "SmtpUTF8Mailbox", "id-on-SmtpUTF8Mailbox";
        /// `id-qt-cps` — 1.3.6.1.5.5.7.2.1.
        qt_cps = [1, 3, 6, 1, 5, 5, 7, 2, 1], "CPS", "id-qt-cps";
        /// `id-qt-unotice` — 1.3.6.1.5.5.7.2.2.
        qt_unotice = [1, 3, 6, 1, 5, 5, 7, 2, 2], "userNotice", "id-qt-unotice";
        /// `anyPolicy` — 2.5.29.32.0.
        any_policy = [2, 5, 29, 32, 0], "anyPolicy", "anyPolicy";
        /// Simulated signature algorithm ("sha256-with-simsig"): a private
        /// arc standing in for sha256WithRSAEncryption — see x509::sign.
        sim_signature = [1, 3, 6, 1, 4, 1, 99999, 1], "simSig", "sha256WithSimulatedSignature";
        /// Simulated public key algorithm.
        sim_public_key = [1, 3, 6, 1, 4, 1, 99999, 2], "simKey", "simulatedPublicKey";
        /// `extendedKeyUsage` serverAuth — 1.3.6.1.5.5.7.3.1.
        eku_server_auth = [1, 3, 6, 1, 5, 5, 7, 3, 1], "serverAuth", "id-kp-serverAuth";
        /// `extendedKeyUsage` clientAuth — 1.3.6.1.5.5.7.3.2.
        eku_client_auth = [1, 3, 6, 1, 5, 5, 7, 3, 2], "clientAuth", "id-kp-clientAuth";
        /// `id-pe-logotype` (RFC 3709/9399) — 1.3.6.1.5.5.7.1.12.
        logotype = [1, 3, 6, 1, 5, 5, 7, 1, 12], "logotype", "id-pe-logotype";
        /// `extendedKeyUsage` BIMI brand indicator — 1.3.6.1.5.5.7.3.31.
        eku_bimi = [1, 3, 6, 1, 5, 5, 7, 3, 31], "BIMI", "id-kp-BrandIndicatorforMessageIdentification";
        /// BIMI mark-certificate policy — 1.3.6.1.4.1.53087.1.1.
        bimi_mark_cert_policy = [1, 3, 6, 1, 4, 1, 53087, 1, 1], "markCertPolicy", "bimi-mark-certificate-policy";
        /// BIMI subject markType — 1.3.6.1.4.1.53087.1.13.
        bimi_mark_type = [1, 3, 6, 1, 4, 1, 53087, 1, 13], "markType", "bimi-markType";
        /// BIMI trademarkOfficeName — 1.3.6.1.4.1.53087.1.2.
        bimi_trademark_office = [1, 3, 6, 1, 4, 1, 53087, 1, 2], "trademarkOffice", "bimi-trademarkOfficeName";
        /// BIMI trademarkCountryOrRegionName — 1.3.6.1.4.1.53087.1.3.
        bimi_trademark_country = [1, 3, 6, 1, 4, 1, 53087, 1, 3], "trademarkCountry", "bimi-trademarkCountryOrRegionName";
        /// BIMI trademarkRegistration — 1.3.6.1.4.1.53087.1.4.
        bimi_trademark_id = [1, 3, 6, 1, 4, 1, 53087, 1, 4], "trademarkRegistration", "bimi-trademarkRegistration";
        /// BIMI statuteCountryOrRegionName — 1.3.6.1.4.1.53087.3.2.
        bimi_statute_country = [1, 3, 6, 1, 4, 1, 53087, 3, 2], "statuteCountry", "bimi-statuteCountryOrRegionName";
        /// BIMI statuteCitation — 1.3.6.1.4.1.53087.3.5.
        bimi_statute_citation = [1, 3, 6, 1, 4, 1, 53087, 3, 5], "statuteCitation", "bimi-statuteCitation";
        /// BIMI priorUseMarkSourceURL — 1.3.6.1.4.1.53087.5.1.
        bimi_prior_use_url = [1, 3, 6, 1, 4, 1, 53087, 5, 1], "priorUseURL", "bimi-priorUseMarkSourceURL";
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arcs_round_trip() {
        for arcs in [
            vec![2u64, 5, 4, 3],
            vec![1, 2, 840, 113549, 1, 9, 1],
            vec![0, 9, 2342, 19200300, 100, 1, 25],
            vec![1, 3, 6, 1, 4, 1, 11129, 2, 4, 3],
            vec![2, 999, 3],
        ] {
            let oid = Oid::from_arcs(&arcs).unwrap();
            assert_eq!(oid.arcs(), arcs);
            let reparsed = Oid::from_der_value(oid.as_der_value()).unwrap();
            assert_eq!(reparsed, oid);
        }
    }

    #[test]
    fn known_wire_forms() {
        // commonName = 06 03 55 04 03 (value part).
        assert_eq!(known::common_name().as_der_value(), &[0x55, 0x04, 0x03]);
        // emailAddress = 2A 86 48 86 F7 0D 01 09 01.
        assert_eq!(
            known::email_address().as_der_value(),
            &[0x2A, 0x86, 0x48, 0x86, 0xF7, 0x0D, 0x01, 0x09, 0x01]
        );
    }

    #[test]
    fn dotted_parsing() {
        let oid = Oid::from_dotted("2.5.4.3").unwrap();
        assert_eq!(oid, known::common_name());
        assert_eq!(oid.to_dotted(), "2.5.4.3");
        assert!(Oid::from_dotted("").is_none());
        assert!(Oid::from_dotted("3.1").is_none());
        assert!(Oid::from_dotted("1.40").is_none());
    }

    #[test]
    fn rejects_malformed_der() {
        assert!(Oid::from_der_value(&[]).is_err());
        assert!(Oid::from_der_value(&[0x80, 0x01]).is_err()); // non-minimal
        assert!(Oid::from_der_value(&[0x55, 0x84]).is_err()); // truncated arc
    }

    #[test]
    fn every_dictionary_entry_matches_its_arcs() {
        assert!(!known::ALL.is_empty());
        for entry in known::ALL {
            let built = Oid::from_arcs(entry.arcs).expect("dictionary arcs encode");
            assert_eq!(entry.oid, built, "{}", entry.long);
            assert_eq!(entry.oid.as_der_value(), built.as_der_value(), "{}", entry.long);
            assert_eq!(entry.oid.arcs(), entry.arcs, "{}", entry.long);
            let dotted = entry.oid.to_dotted();
            assert_eq!(Oid::from_dotted(&dotted), Some(entry.oid.clone()), "{dotted}");
            assert_eq!(known::lookup(&built), Some((entry.short, entry.long)));
        }
        // The accessors return the table's values.
        assert_eq!(known::common_name(), known::ALL[0].oid);
        assert_eq!(known::subject_alt_name().to_dotted(), "2.5.29.17");
    }

    fn hash_of(oid: &Oid) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        oid.hash(&mut h);
        h.finish()
    }

    /// `==` must agree with comparing content octets, and with `Hash`
    /// and `Ord`, for every pairing of reprs.
    fn assert_consistent(a: &Oid, b: &Oid) {
        let bytes_equal = a.as_der_value() == b.as_der_value();
        assert_eq!(a == b, bytes_equal, "{a:?} vs {b:?}");
        assert_eq!(b == a, bytes_equal, "{b:?} vs {a:?}");
        assert_eq!(a.cmp(b), a.as_der_value().cmp(b.as_der_value()), "{a:?} vs {b:?}");
        assert_eq!(a.cmp(b) == std::cmp::Ordering::Equal, bytes_equal);
        if bytes_equal {
            assert_eq!(hash_of(a), hash_of(b), "{a:?} vs {b:?}");
        }
    }

    fn heap_copy(oid: &Oid) -> Oid {
        Oid { repr: Repr::Heap(oid.as_der_value().into()) }
    }

    #[test]
    fn equality_fast_path_matches_bytes_hash_and_order() {
        let long_arcs: Vec<u64> = (0..30).map(|i| 1000 + i).collect();
        let long = Oid::from_arcs(&[&[1u64, 3][..], &long_arcs].concat()).unwrap();
        assert!(matches!(long.repr, Repr::Heap(_)));
        let mut oids = vec![
            // Shared prefixes, different lengths.
            known::certificate_policies(),
            known::any_policy(),
            Oid::from_arcs(&[2, 5, 29]).unwrap(),
            Oid::from_arcs(&[2, 5, 29, 32, 0, 0]).unwrap(),
            known::eku_server_auth(),
            known::eku_client_auth(),
            known::authority_info_access(),
            // Parsed from DER rather than built from the dictionary.
            Oid::from_der_value(&[0x55, 0x04, 0x03]).unwrap(),
            Oid::from_der_value(&[0x55, 0x04]).unwrap(),
            long.clone(),
            Oid::from_arcs(&[&[1u64, 3][..], &long_arcs[..29]].concat()).unwrap(),
        ];
        // The same octets held on the heap, against the inline originals.
        oids.push(heap_copy(&known::common_name()));
        oids.push(heap_copy(&known::any_policy()));
        oids.push(heap_copy(&long));
        for a in &oids {
            for b in &oids {
                assert_consistent(a, b);
            }
        }
        let parsed = Oid::from_der_value(known::common_name().as_der_value()).unwrap();
        assert_eq!(parsed, known::common_name());
        assert_eq!(heap_copy(&parsed), known::common_name());
        assert_eq!(parsed.clone(), parsed);
        assert_eq!(long.clone(), long);
    }

    #[test]
    fn dictionary_lookup() {
        assert_eq!(known::common_name().short_name(), Some("CN"));
        assert_eq!(known::organization_name().long_name(), Some("organizationName"));
        assert_eq!(Oid::from_dotted("1.2.3.4").unwrap().short_name(), None);
    }
}
