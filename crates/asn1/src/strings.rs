//! The eight ASN.1 string types of RFC 5280 (paper Table 8).
//!
//! Each kind knows three things:
//!
//! * its universal **tag**;
//! * its **wire format** (how Unicode scalars map to bytes): ASCII-ish
//!   single byte, UTF-8, UCS-2, or UCS-4;
//! * its **standard character set** (which scalars are legal) — checked by
//!   [`validate`], *never* implicitly during encoding, because the paper's
//!   test-certificate generator (§3.2) exists to produce strings that violate
//!   these sets.

use crate::error::{Error, Result};
use crate::tag::{universal, Tag};

/// The ASN.1 string types permitted in X.509 certificates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum StringKind {
    /// UTF8String (tag 12) — full Unicode, UTF-8 encoded.
    Utf8,
    /// NumericString (tag 18) — digits and space, ASCII encoded.
    Numeric,
    /// PrintableString (tag 19) — a conservative ASCII subset.
    Printable,
    /// TeletexString / T61String (tag 20) — legacy; decoded as ISO-8859-1 in
    /// common practice (full T.61 escape handling is unimplemented
    /// everywhere, including the libraries the paper studies).
    Teletex,
    /// IA5String (tag 22) — 7-bit ASCII (International Alphabet No. 5).
    Ia5,
    /// VisibleString (tag 26) — printable ASCII, no controls.
    Visible,
    /// UniversalString (tag 28) — UCS-4, four octets per character.
    Universal,
    /// BMPString (tag 30) — UCS-2, two octets per character (BMP only).
    Bmp,
}

/// All kinds, in tag order. Used by the §3.2 generator to sweep encodings.
pub const ALL_KINDS: [StringKind; 8] = [
    StringKind::Utf8,
    StringKind::Numeric,
    StringKind::Printable,
    StringKind::Teletex,
    StringKind::Ia5,
    StringKind::Visible,
    StringKind::Universal,
    StringKind::Bmp,
];

/// DirectoryString alternatives (RFC 5280 §4.1.2.4): the kinds a DN
/// attribute value may use. CAs MUST use Printable or Utf8 except for
/// legacy subjects.
pub const DIRECTORY_STRING_KINDS: [StringKind; 5] = [
    StringKind::Printable,
    StringKind::Utf8,
    StringKind::Teletex,
    StringKind::Universal,
    StringKind::Bmp,
];

impl StringKind {
    /// The universal tag for this kind (primitive).
    pub fn tag(self) -> Tag {
        Tag::universal(self.tag_number())
    }

    /// The universal tag number.
    pub fn tag_number(self) -> u32 {
        match self {
            StringKind::Utf8 => universal::UTF8_STRING,
            StringKind::Numeric => universal::NUMERIC_STRING,
            StringKind::Printable => universal::PRINTABLE_STRING,
            StringKind::Teletex => universal::TELETEX_STRING,
            StringKind::Ia5 => universal::IA5_STRING,
            StringKind::Visible => universal::VISIBLE_STRING,
            StringKind::Universal => universal::UNIVERSAL_STRING,
            StringKind::Bmp => universal::BMP_STRING,
        }
    }

    /// Map a universal tag number back to a string kind.
    pub fn from_tag_number(n: u32) -> Option<StringKind> {
        ALL_KINDS.iter().copied().find(|k| k.tag_number() == n)
    }

    /// The conventional name used in standards and the paper.
    pub fn name(self) -> &'static str {
        match self {
            StringKind::Utf8 => "UTF8String",
            StringKind::Numeric => "NumericString",
            StringKind::Printable => "PrintableString",
            StringKind::Teletex => "TeletexString",
            StringKind::Ia5 => "IA5String",
            StringKind::Visible => "VisibleString",
            StringKind::Universal => "UniversalString",
            StringKind::Bmp => "BMPString",
        }
    }

    /// Is `ch` inside this kind's *standard character set*?
    ///
    /// This is the set the linter and the character-checking analysis (§5.2)
    /// test against. Note this is a property of the scalar, independent of
    /// whether the bytes decode at all.
    pub fn allows_char(self, ch: char) -> bool {
        match self {
            StringKind::Utf8 => true,
            StringKind::Numeric => ch.is_ascii_digit() || ch == ' ',
            StringKind::Printable => is_printable_string_char(ch),
            // T.61's repertoire is fuzzy in practice; treat the 8-bit range
            // as representable (matching the ISO-8859-1 decoding convention).
            StringKind::Teletex => (ch as u32) <= 0xFF,
            StringKind::Ia5 => ch.is_ascii(),
            StringKind::Visible => matches!(ch, '\u{20}'..='\u{7E}'),
            StringKind::Universal => true,
            StringKind::Bmp => (ch as u32) <= 0xFFFF,
        }
    }

    /// Strictly decode content octets: the wire format must be well-formed
    /// **and** every character must be in the standard set.
    pub fn decode_strict(self, bytes: &[u8]) -> Result<String> {
        let s = self.decode_wire(bytes)?;
        if let Some(bad) = s.chars().find(|&c| !self.allows_char(c)) {
            return Err(Error::CharacterOutOfRange { kind: self, ch: bad as u32 });
        }
        Ok(s)
    }

    /// The wire decode of `bytes` when it is the bytes themselves: a
    /// UTF8String that is valid UTF-8, or a single-byte kind whose bytes
    /// are all ASCII (Latin-1 widening maps them to themselves). `None`
    /// when decoding would have to build new text or fails.
    ///
    /// Where this is `Some(t)`, [`StringKind::decode_wire`] returns
    /// `Ok(t.to_owned())`.
    pub fn wire_identity(self, bytes: &[u8]) -> Option<&str> {
        match self {
            StringKind::Utf8 => std::str::from_utf8(bytes).ok(),
            StringKind::Numeric
            | StringKind::Printable
            | StringKind::Ia5
            | StringKind::Visible
            | StringKind::Teletex => {
                if bytes.is_ascii() {
                    std::str::from_utf8(bytes).ok()
                } else {
                    None
                }
            }
            StringKind::Universal | StringKind::Bmp => None,
        }
    }

    /// Decode only the wire format (UTF-8 validity, UCS-2 pairing, …),
    /// without the character-set check. This is what "over-tolerant"
    /// implementations do (§5.1).
    pub fn decode_wire(self, bytes: &[u8]) -> Result<String> {
        match self {
            StringKind::Utf8 => std::str::from_utf8(bytes)
                .map(str::to_owned)
                .map_err(|_| Error::MalformedString { kind: self }),
            StringKind::Numeric
            | StringKind::Printable
            | StringKind::Ia5
            | StringKind::Visible => {
                // Single-byte types: any byte "decodes"; values >= 0x80 are
                // out of the 7-bit set and will fail the charset check, but
                // the wire itself is unambiguous (Latin-1 widening).
                Ok(bytes.iter().map(|&b| b as char).collect())
            }
            StringKind::Teletex => Ok(bytes.iter().map(|&b| b as char).collect()),
            StringKind::Universal => {
                if bytes.len() % 4 != 0 {
                    return Err(Error::MalformedString { kind: self });
                }
                bytes
                    .chunks_exact(4)
                    .map(|c| {
                        let v = u32::from_be_bytes([c[0], c[1], c[2], c[3]]);
                        char::from_u32(v).ok_or(Error::MalformedString { kind: self })
                    })
                    .collect()
            }
            StringKind::Bmp => {
                if bytes.len() % 2 != 0 {
                    return Err(Error::MalformedString { kind: self });
                }
                bytes
                    .chunks_exact(2)
                    .map(|c| {
                        let v = u16::from_be_bytes([c[0], c[1]]) as u32;
                        // UCS-2: surrogate code units are not characters.
                        char::from_u32(v).ok_or(Error::MalformedString { kind: self })
                    })
                    .collect()
            }
        }
    }

    /// Encode `text` in this kind's wire format, substituting `?` for
    /// characters the wire format cannot carry (not the character *set* —
    /// the wire *format*; e.g. U+0101 cannot be carried by a single-byte
    /// type, but U+00FF can even though IA5String forbids it).
    pub fn encode_lossy(self, text: &str) -> Vec<u8> {
        match self {
            StringKind::Utf8 => text.as_bytes().to_vec(),
            StringKind::Numeric
            | StringKind::Printable
            | StringKind::Ia5
            | StringKind::Visible
            | StringKind::Teletex => text
                .chars()
                .map(|c| if (c as u32) <= 0xFF { c as u8 } else { b'?' })
                .collect(),
            StringKind::Universal => text
                .chars()
                .flat_map(|c| (c as u32).to_be_bytes())
                .collect(),
            StringKind::Bmp => text
                .chars()
                .map(|c| if (c as u32) <= 0xFFFF { c as u32 as u16 } else { b'?' as u16 })
                .flat_map(|u| u.to_be_bytes())
                .collect(),
        }
    }

    /// Can the wire format carry every character of `text` losslessly?
    pub fn can_carry(self, text: &str) -> bool {
        match self {
            StringKind::Utf8 | StringKind::Universal => true,
            StringKind::Bmp => text.chars().all(|c| (c as u32) <= 0xFFFF),
            _ => text.chars().all(|c| (c as u32) <= 0xFF),
        }
    }
}

/// The PrintableString repertoire: letters, digits, and
/// `' ( ) + , - . / : = ?` plus space. Notably missing: `@ & * _ ! #`.
pub fn is_printable_string_char(ch: char) -> bool {
    ch.is_ascii_alphanumeric()
        || matches!(ch, ' ' | '\'' | '(' | ')' | '+' | ',' | '-' | '.' | '/' | ':' | '=' | '?')
}

/// Validate `bytes` as a fully conforming value of `kind`.
pub fn validate(kind: StringKind, bytes: &[u8]) -> Result<()> {
    kind.decode_strict(bytes).map(|_| ())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn printable_charset_boundaries() {
        for ok in ['A', 'z', '0', ' ', '\'', '(', ')', '+', ',', '-', '.', '/', ':', '=', '?'] {
            assert!(StringKind::Printable.allows_char(ok), "{ok:?}");
        }
        for bad in ['@', '&', '*', '_', '!', '#', ';', '<', '>', '"', '\u{0}', 'é'] {
            assert!(!StringKind::Printable.allows_char(bad), "{bad:?}");
        }
    }

    #[test]
    fn ia5_is_seven_bit() {
        assert!(StringKind::Ia5.allows_char('@'));
        assert!(StringKind::Ia5.allows_char('\u{7F}'));
        assert!(!StringKind::Ia5.allows_char('\u{80}'));
    }

    #[test]
    fn visible_excludes_controls() {
        assert!(StringKind::Visible.allows_char('~'));
        assert!(!StringKind::Visible.allows_char('\u{7F}'));
        assert!(!StringKind::Visible.allows_char('\n'));
    }

    #[test]
    fn utf8_strict_decoding() {
        assert_eq!(StringKind::Utf8.decode_strict("tëst".as_bytes()).unwrap(), "tëst");
        assert!(matches!(
            StringKind::Utf8.decode_strict(&[0xFF, 0xFE]),
            Err(Error::MalformedString { .. })
        ));
    }

    #[test]
    fn printable_strict_rejects_at_sign() {
        let err = StringKind::Printable.decode_strict(b"a@b").unwrap_err();
        assert_eq!(err, Error::CharacterOutOfRange { kind: StringKind::Printable, ch: '@' as u32 });
    }

    #[test]
    fn bmp_decoding() {
        // "Hi" in UCS-2 BE.
        assert_eq!(StringKind::Bmp.decode_strict(&[0x00, 0x48, 0x00, 0x69]).unwrap(), "Hi");
        // CJK: U+4E2D.
        assert_eq!(StringKind::Bmp.decode_strict(&[0x4E, 0x2D]).unwrap(), "中");
        // Odd length.
        assert!(StringKind::Bmp.decode_strict(&[0x00]).is_err());
        // Unpaired surrogate code unit.
        assert!(StringKind::Bmp.decode_strict(&[0xD8, 0x00]).is_err());
    }

    #[test]
    fn universal_decoding() {
        assert_eq!(
            StringKind::Universal.decode_strict(&[0x00, 0x01, 0xF6, 0x00]).unwrap(),
            "\u{1F600}"
        );
        assert!(StringKind::Universal.decode_strict(&[0x00, 0x00, 0x00]).is_err());
        assert!(StringKind::Universal.decode_strict(&[0x00, 0x11, 0x00, 0x00]).is_err());
    }

    #[test]
    fn lossy_encoding_substitutes() {
        assert_eq!(StringKind::Printable.encode_lossy("ab中"), b"ab?".to_vec());
        assert_eq!(StringKind::Bmp.encode_lossy("A\u{1F600}"), vec![0x00, 0x41, 0x00, b'?']);
        assert_eq!(StringKind::Teletex.encode_lossy("Stör"), vec![b'S', b't', 0xF6, b'r']);
    }

    #[test]
    fn encode_is_not_validated() {
        // The generator must be able to put '@' into a PrintableString.
        let bytes = StringKind::Printable.encode_lossy("evil@example");
        assert_eq!(bytes, b"evil@example".to_vec());
        assert!(validate(StringKind::Printable, &bytes).is_err());
    }

    #[test]
    fn wire_decode_is_over_tolerant_by_design() {
        // decode_wire models over-tolerant implementations: 0x80.. bytes in
        // a PrintableString decode (as Latin-1) rather than erroring.
        let s = StringKind::Printable.decode_wire(&[b'a', 0xE9]).unwrap();
        assert_eq!(s, "aé");
        assert!(StringKind::Printable.decode_strict(&[b'a', 0xE9]).is_err());
    }

    #[test]
    fn wire_identity_agrees_with_decode_wire() {
        let inputs: [&[u8]; 6] =
            [b"", b"plain ascii", "Müller".as_bytes(), &[b'a', 0xE9], &[0xC3, 0x28], &[0x00, 0x41]];
        for kind in ALL_KINDS {
            for bytes in inputs {
                if let Some(t) = kind.wire_identity(bytes) {
                    assert_eq!(kind.decode_wire(bytes).as_deref(), Ok(t), "{kind:?} {bytes:?}");
                    assert_eq!(t.as_bytes(), bytes);
                }
            }
        }
        assert_eq!(StringKind::Utf8.wire_identity("Müller".as_bytes()), Some("Müller"));
        assert_eq!(StringKind::Teletex.wire_identity(&[b'a', 0xE9]), None);
        assert_eq!(StringKind::Bmp.wire_identity(b"ab"), None);
    }

    #[test]
    fn tag_round_trip() {
        for kind in ALL_KINDS {
            assert_eq!(StringKind::from_tag_number(kind.tag_number()), Some(kind));
        }
        assert_eq!(StringKind::from_tag_number(16), None);
    }
}
