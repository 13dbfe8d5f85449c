//! The Bidi rule for IDN labels (RFC 5893 §2), simplified to the Unicode
//! general-category level.
//!
//! A label containing right-to-left characters must satisfy ordering
//! constraints or it renders ambiguously — exactly the display confusion
//! the paper's spoofing analyses build on. This implementation derives
//! approximate Bidi classes from general categories plus the script ranges
//! of the strong RTL blocks (Hebrew, Arabic, Syriac, Thaana, NKo), which
//! covers every case the test corpus and the paper's examples exercise;
//! it is not a full UCD bidi-class table (documented approximation).

use unicert_unicode::GeneralCategory;

/// Simplified bidi classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BidiClass {
    /// Strong left-to-right.
    L,
    /// Strong right-to-left (R or AL).
    Rtl,
    /// European number.
    En,
    /// Arabic number.
    An,
    /// Non-spacing mark.
    Nsm,
    /// Everything else relevant (ES/ET/CS/BN/ON collapsed).
    Other,
}

/// Is `cp` in one of the strong RTL script ranges (R / AL)? The Arabic
/// number ranges lie inside them too.
fn in_rtl_range(cp: u32) -> bool {
    matches!(
        cp,
        0x0590..=0x05FF // Hebrew
            | 0x0600..=0x06FF // Arabic
            | 0x0700..=0x074F // Syriac
            | 0x0750..=0x077F // Arabic Supplement
            | 0x0780..=0x07BF // Thaana
            | 0x07C0..=0x07FF // NKo
            | 0x08A0..=0x08FF // Arabic Extended-A
            | 0xFB1D..=0xFDFF // Hebrew/Arabic presentation forms
            | 0xFE70..=0xFEFF
            | 0x1EE00..=0x1EEFF
    )
}

/// Approximate bidi class of a character.
pub fn bidi_class(ch: char) -> BidiClass {
    let cp = ch as u32;
    let rtl = in_rtl_range(cp);
    if ch.is_ascii_digit() {
        return BidiClass::En;
    }
    if (0x0660..=0x0669).contains(&cp) || (0x06F0..=0x06F9).contains(&cp) {
        return BidiClass::An;
    }
    let cat = GeneralCategory::of(ch);
    if cat == GeneralCategory::NonspacingMark {
        return BidiClass::Nsm;
    }
    if rtl {
        return BidiClass::Rtl;
    }
    if cat.is_letter() {
        return BidiClass::L;
    }
    BidiClass::Other
}

/// Is this an RTL label (first character R/AL)?
pub fn is_rtl_label(label: &str) -> bool {
    label.chars().next().map(|c| bidi_class(c) == BidiClass::Rtl).unwrap_or(false)
}

/// RFC 5893 §2 check, simplified:
///
/// * LTR labels: first character L; only L/EN/NSM/Other afterwards (no
///   strong RTL, no AN); last non-NSM character L or EN.
/// * RTL labels: only R/AL/AN/EN/NSM/Other; not both EN and AN; last
///   non-NSM character R/AL/EN/AN.
pub fn satisfies_bidi_rule(label: &str) -> bool {
    // Only a code point in an RTL range can be classed Rtl or An. Without
    // one the label passes (the `!has_rtl && !has_an` arm below), so skip
    // the per-character general-category lookups.
    if !label.chars().any(|c| in_rtl_range(c as u32)) {
        return true;
    }
    // One streaming pass: the rule only needs the first class, whether each
    // class occurs at all, and the last non-NSM class.
    let mut first: Option<BidiClass> = None;
    let (mut has_rtl, mut has_an, mut has_en, mut has_l) = (false, false, false, false);
    let mut last_non_nsm: Option<BidiClass> = None;
    for c in label.chars() {
        let class = bidi_class(c);
        first.get_or_insert(class);
        match class {
            BidiClass::Rtl => has_rtl = true,
            BidiClass::An => has_an = true,
            BidiClass::En => has_en = true,
            BidiClass::L => has_l = true,
            BidiClass::Nsm | BidiClass::Other => {}
        }
        if class != BidiClass::Nsm {
            last_non_nsm = Some(class);
        }
    }
    if first.is_none() {
        return true;
    }
    if !has_rtl && !has_an {
        // Pure LTR label: fine as long as it doesn't *start* with a digit
        // when RTL material is absent — plain rule 1 relaxation for LDH.
        return true;
    }
    if first == Some(BidiClass::Rtl) {
        // RTL label.
        if has_en && has_an {
            return false; // rule 4
        }
        if has_l {
            return false; // rule 2: no strong L
        }
        matches!(
            last_non_nsm,
            Some(BidiClass::Rtl) | Some(BidiClass::En) | Some(BidiClass::An)
        )
    } else {
        // LTR (or number-led) label containing RTL or AN somewhere: the
        // mixing RFC 5893 forbids.
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pure_scripts_pass() {
        assert!(satisfies_bidi_rule("münchen"));
        assert!(satisfies_bidi_rule("例え"));
        assert!(satisfies_bidi_rule("שלום")); // Hebrew
        assert!(satisfies_bidi_rule("مرحبا")); // Arabic
        assert!(satisfies_bidi_rule("abc123"));
    }

    #[test]
    fn mixed_direction_fails() {
        // Latin letter inside a Hebrew label.
        assert!(!satisfies_bidi_rule("שלוaם"));
        // Hebrew inside a Latin-led label.
        assert!(!satisfies_bidi_rule("abcש"));
    }

    #[test]
    fn number_mixing_rule() {
        // Arabic label with European digits: allowed (rule 4 permits one
        // kind of number).
        assert!(satisfies_bidi_rule("مرحبا1"));
        // Arabic label with both digit systems: forbidden.
        assert!(!satisfies_bidi_rule("مرحبا1\u{661}"));
    }

    #[test]
    fn rtl_detection() {
        assert!(is_rtl_label("שלום"));
        assert!(!is_rtl_label("abc"));
    }

    #[test]
    fn classes_spot_checks() {
        assert_eq!(bidi_class('a'), BidiClass::L);
        assert_eq!(bidi_class('ש'), BidiClass::Rtl);
        assert_eq!(bidi_class('م'), BidiClass::Rtl);
        assert_eq!(bidi_class('7'), BidiClass::En);
        assert_eq!(bidi_class('\u{661}'), BidiClass::An);
        assert_eq!(bidi_class('\u{301}'), BidiClass::Nsm);
        assert_eq!(bidi_class('-'), BidiClass::Other);
    }
}
