//! Punycode: the Bootstring encoding of RFC 3492.
//!
//! Implemented from the RFC directly (parameters of §5, algorithms of §6).

/// Decoding failure reasons.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PunycodeError {
    /// A basic (pre-delimiter) code point was not ASCII.
    NonBasicCodePoint,
    /// An extended digit was outside `[a-z0-9]`.
    InvalidDigit,
    /// Arithmetic overflowed (RFC 3492 §6.4 guard).
    Overflow,
    /// The decoded value is not a Unicode scalar (e.g. a surrogate).
    InvalidCodePoint,
    /// Input ended in the middle of a delta.
    Truncated,
}

const BASE: u32 = 36;
const TMIN: u32 = 1;
const TMAX: u32 = 26;
const SKEW: u32 = 38;
const DAMP: u32 = 700;
const INITIAL_BIAS: u32 = 72;
const INITIAL_N: u32 = 128;
const DELIMITER: char = '-';

fn adapt(mut delta: u32, num_points: u32, first_time: bool) -> u32 {
    delta /= if first_time { DAMP } else { 2 };
    delta += delta / num_points;
    let mut k = 0;
    while delta > ((BASE - TMIN) * TMAX) / 2 {
        delta /= BASE - TMIN;
        k += BASE;
    }
    k + (((BASE - TMIN + 1) * delta) / (delta + SKEW))
}

fn digit_to_char(d: u32) -> char {
    debug_assert!(d < BASE);
    if d < 26 {
        (b'a' + d as u8) as char
    } else {
        (b'0' + (d - 26) as u8) as char
    }
}

fn char_to_digit(c: char) -> Option<u32> {
    match c {
        'a'..='z' => Some(c as u32 - 'a' as u32),
        'A'..='Z' => Some(c as u32 - 'A' as u32),
        '0'..='9' => Some(c as u32 - '0' as u32 + 26),
        _ => None,
    }
}

/// Encode a Unicode string as Punycode (without any `xn--` prefix).
///
/// Returns `None` on overflow (inputs beyond the algorithm's range).
pub fn encode(input: &str) -> Option<String> {
    let mut output: String = input.chars().filter(char::is_ascii).collect();
    let b = output.len() as u32;
    let total = input.chars().count();
    let mut h = b;
    // RFC 3492 §6.3: the delimiter is emitted whenever there are basic code
    // points, even if no extended code points follow ("-> $1.00 <-" encodes
    // to "-> $1.00 <--").
    if b > 0 {
        output.push(DELIMITER);
    }
    let mut n = INITIAL_N;
    let mut delta: u32 = 0;
    let mut bias = INITIAL_BIAS;
    while (h as usize) < total {
        let m = input.chars().map(u32::from).filter(|&c| c >= n).min()?;
        delta = delta.checked_add((m - n).checked_mul(h + 1)?)?;
        n = m;
        for c in input.chars().map(u32::from) {
            if c < n {
                delta = delta.checked_add(1)?;
            }
            if c == n {
                let mut q = delta;
                let mut k = BASE;
                loop {
                    let t = if k <= bias {
                        TMIN
                    } else if k >= bias + TMAX {
                        TMAX
                    } else {
                        k - bias
                    };
                    if q < t {
                        break;
                    }
                    output.push(digit_to_char(t + (q - t) % (BASE - t)));
                    q = (q - t) / (BASE - t);
                    k += BASE;
                }
                output.push(digit_to_char(q));
                bias = adapt(delta, h + 1, h == b);
                delta = 0;
                h += 1;
            }
        }
        delta = delta.checked_add(1)?;
        n = n.checked_add(1)?;
    }
    Some(output)
}

/// Decode a Punycode string (without any `xn--` prefix).
pub fn decode(input: &str) -> Result<String, PunycodeError> {
    let mut output: Vec<char> = Vec::new();
    let (basic_part, extended) = match input.rsplit_once(DELIMITER) {
        Some((basic, ext)) => (basic, ext),
        None => ("", input),
    };
    for c in basic_part.chars() {
        if !c.is_ascii() {
            return Err(PunycodeError::NonBasicCodePoint);
        }
        output.push(c);
    }
    let mut n = INITIAL_N;
    let mut i: u32 = 0;
    let mut bias = INITIAL_BIAS;
    let mut iter = extended.chars().peekable();
    while iter.peek().is_some() {
        let old_i = i;
        let mut w: u32 = 1;
        let mut k = BASE;
        loop {
            let c = iter.next().ok_or(PunycodeError::Truncated)?;
            let digit = char_to_digit(c).ok_or(PunycodeError::InvalidDigit)?;
            i = i
                .checked_add(digit.checked_mul(w).ok_or(PunycodeError::Overflow)?)
                .ok_or(PunycodeError::Overflow)?;
            let t = if k <= bias {
                TMIN
            } else if k >= bias + TMAX {
                TMAX
            } else {
                k - bias
            };
            if digit < t {
                break;
            }
            w = w.checked_mul(BASE - t).ok_or(PunycodeError::Overflow)?;
            k += BASE;
        }
        let len = output.len() as u32 + 1;
        bias = adapt(i - old_i, len, old_i == 0);
        n = n
            .checked_add(i / len)
            .ok_or(PunycodeError::Overflow)?;
        i %= len;
        let ch = char::from_u32(n).ok_or(PunycodeError::InvalidCodePoint)?;
        output.insert(i as usize, ch);
        i += 1;
    }
    Ok(output.into_iter().collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    // RFC 3492 §7.1 sample strings.
    #[test]
    fn rfc_sample_arabic() {
        let u = "\u{644}\u{64A}\u{647}\u{645}\u{627}\u{628}\u{62A}\u{643}\u{644}\u{645}\u{648}\u{634}\u{639}\u{631}\u{628}\u{64A}\u{61F}";
        let p = "egbpdaj6bu4bxfgehfvwxn";
        assert_eq!(encode(u).unwrap(), p);
        assert_eq!(decode(p).unwrap(), u);
    }

    #[test]
    fn rfc_sample_chinese_simplified() {
        let u = "\u{4ED6}\u{4EEC}\u{4E3A}\u{4EC0}\u{4E48}\u{4E0D}\u{8BF4}\u{4E2D}\u{6587}";
        let p = "ihqwcrb4cv8a8dqg056pqjye";
        assert_eq!(encode(u).unwrap(), p);
        assert_eq!(decode(p).unwrap(), u);
    }

    #[test]
    fn rfc_sample_mixed_ascii() {
        // (S) -> $1.00 <-
        let u = "-> $1.00 <-";
        let p = "-> $1.00 <--";
        assert_eq!(encode(u).unwrap(), p);
        assert_eq!(decode(p).unwrap(), u);
    }

    #[test]
    fn common_domains() {
        assert_eq!(encode("münchen").unwrap(), "mnchen-3ya");
        assert_eq!(decode("mnchen-3ya").unwrap(), "münchen");
        assert_eq!(encode("中国").unwrap(), "fiqs8s");
        assert_eq!(decode("fiqs8s").unwrap(), "中国");
        assert_eq!(encode("bücher").unwrap(), "bcher-kva");
    }

    #[test]
    fn pure_ascii_round_trip() {
        assert_eq!(encode("example").unwrap(), "example-");
        assert_eq!(decode("example-").unwrap(), "example");
    }

    #[test]
    fn paper_deceptive_label() {
        // §6.1 P1.3: "xn--www-hn0a" is "\u{200E}www" — LRM prepended.
        assert_eq!(decode("www-hn0a").unwrap(), "\u{200E}www");
        assert_eq!(encode("\u{200E}www").unwrap(), "www-hn0a");
    }

    #[test]
    fn rejects_malformed() {
        assert_eq!(decode("é-abc"), Err(PunycodeError::NonBasicCodePoint));
        assert_eq!(decode("abc-!!!"), Err(PunycodeError::InvalidDigit));
        // A delta engineered to overflow.
        assert_eq!(decode("99999999999"), Err(PunycodeError::Overflow));
    }

    #[test]
    fn empty_input() {
        assert_eq!(encode("").unwrap(), "");
        assert_eq!(decode("").unwrap(), "");
    }
}
