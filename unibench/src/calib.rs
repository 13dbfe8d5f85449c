//! A fixed reference workload that the end-to-end run times next to the
//! program, so the program's time can be read at one reference machine
//! speed.
//!
//! The benchmark runs on shared hosts whose speed drifts by a factor of
//! two within minutes, for the program's wall and CPU time alike, with no
//! steal time reported. The reference workload is the benchmark's own code
//! and never changes with the program: it walks nested DER-like records
//! from a set larger than a core's caches, validates and lower-cases their
//! UTF-8 strings, looks code points up in a table and counts values in a
//! hash map. Like a survey it leans on the branch predictor, the
//! allocator, the caches and memory.
//!
//! Before every timed unit the end-to-end run walks one untimed slice, to
//! bring the reference set back into the caches the unit used, then times
//! a block of slices about as long as the unit. It reports the first
//! quartile of the unit times divided by the first quartile of the block
//! times. Host slow-downs stretch both alike and cancel; the quarter of
//! each that ran with the fewest interruptions is what is compared. The
//! ratio still moves one for one with the program's own speed, since the
//! reference work is fixed.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Records in the reference set (about 23 MB, far larger than a core's
/// L2 cache, like the surveyed corpus). Slices walk consecutive windows
/// of it in turn, as the timed units walk consecutive chunks of the
/// corpus, so each window comes back from the shared cache.
const RECORDS: usize = 32_768;

/// Entries of the code-point class table (1 MiB), looked up at random
/// like the Unicode tables the lints consult.
const CLASSES: usize = 1 << 20;

/// Records one reference slice walks: about 4.5 ms, as long as one timed
/// survey call, on the 2-vCPU Xeon VM the benchmark was written on.
const SLICE_RECORDS: usize = 256;

/// Nanoseconds one slice took on that VM: the reference speed that
/// normalised times are expressed at.
pub const REFERENCE_SLICE_NS: f64 = 4.5e6;

/// Code points of the reference strings: ASCII letters and digits plus
/// Latin, Cyrillic, Greek and CJK letters.
const ALPHABET: &[char] = &[
    'a', 'b', 'c', 'd', 'e', 'k', 'm', 'n', 'o', 'r', 's', 't', 'x', 'z', '0', '7', '-', '.', 'A',
    'Q', 'é', 'ü', 'ß', 'ø', 'ж', 'щ', 'Я', 'λ', 'Ω', '中', '文', '証', '明', 'ก', 'ا',
];

/// The reference workload: a fixed record set and a code-point table.
pub struct Calibration {
    records: Vec<Vec<u8>>,
    classes: Vec<u8>,
    next: usize,
}

impl Calibration {
    /// Build the fixed record set and walk a few warm-up slices.
    pub fn new() -> Calibration {
        let mut rng = XorShift(0x9e37_79b9_7f4a_7c15);
        let records = (0..RECORDS).map(|_| record(&mut rng)).collect();
        let classes = (0..CLASSES as u32)
            .map(|c| (c.wrapping_mul(2_654_435_761) >> 27) as u8)
            .collect();
        let mut calibration = Calibration {
            records,
            classes,
            next: 0,
        };
        for _ in 0..8 {
            calibration.slice_ns();
        }
        calibration
    }

    /// Walk the next window of [`SLICE_RECORDS`] records and return the
    /// wall nanoseconds it took.
    pub fn slice_ns(&mut self) -> f64 {
        let windows = RECORDS / SLICE_RECORDS;
        let window = self.next;
        self.next = (self.next + 1) % windows;
        let started = Instant::now();
        let mut counts: HashMap<u64, u32> = HashMap::new();
        let mut sum = 0u64;
        for i in 0..SLICE_RECORDS {
            let r = &self.records[window * SLICE_RECORDS + i];
            let mut strings = Vec::new();
            sum = sum.wrapping_add(walk(black_box(r), &self.classes, &mut strings));
            for s in strings {
                *counts.entry(fnv(s.as_bytes())).or_default() += 1;
            }
        }
        let checksum = counts
            .iter()
            .fold(sum, |acc, (k, v)| acc ^ k.wrapping_mul(u64::from(*v)));
        black_box(checksum);
        started.elapsed().as_nanos() as f64
    }
}

/// Walk one TLV stream: descend constructed elements, lower-case valid
/// UTF-8 string leaves into `strings` and fold every code point's table
/// class into the returned sum.
fn walk(mut der: &[u8], classes: &[u8], strings: &mut Vec<String>) -> u64 {
    let mut sum = 0u64;
    let r = der;
    while der.len() >= 2 {
        let tag = der[0];
        let (len, header) = match der[1] {
            n if n < 0x80 => (usize::from(n), 2),
            0x81 if der.len() >= 3 => (usize::from(der[2]), 3),
            0x82 if der.len() >= 4 => (usize::from(der[2]) << 8 | usize::from(der[3]), 4),
            _ => return sum,
        };
        let Some(value) = der.get(header..header + len) else {
            return sum;
        };
        if tag & 0x20 != 0 {
            sum = sum.wrapping_add(walk(value, classes, strings));
        } else if tag == 0x0c {
            if let Ok(s) = std::str::from_utf8(value) {
                let lower = s.to_lowercase();
                for (n, c) in lower.chars().enumerate() {
                    let key = (u64::from(c) ^ (n as u64) << 21 ^ (r.len() as u64) << 32)
                        .wrapping_mul(0x9e37_79b9_7f4a_7c15);
                    let class = classes[(key >> (64 - CLASSES.trailing_zeros())) as usize];
                    sum = sum.wrapping_mul(31).wrapping_add(u64::from(class));
                }
                strings.push(lower);
            }
        } else {
            sum = sum.wrapping_add(fnv(value));
        }
        der = &der[header + len..];
    }
    sum
}

fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// One record: a SEQUENCE of 4 to 11 SETs, each of 1 to 4 leaves that
/// are mostly UTF8Strings, the rest OCTET STRINGs.
fn record(rng: &mut XorShift) -> Vec<u8> {
    let mut body = Vec::new();
    for _ in 0..4 + rng.below(8) {
        let mut set = Vec::new();
        for _ in 0..1 + rng.below(4) {
            let mut leaf = Vec::new();
            if rng.below(4) == 0 {
                leaf.extend((0..8 + rng.below(40)).map(|_| rng.next() as u8));
                tlv(&mut set, 0x04, &leaf);
            } else {
                let s: String = (0..4 + rng.below(40))
                    .map(|_| ALPHABET[rng.below(ALPHABET.len())])
                    .collect();
                tlv(&mut set, 0x0c, s.as_bytes());
            }
        }
        tlv(&mut body, 0x31, &set);
    }
    let mut out = Vec::new();
    tlv(&mut out, 0x30, &body);
    out
}

fn tlv(out: &mut Vec<u8>, tag: u8, value: &[u8]) {
    out.push(tag);
    match value.len() {
        n if n < 0x80 => out.push(n as u8),
        n if n < 0x100 => out.extend([0x81, n as u8]),
        n => out.extend([0x82, (n >> 8) as u8, n as u8]),
    }
    out.extend_from_slice(value);
}

/// Fixed-seed xorshift generator for the record set.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}
