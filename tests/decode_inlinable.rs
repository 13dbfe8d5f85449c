//! Guard: the DER reader's per-element path stays inlinable across crates.
//!
//! Every element `unicert-x509` decodes (view, reference decoder,
//! extensions, GeneralNames) goes through these `unicert-asn1` functions
//! once or more. They are non-generic and call other functions, so rustc
//! only compiles them into a caller in another crate when they carry
//! `#[inline]`; without it each element costs a real call that returns its
//! `Result<Tlv>` through memory (DESIGN.md §15). Dropping an attribute
//! changes no output and no work count, so only this test or a
//! same-machine A/B (`tools/ab.sh`) would notice. `#[inline(always)]` is
//! refused too: the choice stays with the optimizer.
//!
//! The scan reads each file up to its `#[cfg(test)]` module and requires
//! the line directly above every listed signature to be `#[inline]`.

/// Per file (relative to the repository root), the functions on the
/// per-element path. Each name must occur exactly once in the file's
/// non-test code.
const PER_ELEMENT_PATH: [(&str, &[&str]); 2] = [
    (
        "crates/asn1/src/reader.rs",
        &[
            "charge",
            "contents",
            "expect",
            "new",
            "with_budget",
            "remaining",
            "offset",
            "is_empty",
            "finish",
            "take",
            "take_byte",
            "peek_tag",
            "read_tag",
            "read_length",
            "admit_length",
            "read_tlv",
            "read_expected",
            "read_optional",
            "read_optional_context",
        ],
    ),
    ("crates/asn1/src/oid.rs", &["from_der_value", "from_bytes"]),
];

/// Does `line` declare function `name` (`fn name(` or `fn name<`)?
fn declares(line: &str, name: &str) -> bool {
    line.split("fn ").skip(1).any(|rest| {
        rest.strip_prefix(name).is_some_and(|after| after.starts_with('(') || after.starts_with('<'))
    })
}

/// The problems in one source file: a listed function not found exactly
/// once, one whose signature lacks `#[inline]` directly above it, and any
/// `#[inline(always)]`. Each is reported as `file:line: message`.
fn problems(file: &str, src: &str, names: &[&str]) -> Vec<String> {
    let lines: Vec<&str> = src.lines().take_while(|l| l.trim() != "#[cfg(test)]").collect();
    let mut out = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        if line.contains("#[inline(always)]") {
            out.push(format!("{file}:{}: #[inline(always)]; use plain #[inline]", i + 1));
        }
    }
    for name in names {
        let at: Vec<usize> = (0..lines.len()).filter(|&i| declares(lines[i], name)).collect();
        match at.as_slice() {
            [i] => {
                if *i == 0 || lines[i - 1].trim() != "#[inline]" {
                    out.push(format!("{file}:{}: fn {name} lacks #[inline] directly above it", i + 1));
                }
            }
            _ => out.push(format!("{file}: fn {name} declared {} times, expected once", at.len())),
        }
    }
    out
}

#[test]
fn per_element_path_is_inline() {
    let root = unicert_analysis::default_repo_root();
    let mut found = Vec::new();
    for (file, names) in PER_ELEMENT_PATH {
        let src = std::fs::read_to_string(root.join(file)).unwrap();
        found.extend(problems(file, &src, names));
    }
    assert!(found.is_empty(), "the per-element decode path is not inlinable:\n{}", found.join("\n"));
}

#[test]
fn detector_catches_missing_and_always() {
    let ok = "impl R {\n    /// Doc.\n    #[inline]\n    pub fn read_tlv(&mut self) {}\n}\n";
    assert!(problems("f", ok, &["read_tlv"]).is_empty());
    // The attribute above the doc comment is not directly above the
    // signature.
    let above_doc = "    #[inline]\n    /// Doc.\n    pub fn read_tlv(&mut self) {}\n";
    assert_eq!(problems("f", above_doc, &["read_tlv"]).len(), 1);
    let missing = "    /// Doc.\n    fn take(&mut self) {}\n";
    assert_eq!(problems("f", missing, &["take"]), ["f:2: fn take lacks #[inline] directly above it"]);
    let always = "    #[inline(always)]\n    fn take(&mut self) {}\n";
    assert_eq!(problems("f", always, &["take"]).len(), 2);
    // A prefix of another name is not that name; an absent one is reported.
    let prefix = "    #[inline]\n    fn take_byte(&mut self) {}\n";
    assert_eq!(problems("f", prefix, &["take"]), ["f: fn take declared 0 times, expected once"]);
    // Test-module functions are not scanned.
    let in_tests = "    #[inline]\n    fn take(&mut self) {}\n#[cfg(test)]\nmod tests {\n    fn take() {}\n}\n";
    assert!(problems("f", in_tests, &["take"]).is_empty());
    assert!(declares("    pub(crate) fn read_nested<T>(", "read_nested"));
}
