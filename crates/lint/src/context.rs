//! The per-certificate analysis cache: decode once, lint 95 times.
//!
//! Every lint in the catalog used to independently re-walk the DN, re-parse
//! the SAN/IAN/AIA/CRLDP/CertificatePolicies extensions, re-decode attribute
//! bytes, and re-run punycode/NFC over the same DNS labels. [`LintContext`]
//! is built once per certificate and shared by the whole catalog (and by the
//! survey pipeline's classify and field-matrix stages): each derived artifact
//! is computed lazily on first use and memoized for the rest of the
//! certificate's analysis.
//!
//! Memoization is invalidation-free by construction — the context borrows an
//! immutable [`Certificate`] and nothing mutates it during a run, so a cached
//! value can never go stale. The context is intentionally `!Send`/`!Sync`
//! (plain `OnceCell`/`RefCell`/`Rc`, no atomics): the sharded survey pipeline
//! builds one context per certificate *inside* a worker, so cross-thread
//! sharing never happens and the caches stay free of synchronization cost.
//! The registry and its lint closures remain `Send + Sync` as before.
//!
//! Cache-effectiveness counters (`ctx.cache.hit` / `ctx.cache.miss`, labelled
//! by field family: `san`, `dn_text`, `punycode`, `nfc`) are tallied in plain
//! `Cell`s and flushed to the global metrics registry when the context drops,
//! and only when metrics are enabled — the hot path never touches an atomic.

use std::cell::{Cell, OnceCell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

use crate::framework::Evidence;
use crate::helpers::Which;
use unicert_asn1::oid::known;
use unicert_asn1::{Oid, Span, StringKind};
use unicert_idna::label::{has_ace_prefix, validate_ldh, ALabelStatus, LabelError};
use unicert_idna::punycode;
use unicert_unicode::nfc;
use unicert_x509::extensions::{parse_extension_value, ParsedExtension, PolicyQualifier};
use unicert_x509::{
    CertSpans, CertView, Certificate, DistinguishedName, GeneralName, RawValue, Validity,
};

/// Hit/miss tally for one cached field family.
#[derive(Debug, Default)]
struct FamilyStats {
    hit: Cell<u64>,
    miss: Cell<u64>,
}

impl FamilyStats {
    fn touch(&self, hit: bool) {
        if hit {
            self.hit.set(self.hit.get().saturating_add(1));
        } else {
            self.miss.set(self.miss.get().saturating_add(1));
        }
    }
}

/// Cache-effectiveness counters for one context, grouped by field family.
///
/// `san` covers the parsed-extension caches (SAN/IAN/AIA/SIA/CRLDP/CP and
/// the value lists derived from them), `dn_text` the decoded DN attribute
/// texts, `punycode` the per-label A-label cache, and `nfc` the per-value
/// NFC verdicts.
#[derive(Debug, Default)]
pub struct CacheStats {
    san: FamilyStats,
    dn_text: FamilyStats,
    punycode: FamilyStats,
    nfc: FamilyStats,
}

impl CacheStats {
    /// `(hit, miss)` for the extension family.
    pub fn san(&self) -> (u64, u64) {
        (self.san.hit.get(), self.san.miss.get())
    }

    /// `(hit, miss)` for the DN text family.
    pub fn dn_text(&self) -> (u64, u64) {
        (self.dn_text.hit.get(), self.dn_text.miss.get())
    }

    /// `(hit, miss)` for the punycode label family.
    pub fn punycode(&self) -> (u64, u64) {
        (self.punycode.hit.get(), self.punycode.miss.get())
    }

    /// `(hit, miss)` for the NFC verdict family.
    pub fn nfc(&self) -> (u64, u64) {
        (self.nfc.hit.get(), self.nfc.miss.get())
    }
}

/// Pre-resolved `ctx.cache.*` counter handles, one pair per family.
struct CacheCounters {
    families: [(
        std::sync::Arc<unicert_telemetry::Counter>,
        std::sync::Arc<unicert_telemetry::Counter>,
    ); 4],
}

fn cache_counters() -> &'static CacheCounters {
    static COUNTERS: std::sync::OnceLock<CacheCounters> = std::sync::OnceLock::new();
    COUNTERS.get_or_init(|| {
        let registry = unicert_telemetry::global();
        let pair = |family: &str| {
            (registry.counter("ctx.cache.hit", family), registry.counter("ctx.cache.miss", family))
        };
        CacheCounters { families: [pair("san"), pair("dn_text"), pair("punycode"), pair("nfc")] }
    })
}

/// Where a cached value sits in the certificate DER, plus its decoded
/// forms — precomputed when an evidence-mode context is built, shared by
/// reference with every [`CachedVal`] derived from that element.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Origin {
    /// Byte range of the value's TLV in the certificate DER.
    pub span: Span,
    /// Structural path, e.g. `tbs.subject.attr[0].value`.
    pub tlv_path: String,
    /// Lossy wire decode of the value.
    pub raw: String,
    /// NFC normalization of `raw`, when it differs.
    pub normalized: Option<String>,
}

/// The origins a lint's check touched since the last `begin_check`.
type TouchLog = Rc<RefCell<Vec<Rc<Origin>>>>;

/// Evidence-mode state: the certificate's span map (when capturable) and
/// the per-check touch log the framework drains into findings.
struct EvidenceState {
    spans: Option<CertSpans>,
    touched: TouchLog,
}

/// A value's memoized wire decode.
#[derive(Debug)]
enum Wire {
    /// The decode is the value's own bytes ([`RawValue::wire_str`]):
    /// served from them, nothing stored.
    Identity,
    /// Latin-1 widening of non-ASCII bytes, UCS-2 or UCS-4: decoded text.
    Decoded(Box<str>),
    /// Not decodable under the declared tag.
    Invalid,
}

/// A string value with memoized decode results.
///
/// Wraps the original [`RawValue`] (tag + bytes, untouched) and computes the
/// wire decode, the strict decode verdict, and the NFC verdict at most once
/// each, no matter how many lints ask. The strict verdict reuses the wire
/// decode. In evidence mode the value also carries its [`Origin`]; every
/// accessor then logs the touch so the framework can attribute byte ranges
/// to the finding of the lint that asked.
#[derive(Debug)]
pub struct CachedVal {
    raw: RawValue,
    wire: OnceCell<Wire>,
    /// Has [`CachedVal::wire_text`] been asked before? Kept apart from
    /// `wire`, which `strict_ok` may fill first, so the `dn_text` hit/miss
    /// tally counts accessor calls the same way whichever fills the memo.
    wire_asked: Cell<bool>,
    strict_ok: OnceCell<bool>,
    nfc_ok: OnceCell<bool>,
    stats: Rc<CacheStats>,
    /// `(origin, touch log)` — populated only in evidence mode.
    provenance: Option<(Rc<Origin>, TouchLog)>,
}

impl CachedVal {
    fn new(
        raw: RawValue,
        stats: Rc<CacheStats>,
        provenance: Option<(Rc<Origin>, TouchLog)>,
    ) -> CachedVal {
        CachedVal {
            raw,
            wire: OnceCell::new(),
            wire_asked: Cell::new(false),
            strict_ok: OnceCell::new(),
            nfc_ok: OnceCell::new(),
            stats,
            provenance,
        }
    }

    /// Log this value into the current check's touch set (evidence mode
    /// only; a no-op branch on the hot path).
    #[inline]
    fn touch_origin(&self) {
        if let Some((origin, log)) = &self.provenance {
            log.borrow_mut().push(Rc::clone(origin));
        }
    }

    /// This value's byte-range origin, when captured in evidence mode.
    pub fn origin(&self) -> Option<&Origin> {
        self.provenance.as_ref().map(|(o, _)| o.as_ref())
    }

    /// The underlying raw value.
    pub fn raw(&self) -> &RawValue {
        self.touch_origin();
        &self.raw
    }

    /// The declared string kind, if the tag is a string type.
    pub fn kind(&self) -> Option<StringKind> {
        self.touch_origin();
        self.raw.kind()
    }

    /// The content octets, untouched.
    pub fn bytes(&self) -> &[u8] {
        self.touch_origin();
        &self.raw.bytes
    }

    /// The memoized wire decode, without touching origins or stats.
    fn wire(&self) -> Option<&str> {
        let wire = self.wire.get_or_init(|| {
            if self.raw.wire_str().is_some() {
                return Wire::Identity;
            }
            match self.raw.decode_wire() {
                Ok(text) => Wire::Decoded(text.into_boxed_str()),
                Err(_) => Wire::Invalid,
            }
        });
        match wire {
            // Identity was recorded because these bytes are valid UTF-8.
            Wire::Identity => std::str::from_utf8(&self.raw.bytes).ok(),
            Wire::Decoded(text) => Some(text),
            Wire::Invalid => None,
        }
    }

    /// Wire-format decode (`RawValue::decode_wire`), memoized. `None` means
    /// the bytes are not decodable under the declared tag.
    pub fn wire_text(&self) -> Option<&str> {
        self.touch_origin();
        self.stats.dn_text.touch(self.wire_asked.replace(true));
        self.wire()
    }

    /// Does the value pass a strict decode (`RawValue::decode_strict`)?
    /// That is the wire decode plus the declared kind's character set, so
    /// the verdict reads the memoized wire text instead of decoding again.
    pub fn strict_ok(&self) -> bool {
        self.touch_origin();
        self.stats.dn_text.touch(self.strict_ok.get().is_some());
        *self.strict_ok.get_or_init(|| match (self.raw.kind(), self.wire()) {
            (Some(kind), Some(text)) => text.chars().all(|c| kind.allows_char(c)),
            _ => false,
        })
    }

    /// Is the wire-decoded text NFC-normalized? Undecodable bytes count as
    /// normalized (encoding lints own them), matching the T2 lints.
    pub fn text_is_nfc(&self) -> bool {
        self.touch_origin();
        self.stats.nfc.touch(self.nfc_ok.get().is_some());
        *self.nfc_ok.get_or_init(|| match self.wire_text() {
            Some(t) => nfc::is_nfc(t),
            None => true,
        })
    }
}

/// One DN attribute with its cached value.
#[derive(Debug)]
pub struct DnAttr {
    /// The attribute type.
    pub oid: Oid,
    /// The cached value.
    pub val: CachedVal,
}

/// Everything the label cache knows about one DNS label, from a single
/// `a_to_u` pipeline run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LabelInfo {
    /// The F1 classification (`classify_a_label` equivalent).
    pub status: ALabelStatus,
    /// Does the label decode to a non-NFC U-label? (T2's
    /// `has_non_nfc_label` per-label predicate.)
    pub non_nfc: bool,
    /// Did the full pipeline fail specifically with a round-trip mismatch?
    pub roundtrip_mismatch: bool,
}

impl LabelInfo {
    /// Run the IDNA pipeline once and derive every verdict the catalog asks
    /// about. Matches `classify_a_label` / the T2 lints bit for bit.
    fn compute(label: &str) -> LabelInfo {
        let ldh_ok = validate_ldh(label).is_ok() && has_ace_prefix(label);
        let converted = unicert_idna::label::a_to_u(label);
        let status = if !ldh_ok {
            ALabelStatus::NotALabel
        } else {
            match &converted {
                Ok(_) => ALabelStatus::Valid,
                Err(LabelError::UnconvertibleALabel(_)) | Err(LabelError::EmptyAcePayload) => {
                    ALabelStatus::Unconvertible
                }
                Err(LabelError::RoundTripMismatch) => ALabelStatus::NonCanonical,
                Err(_) => ALabelStatus::DisallowedContent,
            }
        };
        // A converted U-label passed `validate_u_label`, NFC check included.
        // Otherwise a_to_u may have stopped before its NFC check, so decode
        // the payload once more to catch non-NFC labels that fail earlier
        // pipeline stages.
        let non_nfc = match &converted {
            Ok(_) => false,
            Err(LabelError::NotNfc) => true,
            Err(_) => label
                .get(4..)
                .and_then(decode_payload_lowercased)
                .is_some_and(|u| !nfc::is_nfc(&u)),
        };
        let roundtrip_mismatch = matches!(&converted, Err(LabelError::RoundTripMismatch));
        LabelInfo { status, non_nfc, roundtrip_mismatch }
    }
}

/// Punycode-decode an ACE payload, lowercasing first — without allocating
/// an intermediate string when the payload is already lowercase.
fn decode_payload_lowercased(payload: &str) -> Option<String> {
    if payload.bytes().any(|b| b.is_ascii_uppercase()) {
        punycode::decode(&payload.to_ascii_lowercase()).ok()
    } else {
        punycode::decode(payload).ok()
    }
}

/// Where the certificate under analysis lives: the owned model or the
/// zero-copy borrowed view. Every context accessor reads through this, so
/// the whole catalog, the classify stage, and the field matrix run
/// unchanged on either representation.
enum Source<'c> {
    /// The owned [`Certificate`] model (build/encode/evidence paths).
    Owned(&'c Certificate),
    /// The borrowed [`CertView`] (the survey hot path).
    View(&'c CertView<'c>),
}

/// The memoized per-certificate analysis context.
///
/// Built once per certificate ([`LintContext::new`] /
/// [`LintContext::from_view`]) and handed to every lint `check`, to the
/// survey classify stage, and to the field matrix. All accessors are lazy:
/// a certificate with no SAN never pays for SAN parsing, and a lint that
/// never runs never triggers its inputs.
pub struct LintContext<'c> {
    source: Source<'c>,
    /// Owned materialization of a view source, built only if a consumer
    /// insists on `&Certificate` (off the hot path; lints use the typed
    /// accessors instead).
    owned: OnceCell<Box<Certificate>>,
    stats: Rc<CacheStats>,
    /// Parse results parallel to `cert.tbs.extensions` (`None` = malformed
    /// body). Iterating *all* entries preserves duplicate-extension
    /// semantics for the classify stage; the first-matching-OID scan
    /// preserves `TbsCertificate::extension` semantics for the lints.
    parsed_exts: OnceCell<Vec<Option<ParsedExtension>>>,
    subject: OnceCell<Vec<DnAttr>>,
    issuer: OnceCell<Vec<DnAttr>>,
    san_dns: OnceCell<Vec<CachedVal>>,
    san_rfc822: OnceCell<Vec<CachedVal>>,
    san_uri: OnceCell<Vec<CachedVal>>,
    smtp_mailboxes: OnceCell<Vec<CachedVal>>,
    ian_dns: OnceCell<Vec<CachedVal>>,
    ian_strings: OnceCell<Vec<CachedVal>>,
    aia_uris: OnceCell<Vec<CachedVal>>,
    sia_uris: OnceCell<Vec<CachedVal>>,
    crldp_uris: OnceCell<Vec<CachedVal>>,
    explicit_texts: OnceCell<Vec<CachedVal>>,
    cps_values: OnceCell<Vec<CachedVal>>,
    labels: RefCell<HashMap<Box<str>, LabelInfo>>,
    /// Evidence-mode state; `None` on the survey hot path.
    evidence: Option<EvidenceState>,
}

impl<'c> LintContext<'c> {
    /// A fresh (everything-lazy) context for one certificate.
    pub fn new(cert: &'c Certificate) -> LintContext<'c> {
        Self::build(Source::Owned(cert), None)
    }

    /// A fresh context over a zero-copy [`CertView`]: the survey hot path.
    /// Identical analysis results to [`LintContext::new`] on the owned
    /// parse of the same DER; evidence capture is not available here (use
    /// the owned constructor for evidence runs).
    pub fn from_view(view: &'c CertView<'c>) -> LintContext<'c> {
        Self::build(Source::View(view), None)
    }

    /// A context that additionally captures byte-range provenance: the
    /// certificate's span map is walked up front ([`CertSpans::capture`]),
    /// every cached value carries its [`Origin`], and the registry drains
    /// the values each check touched into [`Evidence`] on its findings.
    ///
    /// Strictly off the survey hot path — use [`LintContext::new`] there.
    pub fn with_evidence(cert: &'c Certificate) -> LintContext<'c> {
        let state = EvidenceState {
            spans: CertSpans::capture(&cert.raw).ok(),
            touched: Rc::new(RefCell::new(Vec::new())),
        };
        Self::build(Source::Owned(cert), Some(state))
    }

    fn build(source: Source<'c>, evidence: Option<EvidenceState>) -> LintContext<'c> {
        LintContext {
            source,
            owned: OnceCell::new(),
            stats: Rc::new(CacheStats::default()),
            parsed_exts: OnceCell::new(),
            subject: OnceCell::new(),
            issuer: OnceCell::new(),
            san_dns: OnceCell::new(),
            san_rfc822: OnceCell::new(),
            san_uri: OnceCell::new(),
            smtp_mailboxes: OnceCell::new(),
            ian_dns: OnceCell::new(),
            ian_strings: OnceCell::new(),
            aia_uris: OnceCell::new(),
            sia_uris: OnceCell::new(),
            crldp_uris: OnceCell::new(),
            explicit_texts: OnceCell::new(),
            cps_values: OnceCell::new(),
            labels: RefCell::new(HashMap::new()),
            evidence,
        }
    }

    /// The certificate under analysis, as the owned model. For an owned
    /// source this is free; for a view source the owned tree is
    /// materialized once and cached (off the hot path — prefer the typed
    /// accessors below, which read the view directly).
    pub fn cert(&self) -> &Certificate {
        match self.source {
            Source::Owned(cert) => cert,
            Source::View(view) => self.owned.get_or_init(|| Box::new(view.to_owned())),
        }
    }

    /// Length of the raw certificate DER (whole-certificate span fallback).
    fn raw_len(&self) -> usize {
        match self.source {
            Source::Owned(cert) => cert.raw.len(),
            Source::View(view) => view.raw.len(),
        }
    }

    /// The serial number magnitude.
    pub fn serial(&self) -> &[u8] {
        match self.source {
            Source::Owned(cert) => &cert.tbs.serial,
            Source::View(view) => view.serial,
        }
    }

    /// The validity window.
    pub fn validity(&self) -> &Validity {
        match self.source {
            Source::Owned(cert) => &cert.tbs.validity,
            Source::View(view) => &view.validity,
        }
    }

    /// Index of the first extension carrying `oid`, in wire order — the
    /// extension `TbsCertificate::extension` selects.
    pub fn extension_position(&self, oid: &Oid) -> Option<usize> {
        match self.source {
            Source::Owned(cert) => cert.tbs.extensions.iter().position(|e| &e.oid == oid),
            Source::View(view) => view.extensions.iter().position(|e| &e.oid == oid),
        }
    }

    /// Is an extension with `oid` present?
    pub fn has_extension(&self, oid: &Oid) -> bool {
        self.extension_position(oid).is_some()
    }

    /// Is this a CT precertificate (carries the poison extension)?
    pub fn is_precertificate(&self) -> bool {
        self.has_extension(&known::ct_poison())
    }

    /// The criticality flag of the first extension carrying `oid`, if
    /// present.
    pub fn extension_critical(&self, oid: &Oid) -> Option<bool> {
        let idx = self.extension_position(oid)?;
        match self.source {
            Source::Owned(cert) => cert.tbs.extensions.get(idx).map(|e| e.critical),
            Source::View(view) => view.extensions.get(idx).map(|e| e.critical),
        }
    }

    /// True if the DN has no RDNs (an "empty subject"). Distinct from
    /// having no *attributes*: an RDN with an empty SET still counts.
    pub fn dn_is_empty(&self, which: Which) -> bool {
        match self.source {
            Source::Owned(cert) => match which {
                Which::Subject => cert.tbs.subject.is_empty(),
                Which::Issuer => cert.tbs.issuer.is_empty(),
            },
            Source::View(view) => match which {
                Which::Subject => view.subject.is_empty(),
                Which::Issuer => view.issuer.is_empty(),
            },
        }
    }

    /// Number of attributes of type `oid` in a DN (duplicate detection).
    pub fn count_of(&self, which: Which, oid: &Oid) -> usize {
        self.dn_attrs(which).iter().filter(|a| &a.oid == oid).count()
    }

    /// This context's cache hit/miss tallies (flushed to telemetry on drop).
    pub fn cache_stats(&self) -> &CacheStats {
        &self.stats
    }

    // --- Evidence -------------------------------------------------------

    /// Was this context built with [`LintContext::with_evidence`]?
    pub fn evidence_enabled(&self) -> bool {
        self.evidence.is_some()
    }

    /// The certificate's span map, when evidence mode captured one.
    pub fn cert_spans(&self) -> Option<&CertSpans> {
        self.evidence.as_ref().and_then(|e| e.spans.as_ref())
    }

    /// Clear the touch log before a lint's check runs (framework only).
    pub(crate) fn begin_check(&self) {
        if let Some(ev) = &self.evidence {
            ev.touched.borrow_mut().clear();
        }
    }

    /// Drain the origins the last check touched into [`Evidence`] entries,
    /// deduplicated in touch order. A check that touched nothing trackable
    /// (it read the certificate struct directly) yields one whole-TBS
    /// fallback so every finding still carries an in-bounds span.
    pub(crate) fn drain_evidence(&self, citation: &'static str) -> Vec<Evidence> {
        let Some(ev) = &self.evidence else {
            return Vec::new();
        };
        let mut touched = ev.touched.borrow_mut();
        let mut seen: Vec<*const Origin> = Vec::new();
        let mut out = Vec::new();
        for origin in touched.drain(..) {
            let ptr = Rc::as_ptr(&origin);
            if seen.contains(&ptr) {
                continue;
            }
            seen.push(ptr);
            out.push(Evidence {
                span: origin.span,
                tlv_path: origin.tlv_path.clone(),
                raw: origin.raw.clone(),
                normalized: origin.normalized.clone(),
                citation,
            });
        }
        if out.is_empty() {
            let span = match &ev.spans {
                Some(s) => s.tbs,
                None => Span { offset: 0, len: self.raw_len() },
            };
            out.push(Evidence {
                span,
                tlv_path: "tbs".to_string(),
                raw: String::new(),
                normalized: None,
                citation,
            });
        }
        out
    }

    /// Build an [`Origin`] for a value at `span`, precomputing its decoded
    /// forms (evidence mode only, so the cost is off the hot path).
    fn make_origin(&self, raw: &RawValue, span: Span, tlv_path: String) -> Rc<Origin> {
        let raw_text = raw.display_lossy();
        let normalized = {
            let n = nfc::nfc(&raw_text);
            if n == raw_text {
                None
            } else {
                Some(n)
            }
        };
        Rc::new(Origin { span, tlv_path, raw: raw_text, normalized })
    }

    /// Provenance pair for a value whose origin resolver succeeds, shared
    /// with the context's touch log. `None` when evidence is off.
    fn provenance(
        &self,
        raw: &RawValue,
        resolve: impl FnOnce(&CertSpans) -> Option<(Span, String)>,
    ) -> Option<(Rc<Origin>, TouchLog)> {
        let ev = self.evidence.as_ref()?;
        let (span, path) = match ev.spans.as_ref().and_then(resolve) {
            Some(hit) => hit,
            // Span map unavailable (hostile DER the walker refused):
            // anchor to the whole certificate rather than dropping
            // provenance entirely.
            None => (Span { offset: 0, len: self.raw_len() }, "certificate".to_string()),
        };
        Some((self.make_origin(raw, span, path), Rc::clone(&ev.touched)))
    }

    /// Origin resolver for the `child`-th top-level element inside the
    /// first extension carrying `oid`, falling back to the extension's
    /// value span when the child wasn't individually mapped.
    fn ext_child_resolver(
        &self,
        oid: &Oid,
        child: usize,
    ) -> impl FnOnce(&CertSpans) -> Option<(Span, String)> + '_ {
        let oid = oid.clone();
        move |spans: &CertSpans| {
            let idx = self.extension_position(&oid)?;
            let ext = spans.extension(idx)?;
            match ext.children.get(child) {
                Some(span) => Some((*span, spans.ext_child_path(idx, child))),
                None => Some((ext.value, spans.ext_path(idx))),
            }
        }
    }

    /// Cache a value that came from extension `oid`'s `child`-th element.
    fn cached_ext(&self, raw: RawValue, oid: &Oid, child: usize) -> CachedVal {
        let provenance = self.provenance(&raw, self.ext_child_resolver(oid, child));
        CachedVal::new(raw, Rc::clone(&self.stats), provenance)
    }

    /// Cache the `idx`-th attribute value of a DN.
    fn cached_dn(&self, raw: RawValue, which: Which, idx: usize) -> CachedVal {
        let provenance = self.provenance(&raw, |spans| {
            let (attrs, name) = match which {
                Which::Subject => (&spans.subject_attrs, "subject"),
                Which::Issuer => (&spans.issuer_attrs, "issuer"),
            };
            let span = *attrs.get(idx)?;
            Some((span, CertSpans::dn_attr_path(name, idx)))
        });
        CachedVal::new(raw, Rc::clone(&self.stats), provenance)
    }

    // --- DNs ------------------------------------------------------------

    /// Select a DN as the owned model (materializes a view source —
    /// prefer [`LintContext::dn_attrs`] and the typed DN accessors, which
    /// read either source directly).
    pub fn dn(&self, which: Which) -> &DistinguishedName {
        let cert = self.cert();
        match which {
            Which::Subject => &cert.tbs.subject,
            Which::Issuer => &cert.tbs.issuer,
        }
    }

    /// All attributes of a DN in wire order, with cached values.
    pub fn dn_attrs(&self, which: Which) -> &[DnAttr] {
        let cell = match which {
            Which::Subject => &self.subject,
            Which::Issuer => &self.issuer,
        };
        self.stats.dn_text.touch(cell.get().is_some());
        cell.get_or_init(|| match self.source {
            Source::Owned(cert) => {
                let dn = match which {
                    Which::Subject => &cert.tbs.subject,
                    Which::Issuer => &cert.tbs.issuer,
                };
                dn.attributes()
                    .enumerate()
                    .map(|(i, a)| DnAttr {
                        oid: a.oid.clone(),
                        val: self.cached_dn(a.value.clone(), which, i),
                    })
                    .collect()
            }
            Source::View(view) => {
                let dn = match which {
                    Which::Subject => &view.subject,
                    Which::Issuer => &view.issuer,
                };
                dn.attributes()
                    .enumerate()
                    .map(|(i, a)| DnAttr {
                        oid: a.oid.clone(),
                        val: self.cached_dn(a.raw_value(), which, i),
                    })
                    .collect()
            }
        })
    }

    /// Cached values of one attribute type, in wire order.
    pub fn attr_vals(&self, which: Which, oid: &Oid) -> impl Iterator<Item = &CachedVal> {
        let oid = oid.clone();
        self.dn_attrs(which).iter().filter(move |a| a.oid == oid).map(|a| &a.val)
    }

    // --- Extensions -----------------------------------------------------

    /// Parse results for every extension, parallel to
    /// `cert.tbs.extensions`; `None` marks a malformed body.
    pub fn parsed_extensions(&self) -> &[Option<ParsedExtension>] {
        self.stats.san.touch(self.parsed_exts.get().is_some());
        self.parsed_exts.get_or_init(|| match self.source {
            Source::Owned(cert) => cert.tbs.extensions.iter().map(|e| e.parse().ok()).collect(),
            Source::View(view) => view
                .extensions
                .iter()
                .map(|e| parse_extension_value(&e.oid, e.value).ok())
                .collect(),
        })
    }

    /// The parse result of the first extension carrying `oid` — the same
    /// extension `TbsCertificate::extension` selects.
    fn first_parsed(&self, oid: &Oid) -> Option<&ParsedExtension> {
        let index = self.extension_position(oid)?;
        self.parsed_extensions().get(index)?.as_ref()
    }

    /// The SAN GeneralNames, or empty (absent or malformed SAN).
    pub fn san(&self) -> &[GeneralName] {
        match self.first_parsed(&known::subject_alt_name()) {
            Some(ParsedExtension::SubjectAltName(names)) => names,
            _ => &[],
        }
    }

    /// The IAN GeneralNames, or empty.
    pub fn ian(&self) -> &[GeneralName] {
        match self.first_parsed(&known::issuer_alt_name()) {
            Some(ParsedExtension::IssuerAltName(names)) => names,
            _ => &[],
        }
    }

    fn gn_list<'s>(
        &'s self,
        cell: &'s OnceCell<Vec<CachedVal>>,
        ext_oid: Oid,
        names: impl Fn(&Self) -> &[GeneralName],
        pick: impl Fn(&GeneralName) -> Option<RawValue>,
    ) -> &'s [CachedVal] {
        self.stats.san.touch(cell.get().is_some());
        cell.get_or_init(|| {
            // Enumerate *before* the pick filter: a GeneralName's position
            // in the extension SEQUENCE is its child span index.
            names(self)
                .iter()
                .enumerate()
                .filter_map(|(i, n)| pick(n).map(|v| self.cached_ext(v, &ext_oid, i)))
                .collect()
        })
    }

    /// SAN DNSName values.
    pub fn san_dns(&self) -> &[CachedVal] {
        self.gn_list(&self.san_dns, known::subject_alt_name(), Self::san, |n| match n {
            GeneralName::DnsName(v) => Some(v.clone()),
            _ => None,
        })
    }

    /// SAN RFC822Name values.
    pub fn san_rfc822(&self) -> &[CachedVal] {
        self.gn_list(&self.san_rfc822, known::subject_alt_name(), Self::san, |n| match n {
            GeneralName::Rfc822Name(v) => Some(v.clone()),
            _ => None,
        })
    }

    /// SAN URI values.
    pub fn san_uri(&self) -> &[CachedVal] {
        self.gn_list(&self.san_uri, known::subject_alt_name(), Self::san, |n| match n {
            GeneralName::Uri(v) => Some(v.clone()),
            _ => None,
        })
    }

    /// SmtpUTF8Mailbox inner values from SAN OtherNames (RFC 9598): the
    /// UTF8String TLV unwrapped from its `[0] EXPLICIT` envelope.
    pub fn smtp_mailboxes(&self) -> &[CachedVal] {
        self.gn_list(&self.smtp_mailboxes, known::subject_alt_name(), Self::san, |n| match n {
            GeneralName::OtherName { type_id, value }
                if *type_id == known::smtp_utf8_mailbox() =>
            {
                let mut r = unicert_asn1::Reader::new(value);
                let outer = r.read_tlv().ok()?;
                let mut c = outer.contents();
                let inner = c.read_tlv().ok()?;
                Some(RawValue { tag_number: inner.tag.number, bytes: inner.value.to_vec() })
            }
            _ => None,
        })
    }

    /// IAN DNSName values.
    pub fn ian_dns(&self) -> &[CachedVal] {
        self.gn_list(&self.ian_dns, known::issuer_alt_name(), Self::ian, |n| match n {
            GeneralName::DnsName(v) => Some(v.clone()),
            _ => None,
        })
    }

    /// All IAN string-bearing values (DNSName, RFC822Name, URI).
    pub fn ian_strings(&self) -> &[CachedVal] {
        self.gn_list(&self.ian_strings, known::issuer_alt_name(), Self::ian, |n| match n {
            GeneralName::DnsName(v) | GeneralName::Rfc822Name(v) | GeneralName::Uri(v) => {
                Some(v.clone())
            }
            _ => None,
        })
    }

    fn access_uri_list<'s>(
        &'s self,
        cell: &'s OnceCell<Vec<CachedVal>>,
        oid: Oid,
    ) -> &'s [CachedVal] {
        self.stats.san.touch(cell.get().is_some());
        cell.get_or_init(|| {
            let descs = match self.first_parsed(&oid) {
                Some(ParsedExtension::AuthorityInfoAccess(d))
                | Some(ParsedExtension::SubjectInfoAccess(d)) => d.as_slice(),
                _ => &[],
            };
            descs
                .iter()
                .enumerate()
                .filter_map(|(i, d)| match &d.location {
                    GeneralName::Uri(v) => Some(self.cached_ext(v.clone(), &oid, i)),
                    _ => None,
                })
                .collect()
        })
    }

    /// AuthorityInfoAccess URIs.
    pub fn aia_uris(&self) -> &[CachedVal] {
        self.access_uri_list(&self.aia_uris, known::authority_info_access())
    }

    /// SubjectInfoAccess URIs.
    pub fn sia_uris(&self) -> &[CachedVal] {
        self.access_uri_list(&self.sia_uris, known::subject_info_access())
    }

    /// CRLDistributionPoints fullName URIs.
    pub fn crldp_uris(&self) -> &[CachedVal] {
        self.stats.san.touch(self.crldp_uris.get().is_some());
        self.crldp_uris.get_or_init(|| {
            let dps = match self.first_parsed(&known::crl_distribution_points()) {
                Some(ParsedExtension::CrlDistributionPoints(d)) => d.as_slice(),
                _ => &[],
            };
            let oid = known::crl_distribution_points();
            dps.iter()
                .enumerate()
                .flat_map(|(i, dp)| dp.full_names.iter().map(move |n| (i, n)))
                .filter_map(|(i, n)| match n {
                    // The DistributionPoint's index is the child span; the
                    // URI sits inside it (fullName isn't mapped deeper).
                    GeneralName::Uri(v) => Some(self.cached_ext(v.clone(), &oid, i)),
                    _ => None,
                })
                .collect()
        })
    }

    /// CertificatePolicies userNotice `explicitText` values.
    pub fn explicit_texts(&self) -> &[CachedVal] {
        self.stats.san.touch(self.explicit_texts.get().is_some());
        self.explicit_texts.get_or_init(|| {
            let policies = match self.first_parsed(&known::certificate_policies()) {
                Some(ParsedExtension::CertificatePolicies(p)) => p.as_slice(),
                _ => &[],
            };
            let oid = known::certificate_policies();
            policies
                .iter()
                .enumerate()
                .flat_map(|(i, p)| p.qualifiers.iter().map(move |q| (i, q)))
                .filter_map(|(i, q)| match q {
                    PolicyQualifier::UserNotice { explicit_text: Some(t) } => {
                        Some(self.cached_ext(t.clone(), &oid, i))
                    }
                    _ => None,
                })
                .collect()
        })
    }

    /// CertificatePolicies CPS qualifier values.
    pub fn cps_values(&self) -> &[CachedVal] {
        self.stats.san.touch(self.cps_values.get().is_some());
        self.cps_values.get_or_init(|| {
            let policies = match self.first_parsed(&known::certificate_policies()) {
                Some(ParsedExtension::CertificatePolicies(p)) => p.as_slice(),
                _ => &[],
            };
            let oid = known::certificate_policies();
            policies
                .iter()
                .enumerate()
                .flat_map(|(i, p)| p.qualifiers.iter().map(move |q| (i, q)))
                .filter_map(|(i, q)| match q {
                    PolicyQualifier::Cps(v) => Some(self.cached_ext(v.clone(), &oid, i)),
                    _ => None,
                })
                .collect()
        })
    }

    // --- DNS labels -----------------------------------------------------

    /// Everything the IDNA pipeline says about one DNS label, cached across
    /// the whole analysis (the same label typically appears in the CN, the
    /// SAN, and the classify stage).
    pub fn label_info(&self, label: &str) -> LabelInfo {
        if let Some(&info) = self.labels.borrow().get(label) {
            self.stats.punycode.touch(true);
            return info;
        }
        self.stats.punycode.touch(false);
        let info = LabelInfo::compute(label);
        self.labels.borrow_mut().insert(Box::from(label), info);
        info
    }

    /// Does any ACE-prefixed label of this DNSName text satisfy `pred`?
    pub fn any_ace_label(&self, text: &str, pred: impl Fn(LabelInfo) -> bool) -> bool {
        text.split('.').filter(|l| has_ace_prefix(l)).any(|l| pred(self.label_info(l)))
    }
}

impl std::fmt::Debug for LintContext<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LintContext")
            .field("serial", &self.serial())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl Drop for LintContext<'_> {
    fn drop(&mut self) {
        if !unicert_telemetry::metrics_enabled() {
            return;
        }
        let counters = cache_counters();
        let families = [
            (&self.stats.san, &counters.families[0]),
            (&self.stats.dn_text, &counters.families[1]),
            (&self.stats.punycode, &counters.families[2]),
            (&self.stats.nfc, &counters.families[3]),
        ];
        for (stats, (hit, miss)) in families {
            if stats.hit.get() > 0 {
                hit.add(stats.hit.get());
            }
            if stats.miss.get() > 0 {
                miss.add(stats.miss.get());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unicert_asn1::DateTime;
    use unicert_x509::{CertificateBuilder, SimKey};

    fn builder() -> CertificateBuilder {
        CertificateBuilder::new().validity_days(DateTime::date(2024, 6, 1).unwrap(), 90)
    }

    #[test]
    fn san_dns_matches_direct_extraction() {
        let cert = builder()
            .subject_cn("a.example")
            .add_dns_san("a.example")
            .add_dns_san("xn--mnchen-3ya.de")
            .build_signed(&SimKey::from_seed("ctx"));
        let ctx = LintContext::new(&cert);
        let direct: Vec<String> = cert.tbs.san_dns_names();
        let cached: Vec<String> =
            ctx.san_dns().iter().map(|v| v.raw().display_lossy()).collect();
        assert_eq!(direct, cached);
        // Second access must be a hit, not a recomputation.
        let (hits_before, misses_before) = ctx.cache_stats().san();
        let _ = ctx.san_dns();
        let (hits_after, misses_after) = ctx.cache_stats().san();
        assert_eq!(hits_after, hits_before + 1);
        assert_eq!(misses_after, misses_before);
    }

    #[test]
    fn wire_text_memoizes() {
        let cert = builder().subject_cn("Müller").build_signed(&SimKey::from_seed("ctx"));
        let ctx = LintContext::new(&cert);
        let vals: Vec<_> = ctx.attr_vals(Which::Subject, &known::common_name()).collect();
        assert_eq!(vals.len(), 1);
        let v = vals[0];
        assert_eq!(v.wire_text(), Some("Müller"));
        assert_eq!(v.wire_text(), Some("Müller"));
        assert!(v.strict_ok());
        assert!(v.text_is_nfc());
        let (_, misses) = ctx.cache_stats().nfc();
        assert_eq!(misses, 1);
    }

    #[test]
    fn label_info_matches_classify_a_label() {
        let cert = builder().build_signed(&SimKey::from_seed("ctx"));
        let ctx = LintContext::new(&cert);
        for label in [
            "xn--mnchen-3ya",
            "xn--99999999999",
            "xn--www-hn0a",
            "xn---foo",
            "plain",
            "xn--",
            "XN--MNCHEN-3YA",
        ] {
            assert_eq!(
                ctx.label_info(label).status,
                unicert_idna::label::classify_a_label(label),
                "{label}"
            );
        }
        // Cached on second ask.
        let (hits, _) = ctx.cache_stats().punycode();
        ctx.label_info("xn--mnchen-3ya");
        let (hits_after, _) = ctx.cache_stats().punycode();
        assert_eq!(hits_after, hits + 1);
    }

    #[test]
    fn label_info_non_nfc_and_roundtrip_match_t2_logic() {
        let cert = builder().build_signed(&SimKey::from_seed("ctx"));
        let ctx = LintContext::new(&cert);
        let decomposed = "mu\u{308}nchen";
        let a = format!("xn--{}", punycode::encode(decomposed).unwrap());
        assert!(ctx.label_info(&a).non_nfc);
        assert!(!ctx.label_info("xn--mnchen-3ya").non_nfc);
        for label in ["xn---foo", "xn--mnchen-3ya", "xn--tda"] {
            assert_eq!(
                ctx.label_info(label).roundtrip_mismatch,
                matches!(
                    unicert_idna::label::a_to_u(label),
                    Err(LabelError::RoundTripMismatch)
                ),
                "{label}"
            );
        }
    }

    #[test]
    fn evidence_mode_attaches_in_bounds_spans() {
        let decomposed = "mu\u{308}nchen"; // non-NFC CN text
        let cert = builder()
            .subject_cn(decomposed)
            .add_dns_san("a.example")
            .build_signed(&SimKey::from_seed("ctx-ev"));
        let registry = crate::catalog::default_registry();
        let opts = crate::framework::RunOptions { evidence: true, ..Default::default() };
        let report = registry.run(&cert, opts);
        assert!(report.is_noncompliant());
        for f in &report.findings {
            assert!(!f.evidence.is_empty(), "{} has no evidence", f.lint);
            for e in &f.evidence {
                assert!(e.span.len > 0, "{} empty span", f.lint);
                assert!(e.span.end() <= cert.raw.len(), "{} span out of bounds", f.lint);
                assert!(!e.tlv_path.is_empty());
            }
        }
        // The NFC lints read the CN through the cache, so at least one
        // finding must anchor to the subject attribute value, carrying
        // both the wire text and its normalization.
        let cn_ev = report
            .findings
            .iter()
            .flat_map(|f| f.evidence.iter())
            .find(|e| e.tlv_path.contains("subject.attr"))
            .expect("no finding anchored to the subject CN");
        assert_eq!(cn_ev.raw, decomposed);
        assert_eq!(cn_ev.normalized.as_deref(), Some("münchen"));
    }

    #[test]
    fn evidence_off_leaves_findings_bare() {
        let cert = builder()
            .subject_cn("mu\u{308}nchen")
            .build_signed(&SimKey::from_seed("ctx-ev"));
        let registry = crate::catalog::default_registry();
        let report = registry.run(&cert, crate::framework::RunOptions::default());
        assert!(report.is_noncompliant());
        assert!(report.findings.iter().all(|f| f.evidence.is_empty()));
    }

    #[test]
    fn absent_extensions_yield_empty_lists() {
        let cert = builder().subject_cn("no-ext.example").build_signed(&SimKey::from_seed("ctx"));
        let ctx = LintContext::new(&cert);
        assert!(ctx.san_rfc822().is_empty());
        assert!(ctx.ian_strings().is_empty());
        assert!(ctx.aia_uris().is_empty());
        assert!(ctx.sia_uris().is_empty());
        assert!(ctx.crldp_uris().is_empty());
        assert!(ctx.explicit_texts().is_empty());
        assert!(ctx.cps_values().is_empty());
        assert!(ctx.smtp_mailboxes().is_empty());
    }
}
