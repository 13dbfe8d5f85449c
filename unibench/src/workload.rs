//! The three workloads: seeded inputs, set-up, one timed pass, and the
//! serial reference every pass is checked against.

use crate::store_rig::{StoreRig, StoreSizes};
use crate::tracer::Tracer;
use std::path::Path;
use std::time::Instant;
use unicert::survey::{run_bytes, run_parallel_bytes, SurveyOptions, SurveyReport};
use unicert_asn1::ParseBudget;
use unicert_chaos::{MutationClass, Mutator};
use unicert_corpus::{CorpusConfig, CorpusEntry, CorpusGenerator};
use unicert_lint::RunOptions;

/// The seed whose reference fingerprints are pinned in `reference.tsv`.
pub const DEFAULT_SEED: u64 = 7;

/// Survey shard size, pinned rather than left to `RunOptions`' default.
pub const SHARD_SIZE: usize = 256;

/// Salt separating the mutator's stream from the corpus generator's.
const MUTATOR_SALT: u64 = 0x6d75_7461_7465_2121;

/// Which workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadKind {
    /// A seeded CT-like corpus surveyed from raw DER.
    CtSurvey,
    /// The same corpus with every input mutated by one chaos class.
    HostileDer,
    /// Live-ingest cycles against a persistent store.
    StoreIngest,
}

impl WorkloadKind {
    /// All workloads.
    pub const ALL: [WorkloadKind; 3] = [
        WorkloadKind::CtSurvey,
        WorkloadKind::HostileDer,
        WorkloadKind::StoreIngest,
    ];

    /// The workloads `BENCHMARK.json` lists, in its order. `store_ingest`
    /// is left out: its passes wait on fsync, whose latency on a shared
    /// disk the calibration cannot cancel.
    pub const BENCHMARKED: [WorkloadKind; 2] = [WorkloadKind::CtSurvey, WorkloadKind::HostileDer];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::CtSurvey => "ct_survey",
            WorkloadKind::HostileDer => "hostile_der",
            WorkloadKind::StoreIngest => "store_ingest",
        }
    }

    /// Inputs per timed survey call of the end-to-end run, about 5 ms of
    /// work on one thread; `None` for `store_ingest`, whose unit is a
    /// whole pass of live-ingest cycles.
    pub fn chunk(self) -> Option<usize> {
        match self {
            WorkloadKind::CtSurvey => Some(250),
            WorkloadKind::HostileDer => Some(2_000),
            WorkloadKind::StoreIngest => None,
        }
    }

    /// Calibration slices timed as one block before each end-to-end unit,
    /// so that a block takes about as long as the unit and a shared host
    /// interrupts both alike (see [`crate::calib`]).
    pub fn unit_slices(self) -> usize {
        match self {
            WorkloadKind::CtSurvey | WorkloadKind::HostileDer => 1,
            WorkloadKind::StoreIngest => 20,
        }
    }

    /// Look a workload up by name.
    pub fn from_name(name: &str) -> Option<WorkloadKind> {
        WorkloadKind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Input sizes of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    /// Corpus size of `ct_survey` / `hostile_der`.
    pub corpus: usize,
    /// Store geometry of `store_ingest`.
    pub store: StoreSizes,
    /// Store geometry of the traced run's side store on the other two
    /// workloads.
    pub side_store: StoreSizes,
    /// Inputs per round of the traced run's staged loop.
    pub trace_sample: usize,
}

impl Sizes {
    /// The sizes the benchmark measures (and the pinned references use).
    pub const STANDARD: Sizes = Sizes {
        corpus: 20_000,
        store: StoreSizes {
            base: 8_192,
            batch: 1_024,
            cycles: 4,
            shard: 1_024,
        },
        side_store: StoreSizes {
            base: 2_048,
            batch: 512,
            cycles: 2,
            shard: 512,
        },
        trace_sample: 2_000,
    };

    /// Small sizes for the self-tests.
    pub const TINY: Sizes = Sizes {
        corpus: 300,
        store: StoreSizes {
            base: 256,
            batch: 64,
            cycles: 2,
            shard: 64,
        },
        side_store: StoreSizes {
            base: 128,
            batch: 32,
            cycles: 2,
            shard: 32,
        },
        trace_sample: 100,
    };
}

/// Survey options with every setting pinned: thread count, shard size,
/// the `webpki` profile, effective-date gating on, evidence off, field
/// matrix on. Nothing is left to resolve from the environment.
pub fn survey_options(threads: usize) -> SurveyOptions {
    SurveyOptions {
        lint: RunOptions {
            enforce_effective_dates: true,
            threads: Some(threads),
            shard_size: SHARD_SIZE,
            profile: Some(unicert_lint::DEFAULT_PROFILE),
            evidence: false,
        },
        field_matrix: true,
    }
}

/// The seeded corpus: paper population, latent defects on, no
/// precertificates.
pub fn corpus(seed: u64, size: usize) -> CorpusGenerator {
    CorpusGenerator::new(CorpusConfig {
        size,
        seed,
        precert_fraction: 0.0,
        latent_defects: true,
    })
}

/// Pass every input through one mutation class, cycling the ten classes.
fn mutate_all(seed: u64, ders: &[Vec<u8>]) -> Vec<Vec<u8>> {
    let mut mutator = Mutator::new(seed ^ MUTATOR_SALT);
    ders.iter()
        .enumerate()
        .map(|(i, der)| mutator.mutate(der, MutationClass::ALL[i % MutationClass::ALL.len()]))
        .collect()
}

/// Fold fingerprints into one value (FNV-1a over their bytes).
pub fn combine(fingerprints: &[u64]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in fingerprints.iter().flat_map(|f| f.to_le_bytes()) {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// Failures a pass's report shows against its reference: every
/// quarantined input, plus every input of the pass when the report's
/// fingerprint differs from `reference`.
pub fn failures(report: &SurveyReport, reference: u64, inputs: usize) -> u64 {
    let mismatch = if report.fingerprint() == reference {
        0
    } else {
        inputs
    };
    (report.quarantine.len() + mismatch) as u64
}

/// The inputs a workload surveys.
#[derive(Debug)]
pub enum Inputs {
    /// Raw DER held in memory.
    Bytes(Vec<Vec<u8>>),
    /// A frozen base store and the batches appended to it.
    Store(StoreRig),
}

/// Result of one timed pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct Pass {
    /// Inputs carried into a complete report.
    pub inputs: u64,
    /// Wall ns of the timed calls.
    pub wall_ns: u64,
    /// Failed inputs (see [`failures`]).
    pub failed: u64,
}

/// A set-up workload.
#[derive(Debug)]
pub struct Workload {
    /// The surveyed inputs.
    pub inputs: Inputs,
    /// Certificates generated during set-up.
    pub generated: u64,
    /// Inputs per end-to-end unit (see [`WorkloadKind::chunk`]).
    chunk: Option<usize>,
}

impl Workload {
    /// Build the inputs (recording `corpus.generate` and, for
    /// `hostile_der`, `chaos.mutate` spans) and run one warm-up pass.
    /// `store_ingest` keeps its store under `work`.
    pub fn setup(
        kind: WorkloadKind,
        seed: u64,
        sizes: Sizes,
        threads: usize,
        work: &Path,
        tracer: &mut Tracer,
    ) -> Result<Workload, String> {
        let inputs = match kind {
            WorkloadKind::CtSurvey | WorkloadKind::HostileDer => {
                let ders: Vec<Vec<u8>> = tracer.span("corpus.generate", 0, |_| {
                    corpus(seed, sizes.corpus).map(|e| e.cert.raw).collect()
                });
                let ders = if kind == WorkloadKind::HostileDer {
                    tracer.span("chaos.mutate", 0, |_| mutate_all(seed, &ders))
                } else {
                    ders
                };
                let budget = ParseBudget::default();
                let warm = run_parallel_bytes(&ders, survey_options(threads), &budget);
                if warm.entries != ders.len() {
                    return Err("warm-up pass lost inputs".to_string());
                }
                Inputs::Bytes(ders)
            }
            WorkloadKind::StoreIngest => {
                let entries: Vec<CorpusEntry> = tracer.span("corpus.generate", 0, |_| {
                    corpus(seed, sizes.store.total()).collect()
                });
                Inputs::Store(StoreRig::setup(work, entries, sizes.store, threads)?)
            }
        };
        let generated = match kind {
            WorkloadKind::StoreIngest => sizes.store.total(),
            _ => sizes.corpus,
        } as u64;
        Ok(Workload {
            inputs,
            generated,
            chunk: kind.chunk(),
        })
    }

    /// Reference fingerprints: for raw DER, one serial [`run_bytes`] over
    /// the same inputs; for the store, the one-shot in-memory survey of
    /// the certificates held after each cycle.
    pub fn reference(&self) -> Vec<u64> {
        match &self.inputs {
            Inputs::Bytes(ders) => {
                vec![run_bytes(ders, survey_options(1), &ParseBudget::default()).fingerprint()]
            }
            Inputs::Store(rig) => rig.references(),
        }
    }

    /// The end-to-end run's timed units over raw DER: consecutive chunks
    /// of [`WorkloadKind::chunk`] inputs. Empty for the store.
    fn chunks(&self) -> Vec<&[Vec<u8>]> {
        match (&self.inputs, self.chunk) {
            (Inputs::Bytes(ders), Some(chunk)) => ders.chunks(chunk).collect(),
            _ => Vec::new(),
        }
    }

    /// Units of one end-to-end pass.
    pub fn units(&self) -> usize {
        match &self.inputs {
            Inputs::Bytes(_) => self.chunks().len(),
            Inputs::Store(_) => 1,
        }
    }

    /// References of the end-to-end units and whether they agree with
    /// `whole` (from [`Workload::reference`]). Over raw DER, one serial
    /// [`run_bytes`] per chunk, whose reports merged in order must
    /// reproduce the whole-corpus report; the store's single unit is a
    /// whole pass, checked against `whole` itself.
    pub fn unit_references(&self, whole: &[u64]) -> (Vec<u64>, bool) {
        match &self.inputs {
            Inputs::Bytes(_) => {
                let budget = ParseBudget::default();
                let mut merged = SurveyReport::default();
                let references = self
                    .chunks()
                    .into_iter()
                    .map(|chunk| {
                        let report = run_bytes(chunk, survey_options(1), &budget);
                        let fp = report.fingerprint();
                        merged.merge(report);
                        fp
                    })
                    .collect();
                let agree = whole.first() == Some(&merged.fingerprint());
                (references, agree)
            }
            Inputs::Store(_) => (whole.to_vec(), true),
        }
    }

    /// End-to-end unit `i` on one thread, checked against its reference
    /// from [`Workload::unit_references`]: one survey call over a chunk,
    /// or one store pass.
    pub fn unit(&self, i: usize, references: &[u64]) -> Result<Pass, String> {
        match &self.inputs {
            Inputs::Bytes(_) => {
                let chunk = *self.chunks().get(i).ok_or("no such unit")?;
                let budget = ParseBudget::default();
                let opts = survey_options(1);
                let started = Instant::now();
                let report = run_parallel_bytes(chunk, opts, &budget);
                let wall_ns = started.elapsed().as_nanos() as u64;
                let expected = references.get(i).copied().unwrap_or_default();
                Ok(Pass {
                    inputs: chunk.len() as u64,
                    wall_ns,
                    failed: failures(&report, expected, chunk.len()),
                })
            }
            Inputs::Store(_) => self.pass(1, references),
        }
    }

    /// The raw DER the traced run's layer probes walk.
    pub fn probe_ders(&self) -> Vec<&[u8]> {
        match &self.inputs {
            Inputs::Bytes(ders) => ders.iter().map(Vec::as_slice).collect(),
            Inputs::Store(rig) => rig
                .entries()
                .iter()
                .map(|e| e.cert.raw.as_slice())
                .collect(),
        }
    }

    /// Inputs one pass carries.
    pub fn pass_inputs(&self) -> usize {
        match &self.inputs {
            Inputs::Bytes(ders) => ders.len(),
            Inputs::Store(rig) => rig.sizes().batch * rig.sizes().cycles,
        }
    }

    /// One timed pass at `threads`, checked against `reference`.
    pub fn pass(&self, threads: usize, reference: &[u64]) -> Result<Pass, String> {
        match &self.inputs {
            Inputs::Bytes(ders) => {
                let budget = ParseBudget::default();
                let opts = survey_options(threads);
                let started = Instant::now();
                let report = run_parallel_bytes(ders, opts, &budget);
                let wall_ns = started.elapsed().as_nanos() as u64;
                let expected = reference.first().copied().unwrap_or_default();
                Ok(Pass {
                    inputs: ders.len() as u64,
                    wall_ns,
                    failed: failures(&report, expected, ders.len()),
                })
            }
            Inputs::Store(rig) => {
                let (pass, _) = rig.pass(threads, reference, &mut Tracer::off())?;
                Ok(Pass {
                    inputs: pass.inputs,
                    wall_ns: pass.wall_ns(),
                    failed: pass.failed,
                })
            }
        }
    }
}
