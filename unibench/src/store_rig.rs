//! The live-ingest store rig behind `store_ingest` (and the store probe of
//! the traced run).
//!
//! Set-up freezes a base [`CorpusStore`] from the first part of the corpus
//! and brings it up to date once with [`survey_incremental`], which
//! writes one checkpoint per base shard. One pass then runs a fixed
//! number of live-ingest cycles — [`CorpusStore::append`] of one batch,
//! then [`survey_incremental`] — and afterwards rolls the store back to
//! the base state (appended segments and checkpoints removed, base
//! manifest restored) so every pass does identical work.

use crate::tracer::Tracer;
use crate::workload::survey_options;
use std::path::{Path, PathBuf};
use std::time::Instant;
use unicert_corpus::CorpusEntry;
use unicert_store::checkpoint::{
    checkpoint_path, decode_checkpoint, encode_checkpoint, options_key,
};
use unicert_store::manifest::MANIFEST_FILE;
use unicert_store::resume::survey_incremental;
use unicert_store::segment::segment_file_name;
use unicert_store::{atomic_write, CorpusStore, ResumeOptions, ShardStatus};

/// Geometry of a store rig.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreSizes {
    /// Certificates frozen into the base store.
    pub base: usize,
    /// Certificates appended per cycle.
    pub batch: usize,
    /// Cycles per pass.
    pub cycles: usize,
    /// Store shard size (certificates per segment).
    pub shard: usize,
}

impl StoreSizes {
    /// Certificates the rig holds in total after a full pass.
    pub fn total(&self) -> usize {
        self.base + self.batch * self.cycles
    }
}

/// Result of one pass.
#[derive(Debug, Default, Clone)]
pub struct StorePass {
    /// Certificates appended (and brought up to date).
    pub inputs: u64,
    /// Wall ns spent in `append`.
    pub append_ns: u64,
    /// Wall ns spent in `survey_incremental` after each append.
    pub resume_ns: u64,
    /// Quarantined certificates, certificates in corrupt shards, and the
    /// batch of any cycle whose report differs from its reference.
    pub failed: u64,
    /// Bytes of segments, manifests and checkpoints written by the cycles.
    pub bytes_written: u64,
    /// Files written with an fsync by the cycles.
    pub files_synced: u64,
}

impl StorePass {
    /// Wall ns of the timed calls.
    pub fn wall_ns(&self) -> u64 {
        self.append_ns + self.resume_ns
    }
}

/// A frozen base store plus the batches a pass appends.
#[derive(Debug)]
pub struct StoreRig {
    root: PathBuf,
    store_dir: PathBuf,
    ckpt_dir: PathBuf,
    entries: Vec<CorpusEntry>,
    sizes: StoreSizes,
    base_shards: usize,
    base_manifest: Vec<u8>,
}

fn io_err(what: &str) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// Resume options with every survey setting pinned.
pub fn resume_options(threads: usize) -> ResumeOptions {
    ResumeOptions {
        survey: survey_options(threads),
        stop_after: None,
    }
}

impl StoreRig {
    /// Freeze the base store under `root` (replacing anything there) and
    /// survey it once at `threads`. `entries` must hold `sizes.total()`
    /// certificates: the base first, then the batches.
    pub fn setup(
        root: &Path,
        entries: Vec<CorpusEntry>,
        sizes: StoreSizes,
        threads: usize,
    ) -> Result<StoreRig, String> {
        if entries.len() != sizes.total() {
            return Err(format!(
                "store rig needs {} entries, got {}",
                sizes.total(),
                entries.len()
            ));
        }
        if root.exists() {
            std::fs::remove_dir_all(root).map_err(io_err("clearing the store directory"))?;
        }
        let store_dir = root.join("store");
        let ckpt_dir = root.join("ckpt");
        let store = CorpusStore::freeze(&store_dir, &entries[..sizes.base], sizes.shard)
            .map_err(|e| format!("freezing the base store: {e}"))?;
        let base = survey_incremental(&store, &ckpt_dir, resume_options(threads))
            .map_err(|e| format!("surveying the base store: {e}"))?;
        if !base.complete || base.corrupt > 0 || !base.report.quarantine.is_empty() {
            return Err("the base store survey did not complete cleanly".to_string());
        }
        let base_manifest = std::fs::read(store_dir.join(MANIFEST_FILE))
            .map_err(io_err("reading the base manifest"))?;
        Ok(StoreRig {
            root: root.to_path_buf(),
            base_shards: store.manifest().shards.len(),
            store_dir,
            ckpt_dir,
            entries,
            sizes,
            base_manifest,
        })
    }

    /// All certificates, base first.
    pub fn entries(&self) -> &[CorpusEntry] {
        &self.entries
    }

    /// The rig's geometry.
    pub fn sizes(&self) -> StoreSizes {
        self.sizes
    }

    /// Reference fingerprint after each cycle: a one-shot serial in-memory
    /// survey of every certificate the store holds at that point.
    pub fn references(&self) -> Vec<u64> {
        (1..=self.sizes.cycles)
            .map(|k| {
                let held = &self.entries[..self.sizes.base + k * self.sizes.batch];
                unicert::survey::run_parallel_slice(held, survey_options(1)).fingerprint()
            })
            .collect()
    }

    /// Roll the store back to the frozen base and reopen it.
    fn reset(&self) -> Result<CorpusStore, String> {
        let appended = self.sizes.cycles * self.sizes.batch.div_ceil(self.sizes.shard);
        for index in self.base_shards..self.base_shards + appended {
            for path in [
                self.store_dir.join(segment_file_name(index)),
                checkpoint_path(&self.ckpt_dir, index),
            ] {
                match std::fs::remove_file(&path) {
                    Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
                        return Err(format!("removing {}: {e}", path.display()))
                    }
                    _ => {}
                }
            }
        }
        std::fs::write(self.store_dir.join(MANIFEST_FILE), &self.base_manifest)
            .map_err(io_err("restoring the base manifest"))?;
        CorpusStore::open(&self.store_dir).map_err(|e| format!("reopening the store: {e}"))
    }

    /// One pass of append-then-resume cycles at `threads`, checked against
    /// `references` (one per cycle). `tracer` records `store.append` and
    /// `store.resume` spans. Returns the store as the last cycle left it.
    pub fn pass(
        &self,
        threads: usize,
        references: &[u64],
        tracer: &mut Tracer,
    ) -> Result<(StorePass, CorpusStore), String> {
        let mut store = self.reset()?;
        let opts = resume_options(threads);
        let mut out = StorePass::default();
        for cycle in 0..self.sizes.cycles {
            let from = self.sizes.base + cycle * self.sizes.batch;
            let batch = &self.entries[from..from + self.sizes.batch];
            let shards_before = store.manifest().shards.len();

            let started = Instant::now();
            tracer
                .span("store.append", cycle as u64, |_| store.append(batch))
                .map_err(|e| format!("appending batch {cycle}: {e}"))?;
            let appended = Instant::now();
            let resumed = tracer
                .span("store.resume", cycle as u64, |_| {
                    survey_incremental(&store, &self.ckpt_dir, opts)
                })
                .map_err(|e| format!("resuming after batch {cycle}: {e}"))?;
            let finished = Instant::now();

            out.inputs += batch.len() as u64;
            out.append_ns += appended.duration_since(started).as_nanos() as u64;
            out.resume_ns += finished.duration_since(appended).as_nanos() as u64;

            // Verification, outside the timed calls.
            let corrupt: usize = resumed
                .shards
                .iter()
                .filter(|s| matches!(s.status, ShardStatus::Corrupt(_)))
                .map(|s| s.count)
                .sum();
            out.failed += (resumed.report.quarantine.len() + corrupt) as u64;
            let fingerprint = resumed.report.fingerprint();
            if !resumed.complete || references.get(cycle) != Some(&fingerprint) {
                out.failed += batch.len() as u64;
            }

            let new_shards = &store.manifest().shards[shards_before..];
            let ckpt_bytes: u64 = resumed
                .shards
                .iter()
                .filter(|s| s.status == ShardStatus::Surveyed)
                .filter_map(|s| std::fs::metadata(checkpoint_path(&self.ckpt_dir, s.index)).ok())
                .map(|m| m.len())
                .sum();
            let manifest_bytes =
                std::fs::metadata(self.store_dir.join(MANIFEST_FILE)).map_or(0, |m| m.len());
            out.bytes_written +=
                new_shards.iter().map(|s| s.bytes).sum::<u64>() + manifest_bytes + ckpt_bytes;
            out.files_synced += (new_shards.len() + 1 + resumed.surveyed) as u64;
        }
        Ok((out, store))
    }

    /// Time the store's read and checkpoint paths on `store` (as a pass
    /// left it): a segment read with a no-op consumer per shard, a
    /// checkpoint read and decode per shard, and a checkpoint encode plus
    /// atomic write per shard (to a scratch file, so the store's own
    /// checkpoints stay valid). Returns `(certificates read, shards)`.
    pub fn probe_reads(
        &self,
        store: &CorpusStore,
        tracer: &mut Tracer,
    ) -> Result<(u64, u64), String> {
        let registry = unicert_corpus::lint_registry();
        let key = options_key(registry, &resume_options(1));
        let scratch = self.root.join("probe.ckpt");
        let mut certs = 0u64;
        for shard in &store.manifest().shards {
            let id = shard.index as u64;
            tracer
                .span("store.segment_read", id, |_| {
                    store.with_shard_records(shard, |_| ())
                })
                .map_err(|e| format!("reading shard {}: {e:?}", shard.index))?;
            certs += shard.count as u64;
            let report = tracer
                .span("store.checkpoint_read", id, |_| {
                    let bytes = std::fs::read(checkpoint_path(&self.ckpt_dir, shard.index))
                        .map_err(|e| e.to_string())?;
                    decode_checkpoint(&bytes, shard, &key, registry)
                })
                .map_err(|e| format!("checkpoint of shard {}: {e}", shard.index))?;
            tracer
                .span("store.checkpoint_write", id, |_| {
                    atomic_write(&scratch, &encode_checkpoint(shard, &key, &report))
                })
                .map_err(io_err("writing the probe checkpoint"))?;
        }
        Ok((certs, store.manifest().shards.len() as u64))
    }
}

impl Drop for StoreRig {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}
