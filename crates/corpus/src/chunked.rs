//! Chunked corpus iteration — the shard substrate of the parallel survey
//! pipeline.
//!
//! The survey engine partitions a corpus stream into deterministic,
//! index-stamped chunks. Chunk boundaries depend only on `chunk_size` and
//! the order of the underlying stream, never on timing or thread count, so
//! a sharded consumer that merges per-chunk results *in chunk order*
//! reproduces the single-pass result exactly (see DESIGN.md §7).

use crate::generator::{CorpusConfig, CorpusEntry, CorpusGenerator};

/// One shard of a stream: `index` is its 0-based position in the stream,
/// `entries` the consecutive run of items (corpus entries by default) it
/// covers.
#[derive(Debug, Clone)]
pub struct CorpusChunk<T = CorpusEntry> {
    /// 0-based position of this chunk in the stream.
    pub index: usize,
    /// The chunk's entries, in stream order.
    pub entries: Vec<T>,
}

/// Iterator adapter grouping a stream — a corpus, or any other survey
/// input — into [`CorpusChunk`]s.
///
/// Every chunk except possibly the last holds exactly `chunk_size` entries.
#[derive(Debug)]
pub struct Chunks<I> {
    inner: I,
    chunk_size: usize,
    next_index: usize,
}

impl<I: Iterator> Chunks<I> {
    /// Group `inner` into chunks of `chunk_size` (clamped to at least 1).
    pub fn new(inner: I, chunk_size: usize) -> Chunks<I> {
        Chunks { inner, chunk_size: chunk_size.max(1), next_index: 0 }
    }
}

impl<I: Iterator> Iterator for Chunks<I> {
    type Item = CorpusChunk<I::Item>;

    fn next(&mut self) -> Option<CorpusChunk<I::Item>> {
        let mut entries = Vec::with_capacity(self.chunk_size);
        for entry in self.inner.by_ref() {
            entries.push(entry);
            if entries.len() == self.chunk_size {
                break;
            }
        }
        if entries.is_empty() {
            return None;
        }
        let index = self.next_index;
        self.next_index += 1;
        Some(CorpusChunk { index, entries })
    }
}

/// Extension trait putting `.chunked(n)` on every corpus stream.
pub trait IntoChunks: Iterator<Item = CorpusEntry> + Sized {
    /// Group this stream into index-stamped chunks of `chunk_size`.
    fn chunked(self, chunk_size: usize) -> Chunks<Self> {
        Chunks::new(self, chunk_size)
    }
}

impl<I: Iterator<Item = CorpusEntry> + Sized> IntoChunks for I {}

impl CorpusGenerator {
    /// Generate the whole corpus as index-stamped chunks — the cheap-shard
    /// entry point used by the parallel survey pipeline.
    pub fn chunks(config: CorpusConfig, chunk_size: usize) -> Chunks<CorpusGenerator> {
        Chunks::new(CorpusGenerator::new(config), chunk_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(size: usize) -> CorpusConfig {
        CorpusConfig { size, seed: 5, precert_fraction: 0.25, ..Default::default() }
    }

    #[test]
    fn chunks_cover_the_stream_in_order() {
        let whole: Vec<_> = CorpusGenerator::new(config(500)).collect();
        let chunks: Vec<_> = CorpusGenerator::chunks(config(500), 64).collect();
        assert!(chunks.len() > 1);
        for (i, c) in chunks.iter().enumerate() {
            assert_eq!(c.index, i);
        }
        let reassembled: Vec<_> = chunks.into_iter().flat_map(|c| c.entries).collect();
        assert_eq!(whole.len(), reassembled.len());
        for (a, b) in whole.iter().zip(&reassembled) {
            assert_eq!(a.cert.raw, b.cert.raw);
        }
    }

    #[test]
    fn chunk_sizes_are_uniform_except_last() {
        let chunks: Vec<_> = CorpusGenerator::chunks(config(300), 50).collect();
        for c in &chunks[..chunks.len() - 1] {
            assert_eq!(c.entries.len(), 50);
        }
        assert!(chunks.last().is_some_and(|c| !c.entries.is_empty() && c.entries.len() <= 50));
    }

    #[test]
    fn zero_chunk_size_is_clamped() {
        let chunks: Vec<_> = CorpusGenerator::chunks(config(3), 0).collect();
        assert!(chunks.iter().all(|c| c.entries.len() == 1));
    }
}
