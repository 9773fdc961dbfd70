//! In-memory span recording for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around calls into the
//! program's public layers: a stage span around each public stage
//! operator, and a child span around every C2 call the operator issues,
//! captured by [`TimedHolder`], a [`KeyHolder`] wrapper handed to the
//! operator in place of the engine's key holder. A stage's self time
//! (span minus the union of its children) is its C1 work; the children's
//! union is its time inside C2 (crypto plus wire, when C2 is remote).

use sknn_bigint::BigUint;
use sknn_paillier::{Ciphertext, PublicKey, SlotLayout};
use sknn_protocols::{KeyHolder, ProtocolError, SminRoundResponse};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval. Times are nanoseconds since the tracer's origin.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Unique id (1-based; 0 means "no parent").
    pub id: u64,
    /// The span that caused this one (0 for a root).
    pub parent: u64,
    /// The query the span belongs to.
    pub query: u64,
    /// What ran, e.g. `stage.ssed` or `c2.sm_mask_multiply_batch`.
    pub name: String,
    /// Start, ns since origin.
    pub start: u64,
    /// End, ns since origin (equal to `start` while the span is open).
    pub end: u64,
}

/// A thread-safe span store.
pub struct Tracer {
    origin: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its id; close it with [`Tracer::close`].
    pub fn open(&self, name: &str, parent: u64, query: u64) -> u64 {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start = self.now();
        self.spans.lock().expect("tracer lock").push(Span {
            id,
            parent,
            query,
            name: name.to_string(),
            start,
            end: start,
        });
        id
    }

    /// Closes an open span.
    pub fn close(&self, id: u64) {
        let end = self.now();
        let mut spans = self.spans.lock().expect("tracer lock");
        if let Some(s) = spans.iter_mut().rev().find(|s| s.id == id) {
            s.end = end;
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&self, name: &str, parent: u64, query: u64, f: impl FnOnce(u64) -> T) -> T {
        let id = self.open(name, parent, query);
        let out = f(id);
        self.close(id);
        out
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("tracer lock").clone()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"query\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.query, s.name, s.start, s.end
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi)`. Children may
/// nest or overlap (C2 calls from concurrent worker threads); overlapping
/// stretches are counted once.
fn covered(lo: u64, hi: u64, intervals: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Self time of `span`: its duration minus the part its direct children
/// cover.
pub fn self_time(span: &Span, all: &[Span]) -> u64 {
    let children: Vec<(u64, u64)> = all
        .iter()
        .filter(|c| c.parent == span.id)
        .map(|c| (c.start, c.end))
        .collect();
    (span.end - span.start) - covered(span.start, span.end, &children)
}

/// A [`KeyHolder`] that records one span per C2 call, parented to the
/// stage span currently set with [`TimedHolder::enter`].
pub struct TimedHolder<'a> {
    inner: &'a dyn KeyHolder,
    tracer: &'a Tracer,
    parent: AtomicU64,
    query: AtomicU64,
}

impl<'a> TimedHolder<'a> {
    /// Wraps `inner`, recording into `tracer`.
    pub fn new(inner: &'a dyn KeyHolder, tracer: &'a Tracer) -> Self {
        TimedHolder {
            inner,
            tracer,
            parent: AtomicU64::new(0),
            query: AtomicU64::new(0),
        }
    }

    /// The tracer the C2 spans go to.
    pub fn tracer(&self) -> &'a Tracer {
        self.tracer
    }

    /// Parents subsequent C2 calls to span `parent` of query `query`.
    pub fn enter(&self, parent: u64, query: u64) {
        self.parent.store(parent, Ordering::Relaxed);
        self.query.store(query, Ordering::Relaxed);
    }

    fn timed<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        let parent = self.parent.load(Ordering::Relaxed);
        let query = self.query.load(Ordering::Relaxed);
        self.tracer.span(name, parent, query, |_| f())
    }
}

impl KeyHolder for TimedHolder<'_> {
    fn public_key(&self) -> &PublicKey {
        self.inner.public_key()
    }

    fn sm_mask_multiply_batch(&self, pairs: &[(Ciphertext, Ciphertext)]) -> Vec<Ciphertext> {
        self.timed("c2.sm_mask_multiply_batch", || {
            self.inner.sm_mask_multiply_batch(pairs)
        })
    }

    fn lsb_of_masked_batch(&self, masked: &[Ciphertext]) -> Vec<Ciphertext> {
        self.timed("c2.lsb_of_masked_batch", || {
            self.inner.lsb_of_masked_batch(masked)
        })
    }

    fn smin_round(
        &self,
        gamma_permuted: &[Ciphertext],
        l_permuted: &[Ciphertext],
    ) -> Result<SminRoundResponse, ProtocolError> {
        self.timed("c2.smin_round", || {
            self.inner.smin_round(gamma_permuted, l_permuted)
        })
    }

    fn min_selection(&self, beta: &[Ciphertext]) -> Result<Vec<Ciphertext>, ProtocolError> {
        self.timed("c2.min_selection", || self.inner.min_selection(beta))
    }

    fn top_k_indices(&self, distances: &[Ciphertext], k: usize) -> Vec<usize> {
        self.timed("c2.top_k_indices", || {
            self.inner.top_k_indices(distances, k)
        })
    }

    fn decrypt_masked_batch(&self, masked: &[Ciphertext]) -> Vec<BigUint> {
        self.timed("c2.decrypt_masked_batch", || {
            self.inner.decrypt_masked_batch(masked)
        })
    }

    fn supports_packing(&self) -> bool {
        self.inner.supports_packing()
    }

    fn sm_packed_square_batch(
        &self,
        layout: &SlotLayout,
        packed: &[Ciphertext],
    ) -> Result<Vec<Ciphertext>, ProtocolError> {
        self.timed("c2.sm_packed_square_batch", || {
            self.inner.sm_packed_square_batch(layout, packed)
        })
    }

    fn sm_packed_multiply_batch(
        &self,
        layout: &SlotLayout,
        pairs: &[(Ciphertext, Ciphertext)],
    ) -> Result<Vec<Ciphertext>, ProtocolError> {
        self.timed("c2.sm_packed_multiply_batch", || {
            self.inner.sm_packed_multiply_batch(layout, pairs)
        })
    }

    fn lsb_packed_batch(
        &self,
        layout: &SlotLayout,
        masked: &[Ciphertext],
        slot_counts: &[usize],
    ) -> Result<Vec<Ciphertext>, ProtocolError> {
        self.timed("c2.lsb_packed_batch", || {
            self.inner.lsb_packed_batch(layout, masked, slot_counts)
        })
    }

    fn top_k_indices_packed(
        &self,
        layout: &SlotLayout,
        packed: &[Ciphertext],
        count: usize,
        k: usize,
    ) -> Result<Vec<usize>, ProtocolError> {
        self.timed("c2.top_k_indices_packed", || {
            self.inner.top_k_indices_packed(layout, packed, count, k)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            query: 1,
            name: format!("s{id}"),
            start,
            end,
        }
    }

    #[test]
    fn covered_merges_overlaps_and_clips() {
        assert_eq!(covered(0, 100, &[]), 0);
        assert_eq!(covered(0, 100, &[(10, 20), (30, 40)]), 20);
        // Overlapping children count once.
        assert_eq!(covered(0, 100, &[(10, 50), (40, 60)]), 50);
        // Nested children add nothing.
        assert_eq!(covered(0, 100, &[(10, 60), (20, 30)]), 50);
        // Clipped to the parent.
        assert_eq!(covered(50, 100, &[(0, 60), (90, 150)]), 20);
        // Touching intervals merge without double counting.
        assert_eq!(covered(0, 100, &[(10, 20), (20, 30)]), 20);
    }

    #[test]
    fn self_time_over_nested_and_overlapping_children() {
        let spans = vec![
            span(1, 0, 0, 100),
            // Two concurrent C2 calls from different worker threads.
            span(2, 1, 10, 40),
            span(3, 1, 30, 50),
            // A grandchild lies inside child 2: it must not be subtracted
            // from span 1 a second time.
            span(4, 2, 15, 25),
            // A sibling root is not a child.
            span(5, 0, 60, 70),
        ];
        assert_eq!(self_time(&spans[0], &spans), 100 - 40);
        assert_eq!(self_time(&spans[1], &spans), 30 - 10);
        assert_eq!(self_time(&spans[2], &spans), 20);
        assert_eq!(self_time(&spans[4], &spans), 10);
    }

    #[test]
    fn tracer_records_parent_links() {
        let tracer = Tracer::default();
        tracer.span("stage", 0, 7, |stage| {
            tracer.span("child", stage, 7, |_| ());
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, spans[0].id);
        assert!(spans.iter().all(|s| s.query == 7 && s.end >= s.start));
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
    }
}
