//! The batched nearest-neighbour engine: one contiguous word matrix under
//! every associative-memory scan.
//!
//! [`AssociativeMemory`](crate::memory::AssociativeMemory) stores its
//! entries as `Vec<(K, Hypervector)>` — fine as an API surface, hostile as
//! a scan layout: every candidate costs a pointer chase into a separately
//! allocated word buffer. [`BatchLookup`] keeps a synchronized row-major
//! word matrix (one `Vec<u64>`, `matrix[row * row_words + w]`), so a scan
//! is a linear walk the prefetcher can see coming.
//!
//! Three scan shapes, all allocation-free:
//!
//! * [`nearest_in_range`](BatchLookup::nearest_in_range) — the one
//!   single-probe scan: a bounded early-exit walk over the rows in order,
//!   abandoning a row once its running distance (checked every 16 words)
//!   exceeds the best so far. It takes a caller-supplied starting bound so
//!   shards can inherit a global best; [`nearest_one`](BatchLookup::nearest_one)
//!   is this scan over all rows, and
//!   [`nearest_quantized_by`](BatchLookup::nearest_quantized_by) is the
//!   same walk with a quantum-aware bound;
//! * [`nearest_batch_into`](BatchLookup::nearest_batch_into) — multi-probe
//!   scan, cache-blocked so each block of 16 member rows is
//!   streamed through once for the whole probe batch (the emulator issues
//!   thousands of lookups per tick).
//!
//! ## One bounded scan
//!
//! Every path returns the exact argmin with the earliest-row tie-break,
//! pinned against `ops::reference` by `crates/hdc/tests/kernel_equivalence.rs`.
//! Earlier versions stacked a word-interleaved layout, an incremental
//! prefix schedule and an online probe-shape calibrator on top of this
//! scan; none was faster on the probes the table actually sends (circular
//! codebook vectors, which always "stand out", so the calibrator never
//! collapsed and every lookup paid a prefix round, a sort and escalation
//! rounds). Per-probe `nearest_quantized_by` medians, adaptive → bounded
//! row scan, on a 2-vCPU AVX-512 host:
//!
//! | geometry | AVX-512 | AVX2 | scalar |
//! |---|---|---|---|
//! | d = 10,240, n = 1,024, 512 members | 23.0 → 9.8 µs | 25.3 → 12.1 µs | 30.5 → 19.0 µs |
//! | d = 4,096, n = 256, 128 members | 5.05 → 2.32 µs | 5.51 → 2.78 µs | 6.82 → 5.03 µs |
//! | d = 512, n = 64, 16 members | 342 → 179 ns | 445 → 264 ns | 711 → 584 ns |
//!
//! The one regime the prefix schedule won was the scalar tier with noisy
//! probes (a corrupted copy of a stored row) at d ≥ 4,096: there it took
//! 0.49× (d = 10,240) and 0.77× (d = 4,096) of the straight scan's time.
//! No serving path runs that regime, so the trade was taken.

use crate::hypervector::{hamming_words_within, DimensionMismatchError, Hypervector};

/// Rows per cache block of the multi-probe sweep: 16 rows of a
/// `d = 10_240` memory are 20 KiB — comfortably inside L1/L2 alongside
/// the probe — while still amortizing the per-probe bookkeeping.
const BLOCK_ROWS: usize = 16;

/// Rows of member hypervectors in one contiguous row-major word matrix,
/// scanned by Hamming distance.
///
/// Row indices are stable under [`push`](Self::push) (append) and shift
/// down under [`rebuild`](Self::rebuild) and
/// [`retain_rows`](Self::retain_rows); callers that key rows (the
/// associative memory) own the index↔key correspondence.
#[derive(Debug, Clone)]
pub struct BatchLookup {
    dimension: usize,
    row_words: usize,
    rows: usize,
    matrix: Vec<u64>,
}

/// A scan hit: row index and exact Hamming distance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hit {
    /// Index of the winning row.
    pub row: usize,
    /// Its exact Hamming distance to the probe.
    pub distance: usize,
}

impl BatchLookup {
    /// An empty engine for dimension `d`.
    ///
    /// # Panics
    ///
    /// Panics if `d == 0`.
    #[must_use]
    pub fn new(d: usize) -> Self {
        assert!(d > 0, "dimension must be positive");
        Self { dimension: d, row_words: d.div_ceil(64), rows: 0, matrix: Vec::new() }
    }

    /// Hypervector dimension of every row.
    #[must_use]
    pub fn dimension(&self) -> usize {
        self.dimension
    }

    /// Number of member rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows
    }

    /// Whether the engine holds no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// The packed words of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn row(&self, i: usize) -> &[u64] {
        &self.matrix[i * self.row_words..(i + 1) * self.row_words]
    }

    /// Appends a member row.
    ///
    /// # Errors
    ///
    /// Returns [`DimensionMismatchError`] on dimension mismatch.
    pub fn push(&mut self, hv: &Hypervector) -> Result<(), DimensionMismatchError> {
        if hv.dimension() != self.dimension {
            return Err(DimensionMismatchError {
                left: self.dimension,
                right: hv.dimension(),
            });
        }
        self.matrix.extend_from_slice(hv.as_words());
        self.rows += 1;
        Ok(())
    }

    /// Replaces the whole matrix from an entry iterator (used when the
    /// owning memory's entries are the only source of truth, e.g. after
    /// noise is cleared).
    pub fn rebuild<'a, I: Iterator<Item = &'a Hypervector>>(&mut self, rows: I) {
        self.matrix.clear();
        self.rows = 0;
        for hv in rows {
            assert_eq!(hv.dimension(), self.dimension, "row dimension mismatch");
            self.push(hv).expect("dimension checked above");
        }
    }

    /// Drops every row whose index fails `keep`, compacting the matrix in
    /// place (one forward `copy_within` pass) without touching the owning
    /// entries. Surviving rows keep their relative order, so the
    /// earliest-row tie-break still matches the owner's entry order.
    pub fn retain_rows<F: FnMut(usize) -> bool>(&mut self, mut keep: F) {
        let w = self.row_words;
        let mut kept = 0usize;
        for row in 0..self.rows {
            if keep(row) {
                if kept != row {
                    self.matrix.copy_within(row * w..(row + 1) * w, kept * w);
                }
                kept += 1;
            }
        }
        self.rows = kept;
        self.matrix.truncate(kept * w);
    }

    /// Exact Hamming distances from `probe` to every row, into `out`
    /// (cleared and refilled; reuse the buffer to stay allocation-free).
    /// Runs the fused multi-row kernel: one dispatcher entry for the whole
    /// matrix instead of one per row.
    ///
    /// # Panics
    ///
    /// Panics if `probe` has the wrong dimension.
    pub fn distances_into(&self, probe: &Hypervector, out: &mut Vec<u32>) {
        assert_eq!(probe.dimension(), self.dimension, "probe dimension mismatch");
        out.clear();
        out.resize(self.rows, 0);
        if self.rows == 0 {
            return;
        }
        hdhash_simdkernels::xor_popcount_rows(probe.as_words(), &self.matrix, self.row_words, out);
    }

    /// Flips one bit of row `i` (noise injection keeps the engine in sync
    /// with the owning memory's entries).
    pub(crate) fn flip_bit(&mut self, row: usize, bit: usize) {
        debug_assert!(bit < self.dimension);
        self.matrix[row * self.row_words + bit / 64] ^= 1u64 << (bit % 64);
    }

    /// Nearest row to `probe` over all rows: lowest distance, earliest row
    /// on ties. `None` when empty.
    ///
    /// # Panics
    ///
    /// Panics if `probe` has the wrong dimension.
    #[must_use]
    pub fn nearest_one(&self, probe: &Hypervector) -> Option<Hit> {
        self.nearest_in_range(probe, 0, self.rows, self.dimension)
    }

    /// Nearest row within `rows[start..end)`, considering only candidates
    /// at distance `≤ bound` (callers pass the dimension for an unbounded
    /// scan, or a shared best-so-far to prune across shards).
    ///
    /// Ties break toward the earliest row, and a candidate merely *equal*
    /// to `bound` is still returned — both properties the quantized
    /// arg-max in `hdhash-core` relies on.
    ///
    /// # Panics
    ///
    /// Panics if `probe` has the wrong dimension.
    #[must_use]
    pub fn nearest_in_range(
        &self,
        probe: &Hypervector,
        start: usize,
        end: usize,
        bound: usize,
    ) -> Option<Hit> {
        assert_eq!(probe.dimension(), self.dimension, "probe dimension mismatch");
        let probe_words = probe.as_words();
        let mut best: Option<Hit> = None;
        let mut limit = bound;
        for row in start..end.min(self.rows) {
            hdhash_simdkernels::prefetch_words(&self.matrix, (row + 1) * self.row_words);
            if let Some(distance) = hamming_words_within(probe_words, self.row(row), limit) {
                if best.is_none_or(|b| distance < b.distance) {
                    best = Some(Hit { row, distance });
                    limit = distance;
                }
            }
        }
        best
    }

    /// Quantized arg-max over `rows[start..end)`: distances are rounded to
    /// the grid `quantum` (`q = ⌊(dist + c/2)/c⌋`) and the minimum is taken
    /// over `(q, order(row), row)` — the deterministic,
    /// membership-order-independent tie-break `hdhash-core`'s partitioned
    /// codebook requires.
    ///
    /// One bounded early-exit sweep in row order. The bound is
    /// quantum-aware: once a best level `q` is known, a row whose running
    /// distance exceeds the largest distance mapping to `q` can never
    /// improve `(q, order)` and is abandoned; rows that could still *tie*
    /// the level are scanned to completion so the `order` tie-break sees
    /// them.
    ///
    /// Returns `(q, order(row), row)` of the winner, or `None` when the
    /// range is empty.
    ///
    /// # Panics
    ///
    /// Panics if `probe` has the wrong dimension or `quantum == 0`.
    #[must_use]
    pub fn nearest_quantized_by<O, F>(
        &self,
        probe: &Hypervector,
        quantum: usize,
        start: usize,
        end: usize,
        order: F,
    ) -> Option<(usize, O, usize)>
    where
        O: Ord,
        F: Fn(usize) -> O,
    {
        assert_eq!(probe.dimension(), self.dimension, "probe dimension mismatch");
        assert!(quantum > 0, "quantum must be positive");
        let probe_words = probe.as_words();
        let mut best: Option<(usize, O, usize)> = None;
        let mut limit = self.dimension;
        for row in start..end.min(self.rows) {
            hdhash_simdkernels::prefetch_words(&self.matrix, (row + 1) * self.row_words);
            let Some(dist) = hamming_words_within(probe_words, self.row(row), limit) else {
                continue;
            };
            let q = (dist + quantum / 2) / quantum;
            let key_order = order(row);
            if best.as_ref().is_none_or(|(bq, bo, _)| (q, &key_order) < (*bq, bo)) {
                // Largest distance still mapping to level `q`:
                // `dist ≤ q·c + c − 1 − c/2`, clamped to the dimension.
                limit = (q * quantum + quantum - 1 - quantum / 2).min(self.dimension);
                best = Some((q, key_order, row));
            }
        }
        best
    }

    /// Resolves a batch of probes with the cache-blocked sweep: member
    /// rows are streamed 16 at a time, each block scanned for every probe
    /// (bounded by that probe's best so far) before the next block is
    /// touched, so the matrix is read once per block regardless of batch
    /// size.
    ///
    /// Results land in `out` (cleared and refilled; reuse the buffer to
    /// keep the path allocation-free). Each slot matches
    /// [`nearest_one`](Self::nearest_one) for the corresponding probe
    /// byte-identically (`crates/hdc/tests/kernel_equivalence.rs` pins
    /// this).
    ///
    /// # Panics
    ///
    /// Panics if any probe has the wrong dimension.
    pub fn nearest_batch_into(&self, probes: &[&Hypervector], out: &mut Vec<Option<Hit>>) {
        for probe in probes {
            assert_eq!(probe.dimension(), self.dimension, "probe dimension mismatch");
        }
        out.clear();
        out.resize(probes.len(), None);
        for start in (0..self.rows).step_by(BLOCK_ROWS) {
            for (probe, slot) in probes.iter().zip(out.iter_mut()) {
                let bound = slot.map_or(self.dimension, |b| b.distance);
                let hit = self.nearest_in_range(probe, start, start + BLOCK_ROWS, bound);
                // A tie with an earlier block's best keeps the earlier row.
                if let Some(hit) = hit.filter(|h| slot.is_none_or(|b| h.distance < b.distance)) {
                    *slot = Some(hit);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    fn engine_with(n: usize, d: usize, seed: u64) -> (BatchLookup, Vec<Hypervector>) {
        let mut rng = Rng::new(seed);
        let mut engine = BatchLookup::new(d);
        let mut rows = Vec::new();
        for _ in 0..n {
            let hv = Hypervector::random(d, &mut rng);
            engine.push(&hv).expect("dims");
            rows.push(hv);
        }
        (engine, rows)
    }

    fn naive_nearest(rows: &[Hypervector], probe: &Hypervector) -> Option<Hit> {
        rows.iter()
            .enumerate()
            .map(|(i, hv)| Hit { row: i, distance: probe.hamming_distance(hv) })
            .min_by_key(|h| (h.distance, h.row))
    }

    /// A random probe on even `i`, a noisy copy of a random row on odd `i`.
    fn probe_of(i: usize, rows: &[Hypervector], flips: usize, rng: &mut Rng) -> Hypervector {
        let d = rows[0].dimension();
        if i.is_multiple_of(2) {
            Hypervector::random(d, rng)
        } else {
            let victim = rng.next_below(rows.len() as u64) as usize;
            let mut p = rows[victim].clone();
            p.flip_bits(rng.distinct_indices(flips, d));
            p
        }
    }

    #[test]
    fn nearest_matches_naive_scan() {
        for d in [64usize, 65, 130, 1000] {
            let (engine, rows) = engine_with(40, d, d as u64);
            let mut rng = Rng::new(999);
            for _ in 0..25 {
                let probe = Hypervector::random(d, &mut rng);
                assert_eq!(engine.nearest_one(&probe), naive_nearest(&rows, &probe), "d={d}");
            }
        }
    }

    #[test]
    fn noisy_match_probes_agree_with_naive_scan() {
        // The probe is a corrupted copy of one row, the shape of real HDC
        // inference.
        for d in [512usize, 1000, 10_240] {
            let (engine, rows) = engine_with(200, d, 3 * d as u64 + 1);
            let mut rng = Rng::new(4242);
            for _ in 0..15 {
                let victim = rng.next_below(200) as usize;
                let mut probe = rows[victim].clone();
                probe.flip_bits(rng.distinct_indices(d / 20, d));
                let hit = engine.nearest_one(&probe);
                assert_eq!(hit, naive_nearest(&rows, &probe), "d={d}");
                assert_eq!(hit.expect("non-empty").row, victim);
            }
        }
    }

    #[test]
    fn batch_matches_single_probe_and_naive_on_both_probe_shapes() {
        // 100 rows span several blocks plus a partial tail block.
        for d in [320usize, 10_240] {
            let (engine, rows) = engine_with(100, d, 5 + d as u64);
            let mut rng = Rng::new(6);
            let probes: Vec<Hypervector> =
                (0..37).map(|i| probe_of(i, &rows, d / 20, &mut rng)).collect();
            let refs: Vec<&Hypervector> = probes.iter().collect();
            let mut out = Vec::new();
            engine.nearest_batch_into(&refs, &mut out);
            assert_eq!(out.len(), probes.len());
            for (probe, got) in probes.iter().zip(&out) {
                assert_eq!(*got, engine.nearest_one(probe), "d={d}");
                assert_eq!(*got, naive_nearest(&rows, probe), "d={d}");
            }
        }
    }

    /// Reference for the quantized arg-max: exhaustive `(q, order, row)`
    /// minimum over a row range.
    fn naive_quantized(
        rows: &[Hypervector],
        probe: &Hypervector,
        quantum: usize,
        start: usize,
        end: usize,
        order: impl Fn(usize) -> usize,
    ) -> Option<(usize, usize, usize)> {
        rows[start.min(rows.len())..end.min(rows.len())]
            .iter()
            .enumerate()
            .map(|(i, hv)| {
                let row = start + i;
                ((probe.hamming_distance(hv) + quantum / 2) / quantum, order(row), row)
            })
            .min()
    }

    #[test]
    fn quantized_matches_naive_on_both_probe_shapes() {
        let d = 10_240;
        let (engine, rows) = engine_with(64, d, 4040);
        let mut rng = Rng::new(4041);
        let order = |row: usize| row * 7 % 13; // collides → order tie-breaks matter
        for quantum in [32usize, 64, 160] {
            for i in 0..24 {
                let probe = probe_of(i, &rows, d / 20, &mut rng);
                assert_eq!(
                    engine.nearest_quantized_by(&probe, quantum, 0, 64, order),
                    naive_quantized(&rows, &probe, quantum, 0, 64, order),
                    "quantum {quantum}, probe {i}"
                );
            }
        }
    }

    #[test]
    fn quantized_respects_row_ranges() {
        let d = 4096;
        let (engine, rows) = engine_with(40, d, 5050);
        let mut rng = Rng::new(5051);
        let order = |row: usize| row * 7 % 13;
        for _ in 0..10 {
            let probe = Hypervector::random(d, &mut rng);
            for (start, end) in [(0usize, 40usize), (5, 25), (30, 40), (12, 13), (20, 20)] {
                assert_eq!(
                    engine.nearest_quantized_by(&probe, 64, start, end, order),
                    naive_quantized(&rows, &probe, 64, start, end, order),
                    "range {start}..{end}"
                );
            }
            // Out-of-range end clamps; fully out-of-range start is None.
            assert_eq!(
                engine.nearest_quantized_by(&probe, 64, 0, 999, order),
                naive_quantized(&rows, &probe, 64, 0, 40, order)
            );
            assert!(engine.nearest_quantized_by(&probe, 64, 40, 45, order).is_none());
        }
    }

    #[test]
    fn ties_break_to_earliest_row() {
        let mut engine = BatchLookup::new(128);
        let hv = Hypervector::ones(128);
        engine.push(&hv).expect("dims");
        engine.push(&hv).expect("dims");
        let hit = engine.nearest_one(&hv).expect("non-empty");
        assert_eq!((hit.row, hit.distance), (0, 0));
    }

    #[test]
    fn bound_still_admits_equal_distance() {
        let (engine, rows) = engine_with(10, 256, 8);
        let probe = rows[7].clone();
        // Bound exactly the winner's distance (0): it must still be found.
        let hit = engine.nearest_in_range(&probe, 0, 10, 0).expect("bounded hit");
        assert_eq!(hit.row, 7);
        // A bound below every distance yields nothing.
        let mut rng = Rng::new(77);
        let far = Hypervector::random(256, &mut rng);
        assert!(engine.nearest_in_range(&far, 0, 10, 0).is_none());
    }

    #[test]
    fn rebuild_and_rows_roundtrip() {
        let (mut engine, rows) = engine_with(9, 130, 11);
        assert_eq!(engine.len(), 9);
        for (i, hv) in rows.iter().enumerate() {
            assert_eq!(engine.row(i), hv.as_words());
        }
        engine.rebuild(rows.iter().skip(4));
        assert_eq!(engine.len(), 5);
        assert_eq!(engine.row(0), rows[4].as_words());
    }

    #[test]
    fn empty_engine_finds_nothing() {
        let engine = BatchLookup::new(64);
        let probe = Hypervector::zeros(64);
        assert!(engine.nearest_one(&probe).is_none());
        assert!(engine.is_empty());
        let mut out = vec![Some(Hit { row: 9, distance: 9 })];
        engine.nearest_batch_into(&[&probe], &mut out);
        assert_eq!(out, vec![None]);
    }

    #[test]
    fn push_rejects_wrong_dimension() {
        let mut engine = BatchLookup::new(64);
        assert!(engine.push(&Hypervector::zeros(65)).is_err());
        assert_eq!(engine.len(), 0);
        assert_eq!(engine.dimension(), 64);
    }

    #[test]
    fn retain_rows_compacts_in_place() {
        let (mut engine, rows) = engine_with(9, 130, 11);
        engine.retain_rows(|row| row % 3 != 1);
        assert_eq!(engine.len(), 6);
        let survivors: Vec<usize> = (0..9).filter(|r| r % 3 != 1).collect();
        for (new_row, &old_row) in survivors.iter().enumerate() {
            assert_eq!(engine.row(new_row), rows[old_row].as_words(), "row {old_row}");
        }
        // Scans agree with a freshly built engine over the survivors.
        let mut fresh = BatchLookup::new(130);
        for &old_row in &survivors {
            fresh.push(&rows[old_row]).expect("dims");
        }
        let mut rng = Rng::new(321);
        for _ in 0..10 {
            let probe = Hypervector::random(130, &mut rng);
            assert_eq!(engine.nearest_one(&probe), fresh.nearest_one(&probe));
        }
        // Dropping everything leaves an empty engine.
        engine.retain_rows(|_| false);
        assert!(engine.is_empty());
        assert_eq!(engine.matrix.len(), 0);
    }

    #[test]
    fn distances_into_matches_per_row_distances() {
        for d in [64usize, 130, 1000, 10_240] {
            let (engine, rows) = engine_with(21, d, d as u64 + 5);
            let mut rng = Rng::new(42);
            let probe = Hypervector::random(d, &mut rng);
            let mut out = vec![7u32; 3]; // stale contents must be replaced
            engine.distances_into(&probe, &mut out);
            assert_eq!(out.len(), 21);
            for (i, hv) in rows.iter().enumerate() {
                assert_eq!(out[i] as usize, probe.hamming_distance(hv), "d={d} row {i}");
            }
        }
    }

    #[test]
    fn flip_bit_tracks_rows() {
        let (mut engine, rows) = engine_with(3, 130, 13);
        engine.flip_bit(2, 129);
        let mut expect = rows[2].clone();
        expect.flip_bit(129);
        assert_eq!(engine.row(2), expect.as_words());
    }
}
