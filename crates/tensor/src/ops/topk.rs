//! Partial selection (top-k) utilities.
//!
//! The drop-and-grow schedules of the sparse-training engines repeatedly need
//! "the k smallest-magnitude active weights" and "the k largest-magnitude
//! gradients at inactive positions". Both reduce to selecting k indices by a
//! float key, implemented here with a bounded binary heap: O(n log k) time,
//! O(k) space, no full sort of multi-million-element weight tensors.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use crate::parallel::{parallel_for_chunks, worker_threads};

/// A float key that orders like `f32` but is `Ord` (NaN sorts last for
/// `largest` selection and first for `smallest`, i.e. NaN is never selected).
#[derive(PartialEq)]
struct Key(f32);

impl Eq for Key {}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Key {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.partial_cmp(&other.0).unwrap_or(Ordering::Equal)
    }
}

/// Candidate rank under the selection's strict total order: key descending,
/// then index ascending. Tuples compare lexicographically, so a larger rank
/// is a strictly better candidate — no two candidates tie.
type Rank = (Key, Reverse<usize>);

fn rank(ki: f32, i: usize) -> Rank {
    let ki = if ki.is_nan() { f32::NEG_INFINITY } else { ki };
    (Key(ki), Reverse(i))
}

/// Returns the indices of the `k` largest keys among `candidates`.
///
/// `key(i)` supplies the sort key for candidate index `i`. Ties are broken
/// by preferring the smaller index, which makes the selected set the unique
/// `k`-maximal set under a strict total order — and therefore identical
/// whether candidates are scanned in one pass or chunk-selected and merged
/// (see [`par_top_k_indices_where`]). If fewer than `k` candidates exist,
/// all are returned. NaN keys are never selected ahead of finite keys.
pub fn top_k_indices_by(
    candidates: impl Iterator<Item = usize>,
    k: usize,
    key: impl Fn(usize) -> f32,
) -> Vec<usize> {
    if k == 0 {
        return Vec::new();
    }
    // Min-heap of the best k so far: the root is the worst kept candidate.
    let mut heap: BinaryHeap<Reverse<Rank>> = BinaryHeap::with_capacity(k + 1);
    for i in candidates {
        let r = rank(key(i), i);
        if heap.len() < k {
            heap.push(Reverse(r));
        } else if let Some(Reverse(worst)) = heap.peek() {
            if r > *worst {
                heap.pop();
                heap.push(Reverse(r));
            }
        }
    }
    heap.into_iter().map(|Reverse((_, Reverse(i)))| i).collect()
}

/// Returns the indices of the `k` smallest keys among `candidates`.
pub fn bottom_k_indices_by(
    candidates: impl Iterator<Item = usize>,
    k: usize,
    key: impl Fn(usize) -> f32,
) -> Vec<usize> {
    top_k_indices_by(candidates, k, |i| {
        let v = key(i);
        if v.is_nan() {
            f32::NEG_INFINITY
        } else {
            -v
        }
    })
}

/// Minimum candidate count per selection chunk before the parallel variants
/// split the scan — below this the dispatch costs more than the heap work.
const PAR_MIN_CANDIDATES: usize = 1 << 15;

/// One chunk of a parallel selection: `(chunk_index, (local result slot,
/// index range to scan))`.
type SelectChunk<'a> = (usize, (&'a mut Vec<usize>, std::ops::Range<usize>));

/// Parallel [`top_k_indices_by`] over the candidate set
/// `{ i in 0..n : filter(i) }`, returned **sorted ascending by index**.
///
/// Each chunk of the index range selects its local top-k, then the ≤ k·chunks
/// survivors are re-selected serially. Because the selection order is a
/// strict total order (key desc, index asc), the global k-maximal set is
/// unique and every chunking — including the serial one — produces the same
/// set, bit-for-bit, at any thread count.
pub fn par_top_k_indices_where<F, K>(n: usize, k: usize, filter: F, key: K) -> Vec<usize>
where
    F: Fn(usize) -> bool + Sync,
    K: Fn(usize) -> f32 + Sync,
{
    let workers = worker_threads(n / PAR_MIN_CANDIDATES);
    let mut picked = if workers <= 1 || k == 0 {
        top_k_indices_by((0..n).filter(|&i| filter(i)), k, &key)
    } else {
        let per = n.div_ceil(workers);
        let mut parts: Vec<Vec<usize>> = vec![Vec::new(); workers];
        let chunks: Vec<SelectChunk> = parts
            .iter_mut()
            .enumerate()
            .map(|(ci, out)| (ci, (out, ci * per..((ci + 1) * per).min(n))))
            .collect();
        parallel_for_chunks(chunks, |_, (out, range)| {
            *out = top_k_indices_by(range.filter(|&i| filter(i)), k, &key);
        });
        let survivors = parts.concat();
        top_k_indices_by(survivors.into_iter(), k, &key)
    };
    picked.sort_unstable();
    picked
}

/// Parallel [`bottom_k_indices_by`] over `{ i in 0..n : filter(i) }`,
/// returned sorted ascending by index. Same chunking-invariance argument as
/// [`par_top_k_indices_where`].
pub fn par_bottom_k_indices_where<F, K>(n: usize, k: usize, filter: F, key: K) -> Vec<usize>
where
    F: Fn(usize) -> bool + Sync,
    K: Fn(usize) -> f32 + Sync,
{
    par_top_k_indices_where(n, k, filter, |i| {
        let v = key(i);
        if v.is_nan() {
            f32::NEG_INFINITY
        } else {
            -v
        }
    })
}

/// Indices of the `k` largest values in `values`.
pub fn top_k_indices(values: &[f32], k: usize) -> Vec<usize> {
    top_k_indices_by(0..values.len(), k, |i| values[i])
}

/// Indices of the `k` smallest values in `values`.
pub fn bottom_k_indices(values: &[f32], k: usize) -> Vec<usize> {
    bottom_k_indices_by(0..values.len(), k, |i| values[i])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn top_k_basic() {
        let v = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0];
        let mut got = top_k_indices(&v, 3);
        got.sort_unstable();
        assert_eq!(got, vec![2, 4, 5]);
    }

    #[test]
    fn bottom_k_basic() {
        let v = [3.0, 1.0, 4.0, 1.5, 5.0];
        let mut got = bottom_k_indices(&v, 2);
        got.sort_unstable();
        assert_eq!(got, vec![1, 3]);
    }

    #[test]
    fn k_larger_than_candidates() {
        let v = [1.0, 2.0];
        let mut got = top_k_indices(&v, 10);
        got.sort_unstable();
        assert_eq!(got, vec![0, 1]);
    }

    #[test]
    fn k_zero() {
        assert!(top_k_indices(&[1.0, 2.0], 0).is_empty());
    }

    #[test]
    fn filtered_candidates() {
        // Only even indices are candidates.
        let v = [10.0, 99.0, 5.0, 99.0, 7.0, 99.0];
        let mut got = top_k_indices_by((0..v.len()).filter(|i| i % 2 == 0), 2, |i| v[i]);
        got.sort_unstable();
        assert_eq!(got, vec![0, 4]);
    }

    #[test]
    fn nan_never_selected_over_finite() {
        let v = [f32::NAN, 1.0, 2.0, f32::NAN];
        let mut got = top_k_indices(&v, 2);
        got.sort_unstable();
        assert_eq!(got, vec![1, 2]);
        let mut got = bottom_k_indices(&v, 2);
        got.sort_unstable();
        assert_eq!(got, vec![1, 2]);
    }

    #[test]
    fn negative_values() {
        let v = [-5.0, -1.0, -3.0];
        assert_eq!(top_k_indices(&v, 1), vec![1]);
        assert_eq!(bottom_k_indices(&v, 1), vec![0]);
    }

    #[test]
    fn ties_broken_by_smaller_index() {
        // Four equal keys, k=2: the two smallest indices must win — this is
        // what makes the selection unique and chunk-merge exact.
        let v = [1.0, 5.0, 5.0, 5.0, 5.0, 0.0];
        let mut got = top_k_indices(&v, 2);
        got.sort_unstable();
        assert_eq!(got, vec![1, 2]);
        let v = [9.0, 2.0, 2.0, 2.0, 8.0];
        let mut got = bottom_k_indices(&v, 2);
        got.sort_unstable();
        assert_eq!(got, vec![1, 2]);
    }

    #[test]
    fn par_selection_matches_serial_any_thread_count() {
        use crate::parallel::{override_lock, run_serial, set_thread_override};
        let _overrides = override_lock();
        let n = 40_000usize;
        // Quantized keys force many ties; filter removes every third index.
        let keys: Vec<f32> = (0..n).map(|i| ((i * 37 % 101) as f32) / 8.0).collect();
        let filter = |i: usize| !i.is_multiple_of(3);
        let expected = run_serial(|| par_top_k_indices_where(n, 500, filter, |i| keys[i]));
        let expected_bot = run_serial(|| par_bottom_k_indices_where(n, 500, filter, |i| keys[i]));
        for threads in [2usize, 4, 7] {
            set_thread_override(Some(threads));
            let got = par_top_k_indices_where(n, 500, filter, |i| keys[i]);
            let got_bot = par_bottom_k_indices_where(n, 500, filter, |i| keys[i]);
            set_thread_override(None);
            assert_eq!(got, expected, "top threads={threads}");
            assert_eq!(got_bot, expected_bot, "bottom threads={threads}");
        }
        // And the chunked result equals a plain serial heap scan.
        let mut serial = top_k_indices_by((0..n).filter(|&i| filter(i)), 500, |i| keys[i]);
        serial.sort_unstable();
        assert_eq!(expected, serial);
    }

    #[test]
    fn par_selection_small_n_inline() {
        let v = [3.0, 1.0, 4.0, 1.5, 5.0];
        assert_eq!(
            par_top_k_indices_where(5, 2, |_| true, |i| v[i]),
            vec![2, 4]
        );
        assert_eq!(
            par_bottom_k_indices_where(5, 2, |_| true, |i| v[i]),
            vec![1, 3]
        );
        assert!(par_top_k_indices_where(0, 2, |_| true, |_| 0.0).is_empty());
        assert!(par_top_k_indices_where(5, 0, |_| true, |i| v[i]).is_empty());
    }
}
