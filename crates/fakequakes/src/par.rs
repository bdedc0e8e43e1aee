//! Deterministic fork-join helpers for the numeric kernels.
//!
//! Every parallel kernel in this crate fans out through these helpers,
//! which split index ranges at **fixed midpoints** (never work-stealing
//! chunks of runtime-dependent size) and hand each leaf a disjoint
//! mutable slice of the output. Because each output element is a pure
//! function of the inputs and no reduction crosses a split point, the
//! parallel result is byte-identical to the sequential one — the
//! property `tests/determinism.rs` pins and DESIGN.md §8 documents.
//!
//! With one available core (or `RAYON_NUM_THREADS=1`) every helper runs
//! the plain sequential loop, so single-slot grid jobs pay no spawn
//! overhead. So does a fan-out nested inside another one's leaf (a
//! catalog's per-scenario station synthesis, say): the vendored `join`
//! spawns an OS thread per fork, and nested fan-outs would multiply
//! their leaf counts into that many threads alive at once.

use std::cell::Cell;

thread_local! {
    /// Set while this thread runs a fan-out's leaf.
    static IN_LEAF: Cell<bool> = const { Cell::new(false) };
}

/// True when a fan-out may fork: more than one thread, and not already
/// inside another fan-out's leaf.
fn forks() -> bool {
    rayon::current_num_threads() > 1 && !IN_LEAF.with(Cell::get)
}

/// Minimum number of leaf elements below which fan-out never pays.
const MIN_LEAF: usize = 1;

/// Chunk size that splits `len` items into roughly `4 × threads` leaves,
/// clamped so a leaf never holds fewer than `min_chunk` items.
pub fn chunk_for(len: usize, min_chunk: usize) -> usize {
    let threads = rayon::current_num_threads();
    let target = len.div_ceil((threads * 4).max(1));
    target.max(min_chunk.max(MIN_LEAF))
}

/// Apply `f(first_index, chunk)` over disjoint `chunk`-sized pieces of
/// `out`, in parallel via recursive [`rayon::join`] with deterministic
/// split points. `f` receives the index of the chunk's first element in
/// `out` plus the mutable chunk itself.
pub fn for_each_chunk<T, F>(out: &mut [T], chunk: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let chunk = chunk.max(1);
    if !forks() || out.len() <= chunk {
        for (c, piece) in out.chunks_mut(chunk).enumerate() {
            f(c * chunk, piece);
        }
        return;
    }
    recurse(0, out, chunk, &f);
}

fn recurse<T, F>(start: usize, out: &mut [T], chunk: usize, f: &F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    if out.len() <= chunk {
        let outer = IN_LEAF.with(|c| c.replace(true));
        f(start, out);
        IN_LEAF.with(|c| c.set(outer));
        return;
    }
    // Split on a chunk boundary at (or just past) the midpoint so leaf
    // extents depend only on (len, chunk), never on thread scheduling.
    let half_chunks = out.len().div_ceil(chunk) / 2;
    let mid = (half_chunks.max(1) * chunk).min(out.len());
    let (lo, hi) = out.split_at_mut(mid);
    rayon::join(
        || recurse(start, lo, chunk, f),
        || recurse(start + mid, hi, chunk, f),
    );
}

/// Parallel ordered map: `(0..n).map(f).collect()` with the work fanned
/// out through [`for_each_chunk`]. Results come back in index order.
pub fn map_indexed<T, F>(n: usize, min_chunk: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if !forks() || n <= min_chunk.max(1) {
        return (0..n).map(f).collect();
    }
    let mut slots: Vec<Option<T>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    for_each_chunk(&mut slots, chunk_for(n, min_chunk), |start, piece| {
        for (k, slot) in piece.iter_mut().enumerate() {
            *slot = Some(f(start + k));
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("map_indexed leaf skipped a slot"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_cover_every_index_once() {
        for n in [0usize, 1, 7, 64, 1000] {
            for chunk in [1usize, 3, 16, 1024] {
                let mut hits = vec![0u32; n];
                for_each_chunk(&mut hits, chunk, |start, piece| {
                    for (k, h) in piece.iter_mut().enumerate() {
                        *h += (start + k + 1) as u32;
                    }
                });
                for (i, h) in hits.iter().enumerate() {
                    assert_eq!(*h, (i + 1) as u32, "n={n} chunk={chunk} i={i}");
                }
            }
        }
    }

    #[test]
    fn map_indexed_is_ordered() {
        let v = map_indexed(257, 8, |i| i * i);
        let s: Vec<usize> = (0..257).map(|i| i * i).collect();
        assert_eq!(v, s);
        assert!(map_indexed(0, 1, |i| i).is_empty());
    }

    #[test]
    fn leaves_do_not_fork_again() {
        let mut nested = vec![true; 64];
        for_each_chunk(&mut nested, 8, |_, piece| piece.fill(forks()));
        assert!(nested.iter().all(|&f| !f), "a leaf would fork again");
        assert_eq!(forks(), rayon::current_num_threads() > 1);
    }

    #[test]
    fn chunk_for_never_below_min() {
        assert!(chunk_for(1000, 32) >= 32);
        assert!(chunk_for(0, 1) >= 1);
    }
}
