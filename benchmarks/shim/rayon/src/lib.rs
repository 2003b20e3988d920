//! Stand-in for `rayon` that only type-checks the two parallel-iterator
//! chains in `reassign::parallel`. The benchmark drives the serial
//! learner only (`learn_parallel` on a stand-in pool would time the
//! stand-in, not the program), so creating a parallel iterator panics.

pub mod prelude {
    pub use crate::ParallelSlice;
}

/// What `par_iter`/`par_iter_mut` return; never constructed.
pub struct Par<I>(I);

pub trait ParallelSlice<T> {
    fn par_iter(&self) -> Par<std::slice::Iter<'_, T>>;
    fn par_iter_mut(&mut self) -> Par<std::slice::IterMut<'_, T>>;
}

impl<T> ParallelSlice<T> for [T] {
    fn par_iter(&self) -> Par<std::slice::Iter<'_, T>> {
        panic!("benchmark workload reached rayon::par_iter, which is a stand-in here")
    }

    fn par_iter_mut(&mut self) -> Par<std::slice::IterMut<'_, T>> {
        panic!("benchmark workload reached rayon::par_iter_mut, which is a stand-in here")
    }
}

impl<I: Iterator> Par<I> {
    pub fn enumerate(self) -> Par<std::iter::Enumerate<I>> {
        Par(self.0.enumerate())
    }

    pub fn for_each<F: Fn(I::Item)>(self, f: F) {
        self.0.for_each(f)
    }

    pub fn map_init<T, R, INIT, F>(self, init: INIT, f: F) -> Par<impl Iterator<Item = R>>
    where
        INIT: Fn() -> T,
        F: Fn(&mut T, I::Item) -> R,
    {
        let mut state = init();
        Par(self.0.map(move |item| f(&mut state, item)))
    }

    pub fn collect<C: FromIterator<I::Item>>(self) -> C {
        self.0.collect()
    }
}
