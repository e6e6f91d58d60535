//! The workspace's one lock rule at runtime: a thread never holds two
//! workspace locks at once. `cardest-lint`'s `lock-order` rule reports the
//! nestings it can see; [`sole_lock`] catches the rest. Every serve and obs
//! lock site calls it on the line before `.lock()`, so the real guard drops
//! first. It lives in the bottom crate so every layer can call it directly.

#[cfg(debug_assertions)]
use std::cell::Cell;
use std::marker::PhantomData;

#[cfg(debug_assertions)]
thread_local! {
    static HELD: Cell<bool> = const { Cell::new(false) };
}

/// Marks the calling thread as holding a tracked lock until dropped.
/// Zero-sized, and `!Send` like the guard it shadows.
#[must_use = "the marker must outlive the lock guard it shadows"]
pub struct SoleLock(PhantomData<*const ()>);

/// Declare that the calling thread is about to take a workspace lock.
/// Debug builds panic if it already holds one; release builds compile this
/// to nothing.
#[inline]
pub fn sole_lock() -> SoleLock {
    #[cfg(debug_assertions)]
    HELD.with(|held| {
        assert!(
            !held.replace(true),
            "lock nesting: this thread already holds a workspace lock"
        )
    });
    SoleLock(PhantomData)
}

#[cfg(debug_assertions)]
impl Drop for SoleLock {
    fn drop(&mut self) {
        HELD.with(|held| held.set(false));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_acquisitions_are_allowed() {
        drop(sole_lock());
        let _a = sole_lock();
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "lock nesting"))]
    fn nested_acquisition_panics_in_debug() {
        // Release builds compile the check away, so passing without a
        // panic is exactly the claim verified there.
        let _a = sole_lock();
        let _b = sole_lock();
    }

    #[test]
    fn marker_is_zero_sized() {
        assert_eq!(std::mem::size_of::<SoleLock>(), 0);
    }
}
