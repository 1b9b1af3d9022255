//! The one blessed home for poisoned-lock recovery.
//!
//! A worker that panics mid-slice poisons whatever mutex it held. Every
//! mutex in this crate guards state whose invariants are re-established
//! *before* the guard is released (transitions happen under the lock), so
//! a poisoned guard is still consistent and the right move is to recover
//! it rather than cascade the panic through every connection.
//!
//! That argument is easy to get wrong for a new mutex, so R14
//! (`lock-discipline`) only accepts the `into_inner` recovery idiom inside
//! this file: all acquisitions route through [`lock_recover`] /
//! [`cond_wait`] / [`cond_wait_timeout`], and a bare
//! `unwrap_or_else(|e| e.into_inner())` anywhere else is a lint error.

use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// Acquires `m`, recovering the guard if a panicking holder poisoned it.
pub fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// `Condvar::wait` with the same poison-recovery policy as
/// [`lock_recover`]: a panicking waiter elsewhere must not wedge this one.
pub fn cond_wait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(|e| e.into_inner())
}

/// `Condvar::wait_timeout` with poison recovery; the timed-out flag is
/// dropped because every caller re-checks its predicate under the lock.
pub fn cond_wait_timeout<'a, T>(
    cv: &Condvar,
    guard: MutexGuard<'a, T>,
    wait: Duration,
) -> MutexGuard<'a, T> {
    cv.wait_timeout(guard, wait)
        .unwrap_or_else(|e| e.into_inner())
        .0
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    #[test]
    fn recovers_a_poisoned_mutex() {
        let m = Arc::new(Mutex::new(7u32));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock().unwrap();
            panic!("poison it");
        })
        .join();
        assert!(m.is_poisoned());
        assert_eq!(*lock_recover(&m), 7);
    }
}
