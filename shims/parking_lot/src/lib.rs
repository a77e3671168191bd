//! Offline subset of `parking_lot`: non-poisoning `Mutex` and `RwLock`
//! wrappers over `std::sync`. Only the surface this workspace uses.
//!
//! # Lockdep instrumentation
//!
//! Under `debug_assertions` (or the `lockdep` cargo feature, for release
//! stress runs) every lock participates in the workspace-wide
//! lock-dependency validator (`crates/lockdep`): each lock belongs to a
//! *class* — named explicitly via [`Mutex::new_class`] /
//! [`RwLock::new_class`], or derived automatically from the construction
//! site for plain [`Mutex::new`] — and every acquisition is checked
//! against the global class-dependency graph *before* blocking, so lock
//! inversions, double-locks and rank-order violations panic
//! deterministically instead of deadlocking some unlucky run. See the
//! `lockdep` crate docs for the checks.
//!
//! In release builds without the feature, the class plumbing compiles
//! away entirely: the types are plain newtypes over `std::sync` with no
//! extra fields and no extra code on the lock path.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync;

#[cfg(any(debug_assertions, feature = "lockdep"))]
mod dep {
    use std::panic::Location;
    use std::ptr;
    use std::sync::atomic::{AtomicPtr, Ordering};

    /// The lockdep identity of one lock instance: its class, resolved
    /// lazily so construction stays `const`.
    pub(crate) struct ClassCell {
        name: Option<&'static str>,
        loc: &'static Location<'static>,
        resolved: AtomicPtr<lockdep::LockClass>,
    }

    impl ClassCell {
        pub(crate) const fn new(
            name: Option<&'static str>,
            loc: &'static Location<'static>,
        ) -> ClassCell {
            ClassCell {
                name,
                loc,
                resolved: AtomicPtr::new(ptr::null_mut()),
            }
        }

        pub(crate) fn name(&self) -> Option<&'static str> {
            self.name
        }

        fn class(&self) -> &'static lockdep::LockClass {
            let p = self.resolved.load(Ordering::Acquire);
            if !p.is_null() {
                // The pointer only ever transitions null → one leaked
                // &'static LockClass, so this deref is always valid.
                return unsafe { &*p };
            }
            let class = lockdep::register(self.name, self.loc);
            self.resolved
                .store(class as *const _ as *mut _, Ordering::Release);
            class
        }

        /// Validates the acquisition and returns the token whose drop
        /// pops it off the thread's held-lock stack.
        pub(crate) fn enter(
            &self,
            kind: lockdep::LockKind,
            site: &'static Location<'static>,
        ) -> Held {
            let class = self.class();
            lockdep::acquire(class, kind, site);
            Held { class }
        }

        /// Reports one contended acquisition (the `try_lock` fast path
        /// failed and the thread blocked for `wait_ns`) to lockdep's
        /// per-class contention accounting, surfaced in `/proc/cntrstats`.
        pub(crate) fn note_contention(&self, wait_ns: u64) {
            lockdep::note_contention(self.class(), wait_ns);
        }
    }

    /// RAII held-stack entry (one per live guard).
    pub(crate) struct Held {
        class: &'static lockdep::LockClass,
    }

    impl Drop for Held {
        fn drop(&mut self) {
            lockdep::release(self.class);
        }
    }
}

/// A mutual exclusion primitive. Unlike `std::sync::Mutex`, `lock()` does
/// not return a poison `Result`: a panic while holding the lock does not
/// poison it for later holders, matching `parking_lot` semantics.
pub struct Mutex<T: ?Sized> {
    #[cfg(any(debug_assertions, feature = "lockdep"))]
    class: dep::ClassCell,
    inner: sync::Mutex<T>,
}

impl<T: Default> Default for Mutex<T> {
    #[track_caller]
    fn default() -> Mutex<T> {
        Mutex::new(T::default())
    }
}

impl<T> Mutex<T> {
    /// Creates a new mutex. Its lockdep class is derived from the
    /// construction site; prefer [`Mutex::new_class`] for locks that are
    /// part of a documented ordering discipline.
    #[track_caller]
    pub const fn new(value: T) -> Mutex<T> {
        Mutex {
            #[cfg(any(debug_assertions, feature = "lockdep"))]
            class: dep::ClassCell::new(None, std::panic::Location::caller()),
            inner: sync::Mutex::new(value),
        }
    }

    /// Creates a mutex in the named lockdep class.
    #[track_caller]
    pub const fn new_class(name: &'static str, value: T) -> Mutex<T> {
        #[cfg(not(any(debug_assertions, feature = "lockdep")))]
        let _ = name;
        Mutex {
            #[cfg(any(debug_assertions, feature = "lockdep"))]
            class: dep::ClassCell::new(Some(name), std::panic::Location::caller()),
            inner: sync::Mutex::new(value),
        }
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        match self.inner.into_inner() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, blocking until it is available. Under lockdep
    /// the acquisition is validated *before* blocking, so an ordering
    /// violation panics instead of deadlocking. Instrumented builds also
    /// try a non-blocking fast path first and report the wall-clock wait
    /// of contended acquisitions to lockdep's per-class contention stats.
    #[track_caller]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        #[cfg(any(debug_assertions, feature = "lockdep"))]
        {
            let held = self
                .class
                .enter(lockdep::LockKind::Mutex, std::panic::Location::caller());
            let inner = match self.inner.try_lock() {
                Ok(g) => g,
                Err(sync::TryLockError::Poisoned(p)) => p.into_inner(),
                Err(sync::TryLockError::WouldBlock) => {
                    let start = std::time::Instant::now();
                    let g = match self.inner.lock() {
                        Ok(g) => g,
                        Err(p) => p.into_inner(),
                    };
                    self.class
                        .note_contention(start.elapsed().as_nanos() as u64);
                    g
                }
            };
            MutexGuard { inner, _held: held }
        }
        #[cfg(not(any(debug_assertions, feature = "lockdep")))]
        {
            let inner = match self.inner.lock() {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
            MutexGuard { inner }
        }
    }

    /// Attempts to acquire the lock without blocking. A failed `try_lock`
    /// cannot deadlock, but a *successful* one still participates in the
    /// held-lock stack and dependency graph like any acquisition.
    #[track_caller]
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        let inner = match self.inner.try_lock() {
            Ok(g) => g,
            Err(sync::TryLockError::Poisoned(p)) => p.into_inner(),
            Err(sync::TryLockError::WouldBlock) => return None,
        };
        Some(MutexGuard {
            inner,
            #[cfg(any(debug_assertions, feature = "lockdep"))]
            _held: self
                .class
                .enter(lockdep::LockKind::Mutex, std::panic::Location::caller()),
        })
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        match self.inner.get_mut() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }
}

impl<T: fmt::Debug + ?Sized> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = f.debug_struct("Mutex");
        #[cfg(any(debug_assertions, feature = "lockdep"))]
        if let Some(name) = self.class.name() {
            s.field("class", &name);
        }
        s.field("data", &&self.inner).finish()
    }
}

impl<T> From<T> for Mutex<T> {
    #[track_caller]
    fn from(value: T) -> Mutex<T> {
        Mutex::new(value)
    }
}

/// RAII guard of [`Mutex::lock`]; releasing it pops the lockdep held-lock
/// stack entry.
pub struct MutexGuard<'a, T: ?Sized> {
    inner: sync::MutexGuard<'a, T>,
    #[cfg(any(debug_assertions, feature = "lockdep"))]
    _held: dep::Held,
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: fmt::Debug + ?Sized> fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl<T: fmt::Display + ?Sized> fmt::Display for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&**self, f)
    }
}

/// A reader-writer lock with the same non-poisoning behaviour as [`Mutex`].
pub struct RwLock<T: ?Sized> {
    #[cfg(any(debug_assertions, feature = "lockdep"))]
    class: dep::ClassCell,
    inner: sync::RwLock<T>,
}

impl<T: Default> Default for RwLock<T> {
    #[track_caller]
    fn default() -> RwLock<T> {
        RwLock::new(T::default())
    }
}

impl<T> RwLock<T> {
    /// Creates a new rwlock (auto lockdep class from the construction
    /// site; prefer [`RwLock::new_class`] for disciplined locks).
    #[track_caller]
    pub const fn new(value: T) -> RwLock<T> {
        RwLock {
            #[cfg(any(debug_assertions, feature = "lockdep"))]
            class: dep::ClassCell::new(None, std::panic::Location::caller()),
            inner: sync::RwLock::new(value),
        }
    }

    /// Creates a rwlock in the named lockdep class.
    #[track_caller]
    pub const fn new_class(name: &'static str, value: T) -> RwLock<T> {
        #[cfg(not(any(debug_assertions, feature = "lockdep")))]
        let _ = name;
        RwLock {
            #[cfg(any(debug_assertions, feature = "lockdep"))]
            class: dep::ClassCell::new(Some(name), std::panic::Location::caller()),
            inner: sync::RwLock::new(value),
        }
    }

    /// Consumes the rwlock, returning the inner value.
    pub fn into_inner(self) -> T {
        match self.inner.into_inner() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquires shared read access. Instrumented builds report contended
    /// acquisitions to lockdep's per-class contention stats.
    #[track_caller]
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        #[cfg(any(debug_assertions, feature = "lockdep"))]
        {
            let held = self
                .class
                .enter(lockdep::LockKind::Read, std::panic::Location::caller());
            let inner = match self.inner.try_read() {
                Ok(g) => g,
                Err(sync::TryLockError::Poisoned(p)) => p.into_inner(),
                Err(sync::TryLockError::WouldBlock) => {
                    let start = std::time::Instant::now();
                    let g = match self.inner.read() {
                        Ok(g) => g,
                        Err(p) => p.into_inner(),
                    };
                    self.class
                        .note_contention(start.elapsed().as_nanos() as u64);
                    g
                }
            };
            RwLockReadGuard { inner, _held: held }
        }
        #[cfg(not(any(debug_assertions, feature = "lockdep")))]
        {
            let inner = match self.inner.read() {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
            RwLockReadGuard { inner }
        }
    }

    /// Acquires exclusive write access. Instrumented builds report
    /// contended acquisitions to lockdep's per-class contention stats.
    #[track_caller]
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        #[cfg(any(debug_assertions, feature = "lockdep"))]
        {
            let held = self
                .class
                .enter(lockdep::LockKind::Write, std::panic::Location::caller());
            let inner = match self.inner.try_write() {
                Ok(g) => g,
                Err(sync::TryLockError::Poisoned(p)) => p.into_inner(),
                Err(sync::TryLockError::WouldBlock) => {
                    let start = std::time::Instant::now();
                    let g = match self.inner.write() {
                        Ok(g) => g,
                        Err(p) => p.into_inner(),
                    };
                    self.class
                        .note_contention(start.elapsed().as_nanos() as u64);
                    g
                }
            };
            RwLockWriteGuard { inner, _held: held }
        }
        #[cfg(not(any(debug_assertions, feature = "lockdep")))]
        {
            let inner = match self.inner.write() {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
            RwLockWriteGuard { inner }
        }
    }
}

impl<T: fmt::Debug + ?Sized> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = f.debug_struct("RwLock");
        #[cfg(any(debug_assertions, feature = "lockdep"))]
        if let Some(name) = self.class.name() {
            s.field("class", &name);
        }
        s.field("data", &&self.inner).finish()
    }
}

/// RAII guard of [`RwLock::read`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    inner: sync::RwLockReadGuard<'a, T>,
    #[cfg(any(debug_assertions, feature = "lockdep"))]
    _held: dep::Held,
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: fmt::Debug + ?Sized> fmt::Debug for RwLockReadGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl<T: fmt::Display + ?Sized> fmt::Display for RwLockReadGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&**self, f)
    }
}

/// RAII guard of [`RwLock::write`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    inner: sync::RwLockWriteGuard<'a, T>,
    #[cfg(any(debug_assertions, feature = "lockdep"))]
    _held: dep::Held,
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: fmt::Debug + ?Sized> fmt::Debug for RwLockWriteGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl<T: fmt::Display + ?Sized> fmt::Display for RwLockWriteGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&**self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_basics() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn lock_is_not_poisoned_by_panic() {
        let m = Arc::new(Mutex::new(0));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison attempt");
        })
        .join();
        assert_eq!(*m.lock(), 0);
    }

    #[test]
    fn rwlock_basics() {
        let l = RwLock::new(5);
        assert_eq!(*l.read(), 5);
        *l.write() = 7;
        assert_eq!(*l.read(), 7);
    }

    #[test]
    fn try_lock_returns_none_when_held() {
        let m = Mutex::new_class("parking_lot.test.try", 0);
        let g = m.lock();
        // Contended try_lock from another thread: must not block or panic.
        std::thread::scope(|s| {
            s.spawn(|| assert!(m.try_lock().is_none()));
        });
        drop(g);
        assert!(m.try_lock().is_some());
    }

    #[test]
    fn contended_lock_feeds_lockdep_stats() {
        let m = Arc::new(Mutex::new_class("parking_lot.test.contended", 0));
        let m2 = Arc::clone(&m);
        let g = m.lock();
        let waiter = std::thread::spawn(move || {
            let _g = m2.lock(); // blocks until the main thread releases
        });
        std::thread::sleep(std::time::Duration::from_millis(10));
        drop(g);
        waiter.join().unwrap();
        if cfg!(any(debug_assertions, feature = "lockdep")) {
            let row = lockdep::report()
                .classes
                .into_iter()
                .find(|c| c.name == "parking_lot.test.contended")
                .unwrap();
            assert!(row.contended >= 1, "contended={}", row.contended);
            assert!(row.wait_ns > 0);
        }
    }

    #[test]
    fn named_classes_show_in_debug_and_report() {
        let m = Mutex::new_class("parking_lot.test.named", 7);
        let _g = m.lock();
        let dbg = format!("{m:?}");
        // The class only renders in instrumented builds.
        if cfg!(any(debug_assertions, feature = "lockdep")) {
            assert!(dbg.contains("parking_lot.test.named"), "got {dbg}");
            assert!(lockdep::report()
                .classes
                .iter()
                .any(|c| c.name == "parking_lot.test.named"));
        }
    }
}
