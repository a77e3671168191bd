//! Deliberate discipline violations must die deterministically, naming the
//! classes involved — without the bad interleaving ever having to deadlock.
//!
//! Each test uses its own class names: the dependency graph is global to
//! the test process, and these tests poison it on purpose.

use lockdep::LockKind;
use std::panic::Location;
use std::sync::{Arc, Barrier};

#[track_caller]
fn here() -> &'static Location<'static> {
    Location::caller()
}

/// Runs `f` on a fresh thread and returns how it ended.
fn run_victim(f: impl FnOnce() + Send + 'static) -> std::thread::Result<()> {
    std::thread::Builder::new()
        .name("lockdep-victim".into())
        .spawn(f)
        .unwrap()
        .join()
}

/// Runs `f` on a fresh thread and returns the panic message it died with.
fn panic_message_of(f: impl FnOnce() + Send + 'static) -> String {
    let err = run_victim(f).expect_err("the violation must panic");
    err.downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .expect("panic payload is a string")
}

/// The headline check: thread 1 takes A then B and *exits cleanly*; thread
/// 2 then takes B and A. Nothing ever blocks — the cycle is caught from
/// the recorded class graph, not from an actual deadlock, so the test is
/// timing-independent.
#[test]
fn abba_inversion_panics_deterministically() {
    let a = lockdep::register(Some("test.abba.a"), here());
    let b = lockdep::register(Some("test.abba.b"), here());

    let t1 = std::thread::spawn(move || {
        lockdep::acquire(a, LockKind::Mutex, here());
        lockdep::acquire(b, LockKind::Mutex, here());
        lockdep::release(b);
        lockdep::release(a);
    });
    t1.join().unwrap(); // thread 1 is *done* before thread 2 starts

    let msg = panic_message_of(move || {
        lockdep::acquire(b, LockKind::Mutex, here());
        lockdep::acquire(a, LockKind::Mutex, here()); // closes the cycle
    });
    assert!(msg.contains("lock-order cycle"), "got: {msg}");
    assert!(
        msg.contains("test.abba.a") && msg.contains("test.abba.b"),
        "cycle report must name both classes: {msg}"
    );
}

/// Same inversion through real `parking_lot` shim locks, concurrently:
/// both threads run, but the checker fires before the second lock blocks,
/// so the test can never hang even when the interleaving is adversarial.
#[test]
fn abba_through_parking_lot_locks() {
    let a = Arc::new(parking_lot::Mutex::new_class("test.abba2.a", 0u32));
    let b = Arc::new(parking_lot::Mutex::new_class("test.abba2.b", 0u32));
    let gate = Arc::new(Barrier::new(2));

    let t1 = {
        let (a, b, gate) = (Arc::clone(&a), Arc::clone(&b), Arc::clone(&gate));
        std::thread::spawn(move || {
            let ga = a.lock();
            let gb = b.lock();
            drop((ga, gb));
            gate.wait(); // edge a→b is now on record
        })
    };
    gate.wait();
    t1.join().unwrap();

    let inverted = move || {
        let _gb = b.lock();
        let _ga = a.lock();
    };
    // The shim checks locks only where the checker is compiled in: debug
    // builds, or this crate's `lockdep` feature. A plain release build
    // takes the inverted order unchecked, and nothing blocks, since the
    // first thread has finished.
    if cfg!(any(debug_assertions, feature = "lockdep")) {
        let msg = panic_message_of(inverted);
        assert!(
            msg.contains("test.abba2.a") && msg.contains("test.abba2.b"),
            "got: {msg}"
        );
    } else {
        run_victim(inverted).expect("an unchecked build takes both locks");
    }
}

#[test]
fn same_class_double_lock_panics() {
    let c = lockdep::register(Some("test.double.plain"), here());
    let msg = panic_message_of(move || {
        lockdep::acquire(c, LockKind::Mutex, here());
        lockdep::acquire(c, LockKind::Mutex, here());
    });
    assert!(msg.contains("same-class double acquisition"), "got: {msg}");
    assert!(msg.contains("test.double.plain"), "got: {msg}");
}

#[test]
fn declared_ordering_rejects_reverse_and_peer_nesting() {
    lockdep::ordering(&[
        &["test.order.outer"],
        &["test.order.mid"],
        &["test.order.leaf_x", "test.order.leaf_y"],
    ]);
    let outer = lockdep::register(Some("test.order.outer"), here());
    let mid = lockdep::register(Some("test.order.mid"), here());
    let x = lockdep::register(Some("test.order.leaf_x"), here());
    let y = lockdep::register(Some("test.order.leaf_y"), here());

    // Documented order: fine.
    lockdep::acquire(outer, LockKind::Mutex, here());
    lockdep::acquire(mid, LockKind::Write, here());
    lockdep::acquire(x, LockKind::Mutex, here());
    lockdep::release(x);
    lockdep::release(mid);
    lockdep::release(outer);

    // Reverse order: panics on the *first* offence, no deadlock needed.
    let msg = panic_message_of(move || {
        lockdep::acquire(mid, LockKind::Read, here());
        lockdep::acquire(outer, LockKind::Mutex, here());
    });
    assert!(msg.contains("rank-order violation"), "got: {msg}");

    // Two leaves of the same group must never nest.
    let msg = panic_message_of(move || {
        lockdep::acquire(x, LockKind::Mutex, here());
        lockdep::acquire(y, LockKind::Mutex, here());
    });
    assert!(msg.contains("peer-subsystem nesting"), "got: {msg}");
}

#[test]
fn blocking_checkpoint_flags_held_locks() {
    let c = lockdep::register(Some("test.checkpoint.state"), here());

    // Nothing held: the checkpoint is a no-op.
    lockdep::assert_no_locks_held_except(&[]);

    // Held but explicitly allowed: still fine.
    lockdep::acquire(c, LockKind::Mutex, here());
    lockdep::assert_no_locks_held_except(&["test.checkpoint.state"]);
    lockdep::release(c);

    // Held and not allowed: deterministic panic naming the class.
    let msg = panic_message_of(move || {
        lockdep::acquire(c, LockKind::Mutex, here());
        lockdep::assert_no_locks_held_except(&[]);
    });
    assert!(msg.contains("blocking-context violation"), "got: {msg}");
    assert!(msg.contains("test.checkpoint.state"), "got: {msg}");
}

/// A violation panic must not wedge the engine: the victim thread's guards
/// unwind cleanly and other threads keep validating.
#[test]
fn engine_survives_a_violation() {
    let c = lockdep::register(Some("test.survive.a"), here());
    let d = lockdep::register(Some("test.survive.b"), here());
    let _ = panic_message_of(move || {
        lockdep::acquire(c, LockKind::Mutex, here());
        lockdep::acquire(c, LockKind::Mutex, here());
    });
    // The engine still works on this thread afterwards.
    lockdep::acquire(c, LockKind::Mutex, here());
    lockdep::acquire(d, LockKind::Mutex, here());
    lockdep::release(d);
    lockdep::release(c);
    let rep = lockdep::report();
    assert!(rep
        .edges
        .iter()
        .any(|e| e.from == "test.survive.a" && e.to == "test.survive.b"));
}
