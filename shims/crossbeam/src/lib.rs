//! Offline subset of `crossbeam`: the lock-free bounded MPMC queue
//! (`crossbeam::queue::ArrayQueue`).

pub mod queue {
    //! Lock-free bounded queues, API-compatible with
    //! `crossbeam::queue::ArrayQueue`.

    use std::cell::UnsafeCell;
    use std::mem::MaybeUninit;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// One ring slot. `stamp` is the slot's turn counter (Dmitry Vyukov's
    /// bounded-MPMC scheme, with crossbeam's lap encoding): a producer may
    /// write when `stamp == tail`, a consumer may read when
    /// `stamp == head + 1`; each access advances the slot's stamp, and lap
    /// bits above the index keep "readable" and "writable-next-lap" stamps
    /// distinct even at capacity 1.
    struct Slot<T> {
        stamp: AtomicUsize,
        value: UnsafeCell<MaybeUninit<T>>,
    }

    /// A bounded lock-free multi-producer multi-consumer queue.
    ///
    /// `push` and `pop` are wait-free for each other's absence and
    /// lock-free under contention: every step is a single CAS on a slot
    /// stamp — no mutex, no park. That property is what lets the FUSE
    /// ring transport submit from request threads without ranking a lock
    /// class for the ring storage itself.
    ///
    /// Head and tail pack `lap | index`: the low `log2(one_lap)` bits are
    /// the slot index, the rest count laps, with
    /// `one_lap = (cap + 1).next_power_of_two()`. Keeping `one_lap > cap`
    /// is load-bearing — with a plain position counter, a one-slot queue
    /// cannot tell "holds an unread value" from "free for the next lap"
    /// (both stamps would be 1) and a second push would overwrite the
    /// queued element.
    pub struct ArrayQueue<T> {
        head: AtomicUsize,
        tail: AtomicUsize,
        one_lap: usize,
        slots: Box<[Slot<T>]>,
    }

    unsafe impl<T: Send> Send for ArrayQueue<T> {}
    unsafe impl<T: Send> Sync for ArrayQueue<T> {}

    impl<T> ArrayQueue<T> {
        /// Creates a queue holding at most `cap` elements.
        ///
        /// # Panics
        ///
        /// Panics if `cap == 0`.
        pub fn new(cap: usize) -> ArrayQueue<T> {
            assert!(cap > 0, "ArrayQueue capacity must be non-zero");
            let slots = (0..cap)
                .map(|i| Slot {
                    stamp: AtomicUsize::new(i),
                    value: UnsafeCell::new(MaybeUninit::uninit()),
                })
                .collect();
            ArrayQueue {
                head: AtomicUsize::new(0),
                tail: AtomicUsize::new(0),
                one_lap: (cap + 1).next_power_of_two(),
                slots,
            }
        }

        /// Maximum number of elements the queue holds.
        pub fn capacity(&self) -> usize {
            self.slots.len()
        }

        /// Attempts to enqueue; returns the value back if the queue is full.
        pub fn push(&self, value: T) -> Result<(), T> {
            let mut tail = self.tail.load(Ordering::Relaxed);
            loop {
                let index = tail & (self.one_lap - 1);
                let lap = tail & !(self.one_lap - 1);
                let slot = &self.slots[index];
                let stamp = slot.stamp.load(Ordering::Acquire);
                if stamp == tail {
                    // The slot is free and it is this position's turn:
                    // claim it by advancing the global tail (next index,
                    // or index 0 of the next lap).
                    let next = if index + 1 < self.slots.len() {
                        tail + 1
                    } else {
                        lap.wrapping_add(self.one_lap)
                    };
                    match self.tail.compare_exchange_weak(
                        tail,
                        next,
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => {
                            unsafe { (*slot.value.get()).write(value) };
                            // Publish: consumers wait for stamp == tail + 1.
                            slot.stamp.store(tail + 1, Ordering::Release);
                            return Ok(());
                        }
                        Err(t) => tail = t,
                    }
                } else if stamp.wrapping_add(self.one_lap) == tail + 1 {
                    // The slot still holds the value written one lap ago.
                    // Full iff the head also still points one lap back;
                    // otherwise a pop is mid-flight — re-read and retry.
                    let head = self.head.load(Ordering::Relaxed);
                    if head.wrapping_add(self.one_lap) == tail {
                        return Err(value);
                    }
                    tail = self.tail.load(Ordering::Relaxed);
                } else {
                    tail = self.tail.load(Ordering::Relaxed);
                }
            }
        }

        /// Attempts to dequeue; returns `None` if the queue is empty.
        pub fn pop(&self) -> Option<T> {
            let mut head = self.head.load(Ordering::Relaxed);
            loop {
                let index = head & (self.one_lap - 1);
                let lap = head & !(self.one_lap - 1);
                let slot = &self.slots[index];
                let stamp = slot.stamp.load(Ordering::Acquire);
                if stamp == head + 1 {
                    // The slot holds a published value for this position:
                    // claim it by advancing the global head.
                    let next = if index + 1 < self.slots.len() {
                        head + 1
                    } else {
                        lap.wrapping_add(self.one_lap)
                    };
                    match self.head.compare_exchange_weak(
                        head,
                        next,
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => {
                            let value = unsafe { (*slot.value.get()).assume_init_read() };
                            // Free the slot for the producer one lap ahead.
                            slot.stamp
                                .store(head.wrapping_add(self.one_lap), Ordering::Release);
                            return Some(value);
                        }
                        Err(h) => head = h,
                    }
                } else if stamp == head {
                    // The slot has not been written for this lap. Empty
                    // iff the tail agrees; otherwise a push is mid-flight.
                    let tail = self.tail.load(Ordering::Relaxed);
                    if tail == head {
                        return None;
                    }
                    head = self.head.load(Ordering::Relaxed);
                } else {
                    head = self.head.load(Ordering::Relaxed);
                }
            }
        }

        /// Number of elements currently enqueued (racy under concurrency,
        /// exact when quiescent).
        pub fn len(&self) -> usize {
            loop {
                let tail = self.tail.load(Ordering::SeqCst);
                let head = self.head.load(Ordering::SeqCst);
                if self.tail.load(Ordering::SeqCst) == tail {
                    let hix = head & (self.one_lap - 1);
                    let tix = tail & (self.one_lap - 1);
                    return if hix < tix {
                        tix - hix
                    } else if hix > tix {
                        self.slots.len() - hix + tix
                    } else if tail == head {
                        0
                    } else {
                        self.slots.len()
                    };
                }
            }
        }

        /// Whether the queue is currently empty (racy under concurrency).
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }

        /// Whether the queue is currently full (racy under concurrency).
        pub fn is_full(&self) -> bool {
            self.len() == self.capacity()
        }
    }

    impl<T> Drop for ArrayQueue<T> {
        fn drop(&mut self) {
            while self.pop().is_some() {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::queue::ArrayQueue;
    use std::sync::Arc;

    #[test]
    fn array_queue_fifo_and_capacity() {
        let q = ArrayQueue::new(2);
        assert_eq!(q.capacity(), 2);
        assert!(q.is_empty());
        q.push(1).unwrap();
        q.push(2).unwrap();
        assert!(q.is_full());
        assert_eq!(q.push(3), Err(3));
        assert_eq!(q.pop(), Some(1));
        q.push(3).unwrap();
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
        assert_eq!(q.pop(), None);
        assert_eq!(q.len(), 0);
    }

    /// Capacity 1 is the aliasing-prone case: without lap bits, the
    /// "readable" stamp and the "writable next lap" stamp collide and a
    /// second push silently overwrites the queued element (the FUSE ring
    /// transport's depth-1 backpressure mode livelocked on exactly this).
    #[test]
    fn array_queue_capacity_one_rejects_overwrite() {
        let q = ArrayQueue::new(1);
        for lap in 0..100 {
            q.push(lap).unwrap();
            assert_eq!(q.push(usize::MAX), Err(usize::MAX));
            assert!(q.is_full());
            assert_eq!(q.pop(), Some(lap));
            assert_eq!(q.pop(), None);
        }
    }

    #[test]
    fn array_queue_capacity_one_under_contention() {
        let q = Arc::new(ArrayQueue::new(1));
        let producers: Vec<_> = (0..4)
            .map(|p| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    for i in 0..500u64 {
                        let mut v = p * 500 + i;
                        while let Err(back) = q.push(v) {
                            v = back;
                            std::thread::yield_now();
                        }
                    }
                })
            })
            .collect();
        let mut got = Vec::new();
        while got.len() < 2000 {
            match q.pop() {
                Some(v) => got.push(v),
                None => std::thread::yield_now(),
            }
        }
        for p in producers {
            p.join().unwrap();
        }
        got.sort_unstable();
        assert_eq!(got, (0..2000).collect::<Vec<u64>>());
    }

    #[test]
    fn array_queue_wraps_many_laps() {
        let q = ArrayQueue::new(3);
        for i in 0..1000 {
            q.push(i).unwrap();
            assert_eq!(q.pop(), Some(i));
        }
    }

    #[test]
    fn array_queue_drops_remaining_elements() {
        let v = Arc::new(());
        {
            let q = ArrayQueue::new(4);
            q.push(Arc::clone(&v)).unwrap();
            q.push(Arc::clone(&v)).unwrap();
        }
        assert_eq!(Arc::strong_count(&v), 1);
    }

    #[test]
    fn array_queue_mpmc_stress() {
        let q = Arc::new(ArrayQueue::new(8));
        let producers: Vec<_> = (0..4)
            .map(|p| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        let mut v = p * 1000 + i;
                        loop {
                            match q.push(v) {
                                Ok(()) => break,
                                Err(back) => {
                                    v = back;
                                    std::thread::yield_now();
                                }
                            }
                        }
                    }
                })
            })
            .collect();
        let consumers: Vec<_> = (0..4)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while got.len() < 1000 {
                        match q.pop() {
                            Some(v) => got.push(v),
                            None => std::thread::yield_now(),
                        }
                    }
                    got
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        let mut all: Vec<u64> = consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..4000).collect::<Vec<u64>>());
    }
}
