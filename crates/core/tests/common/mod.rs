//! Test-side models shared by the pool test suites: the shadow multiset the
//! pool contract replays tapes against, and the threaded exactly-once
//! driver.

// Each suite uses a different part of this module.
#![allow(dead_code)]

use priosched_core::{PoolHandle, TaskPool};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

/// One push as the shadow recorded it. Its payload is its index in the
/// shadow's push history, so it is also its global push sequence number.
#[derive(Clone, Copy, Debug)]
pub struct Pushed {
    pub prio: u64,
    pub k: usize,
    pub place: usize,
    /// How many pushes `place` had made before this one.
    pub place_seq: u64,
}

/// The multiset of pushed, not yet popped tasks of a single-threaded tape.
/// It hands out the payloads, so every pop can be traced to its push.
pub struct Shadow {
    pushed: Vec<Pushed>,
    /// `(prio, payload)` of every task not yet popped.
    live: BTreeSet<(u64, u64)>,
    place_pushes: Vec<u64>,
}

impl Shadow {
    pub fn new(places: usize) -> Self {
        Shadow {
            pushed: Vec::new(),
            live: BTreeSet::new(),
            place_pushes: vec![0; places],
        }
    }

    /// Records a push and returns the payload to push with it.
    pub fn push(&mut self, place: usize, prio: u64, k: usize) -> u64 {
        let payload = self.pushed.len() as u64;
        let place_seq = self.place_pushes[place];
        self.place_pushes[place] += 1;
        self.pushed.push(Pushed {
            prio,
            k,
            place,
            place_seq,
        });
        self.live.insert((prio, payload));
        payload
    }

    /// Removes a popped task and returns the live tasks with a strictly
    /// better priority it was popped over (its rank is their count). Errs
    /// if `payload` was never pushed, was popped already, or comes back
    /// with another priority than it was pushed at.
    pub fn pop(&mut self, prio: u64, payload: u64) -> Result<Vec<(u64, Pushed)>, String> {
        let Some(pushed) = self.pushed.get(payload as usize) else {
            return Err(format!("payload {payload} was never pushed"));
        };
        if pushed.prio != prio {
            return Err(format!(
                "payload {payload} pushed at priority {} came back at {prio}",
                pushed.prio
            ));
        }
        if !self.live.remove(&(prio, payload)) {
            return Err(format!("payload {payload} popped twice"));
        }
        let better = self.live.range(..(prio, 0));
        Ok(better.map(|&(_, p)| (p, self.pushed[p as usize])).collect())
    }

    /// Pushes made after `payload`, over all places.
    pub fn pushes_after(&self, payload: u64) -> u64 {
        self.pushed.len() as u64 - 1 - payload
    }

    /// Pushes made after `payload` by the place that pushed it.
    pub fn place_pushes_after(&self, pushed: &Pushed) -> u64 {
        self.place_pushes[pushed.place] - 1 - pushed.place_seq
    }

    pub fn live(&self) -> usize {
        self.live.len()
    }
}

/// Drives one concurrent worker per place over `pool`, each pushing `per`
/// uniquely-payloaded tasks at pseudo-random priorities with bound `k`,
/// scalar and batched, while popping, until everything pushed has been
/// popped exactly once. Panics (inside a worker) on any duplicated pop, and
/// afterwards on any task not taken exactly once.
pub fn concurrent_exactly_once<P: TaskPool<u64>>(pool: Arc<P>, k: usize, per: u64) {
    let places = pool.num_places();
    let total = places as u64 * per;
    let taken: Arc<Vec<AtomicU32>> = Arc::new((0..total).map(|_| 0.into()).collect());
    let popped = Arc::new(AtomicU64::new(0));
    std::thread::scope(|s| {
        for t in 0..places {
            let pool = Arc::clone(&pool);
            let taken = Arc::clone(&taken);
            let popped = Arc::clone(&popped);
            s.spawn(move || {
                let mut h = pool.handle(t);
                let mut pushed = 0u64;
                let mut batch: Vec<(u64, u64)> = Vec::new();
                let mut step = 0u64;
                loop {
                    step = step.wrapping_add(0x9E37_79B9_7F4A_7C15);
                    if pushed < per && !step.is_multiple_of(3) {
                        let payload = t as u64 * per + pushed;
                        let prio = step >> 32;
                        if step.is_multiple_of(5) {
                            batch.push((prio, payload));
                            if batch.len() >= 8 {
                                h.push_batch(k, &mut batch);
                            }
                        } else {
                            h.push(prio, k, payload);
                        }
                        pushed += 1;
                    } else if let Some(got) = h.pop() {
                        let prev = taken[got as usize].fetch_add(1, Ordering::Relaxed);
                        assert_eq!(prev, 0, "task {got} popped twice");
                        popped.fetch_add(1, Ordering::Relaxed);
                    } else if pushed == per {
                        if !batch.is_empty() {
                            h.push_batch(k, &mut batch);
                            continue;
                        }
                        if popped.load(Ordering::Relaxed) == total {
                            break;
                        }
                        std::thread::yield_now();
                    }
                }
            });
        }
    });
    assert_eq!(popped.load(Ordering::Relaxed), total, "tasks lost");
    for (i, flag) in taken.iter().enumerate() {
        assert_eq!(flag.load(Ordering::Relaxed), 1, "task {i} not exactly-once");
    }
}
