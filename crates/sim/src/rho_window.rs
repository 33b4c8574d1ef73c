//! The phase model's structure as a pool (§5.4).

use priosched_core::stats::PlaceStats;
use priosched_core::{PoolHandle, TaskPool};
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex, MutexGuard};

/// The simulated ρ-relaxed structure of §5.4 as a [`TaskPool`]: one ordered
/// set behind one mutex, shared by every place. A pop returns the least item
/// outside the ρ most recently pushed items still held ("the ρ newest active
/// nodes might be ignored"), except that
///
/// * a pop at place 0 returns the least item — the paper's "global minimum
///   is always visible". `SsspExecutor::run_phases` starts every round at
///   place 0, which pops past dead tasks until it holds a live one, so each
///   phase relaxes the least live node, however the round's pushes and
///   dead pops fell;
/// * when every item is hidden, the pop returns the least.
///
/// So every pop passes over at most ρ better items, and at ρ = 0 the pool is
/// an exact priority queue. Equal priorities pop in task order (node id for
/// an SSSP task), so ties never depend on push order. It is not a
/// `PoolKind`: it models a bound, not a concurrent design, and ignores each
/// push's `k`.
pub struct RhoWindow<T> {
    places: usize,
    rho: usize,
    window: Mutex<Window<T>>,
}

struct Window<T> {
    /// The items held, as (priority, task, push sequence).
    items: BTreeSet<(u64, T, u64)>,
    /// The push sequences of the items held.
    seqs: BTreeSet<u64>,
    next_seq: u64,
}

impl<T> RhoWindow<T> {
    /// An empty window for `places` places that hides the `rho` newest items.
    ///
    /// # Panics
    /// Panics if `places == 0`.
    pub fn new(places: usize, rho: usize) -> Self {
        assert!(places > 0, "need at least one place");
        RhoWindow {
            places,
            rho,
            window: Mutex::new(Window {
                items: BTreeSet::new(),
                seqs: BTreeSet::new(),
                next_seq: 0,
            }),
        }
    }

    fn window(&self) -> MutexGuard<'_, Window<T>> {
        self.window
            .lock()
            .expect("a place panicked while holding the window")
    }
}

impl<T: Ord + Clone> Window<T> {
    fn push(&mut self, prio: u64, task: T) {
        self.items.insert((prio, task, self.next_seq));
        self.seqs.insert(self.next_seq);
        self.next_seq += 1;
    }

    /// Pops the least item outside the ρ newest, or the least if `least`.
    fn pop(&mut self, rho: usize, least: bool) -> Option<(u64, T)> {
        let item = if least || rho == 0 || self.seqs.len() <= rho {
            self.items.first()?
        } else {
            // The oldest hidden item: everything pushed since is hidden too.
            let hidden = *self
                .seqs
                .iter()
                .nth_back(rho - 1)
                .expect("more than ρ items");
            let least_visible = self.items.iter().find(|item| item.2 < hidden);
            least_visible.expect("an item older than the hidden ones")
        };
        let (prio, task, seq) = self.items.take(&item.clone()).expect("held");
        self.seqs.remove(&seq);
        Some((prio, task))
    }
}

impl<T: Ord + Clone + Send + 'static> TaskPool<T> for RhoWindow<T> {
    type Handle = RhoHandle<T>;

    fn num_places(&self) -> usize {
        self.places
    }

    fn handle(self: &Arc<Self>, place: usize) -> RhoHandle<T> {
        assert!(place < self.places, "place {place} out of range");
        RhoHandle {
            pool: Arc::clone(self),
            place,
            stats: PlaceStats::default(),
        }
    }
}

/// One place's view of a [`RhoWindow`]; every place sees the same window.
pub struct RhoHandle<T> {
    pool: Arc<RhoWindow<T>>,
    place: usize,
    stats: PlaceStats,
}

impl<T: Ord + Clone + Send + 'static> PoolHandle<T> for RhoHandle<T> {
    fn push(&mut self, prio: u64, _k: usize, task: T) {
        self.pool.window().push(prio, task);
        self.stats.pushes += 1;
    }

    fn pop_entry(&mut self) -> Option<(u64, T)> {
        let popped = self.pool.window().pop(self.pool.rho, self.place == 0);
        match popped {
            Some(_) => self.stats.pops += 1,
            None => self.stats.failed_pops += 1,
        }
        popped
    }

    fn stats(&self) -> PlaceStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// Seeded push/pop tapes over four places against a shadow of the items
    /// held: no pop passes over more than ρ better items (none at ρ = 0),
    /// every pop at place 0 takes the minimum, and one other place drains
    /// what is left, each item exactly once.
    #[test]
    fn pops_pass_over_at_most_rho_better_items() {
        for rho in [0usize, 1, 4, 32] {
            for seed in 0..20 {
                let pool = Arc::new(RhoWindow::new(4, rho));
                let mut handles: Vec<_> = (0..4).map(|p| pool.handle(p)).collect();
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                let mut shadow: Vec<(u64, u64)> = Vec::new(); // (prio, id)
                for id in 0..400u64 {
                    let place = rng.gen_range(0..4) as usize;
                    if rng.gen_bool(0.55) {
                        let prio = rng.gen_range(0..64);
                        handles[place].push(prio, 0, id);
                        shadow.push((prio, id));
                        continue;
                    }
                    let Some((prio, got)) = handles[place].pop_entry() else {
                        assert!(shadow.is_empty(), "ρ={rho} seed {seed}: spurious empty pop");
                        continue;
                    };
                    let at = shadow
                        .iter()
                        .position(|&(_, i)| i == got)
                        .expect("popped once");
                    assert_eq!(shadow.swap_remove(at).0, prio, "popped at its priority");
                    let better = shadow.iter().filter(|&&(p, _)| p < prio).count();
                    assert!(better <= rho, "ρ={rho} seed {seed}: passed over {better}");
                    if place == 0 {
                        assert_eq!(better, 0, "ρ={rho} seed {seed}: minimum hidden");
                    }
                }
                while let Some(got) = handles[3].pop() {
                    let at = shadow
                        .iter()
                        .position(|&(_, i)| i == got)
                        .expect("popped once");
                    shadow.swap_remove(at);
                }
                assert!(shadow.is_empty(), "ρ={rho} seed {seed}: left {shadow:?}");
            }
        }
    }

    /// Place 0 takes the least item; every other place passes over the ρ
    /// newest, until every item held is hidden.
    #[test]
    fn only_place_zero_sees_past_the_newest_items() {
        let pool = Arc::new(RhoWindow::new(2, 2));
        let (mut h0, mut h1) = (pool.handle(0), pool.handle(1));
        for prio in [5, 6, 7, 1, 2] {
            h0.push(prio, 0, prio);
        }
        assert_eq!(h1.pop(), Some(5), "1 and 2 are the two newest");
        assert_eq!(h0.pop(), Some(1), "place 0: the minimum");
        assert_eq!(h1.pop(), Some(6), "7 and 2 are the two newest");
        assert_eq!(h1.pop(), Some(2), "every item hidden: the least");
        assert_eq!(h1.pop(), Some(7));
        assert_eq!(h1.pop(), None);
    }

    #[test]
    #[should_panic(expected = "place 3 out of range")]
    fn handle_past_the_places_panics() {
        let pool = Arc::new(RhoWindow::<u32>::new(3, 0));
        let _ = pool.handle(3);
    }
}
