//! The ρ-relaxation knob, observed directly (§2.2).
//!
//! One producer place pushes tasks with random priorities while a consumer
//! place pops. For each pop we measure the *rank error*: how many live
//! tasks had strictly better priority than the one returned. The paper's
//! guarantee says those ignored tasks can only be recent — at most k of
//! them for the centralized structure, P·k for the hybrid — so mean rank
//! error should grow with k and stay near zero for k = 1.
//!
//! Run with: `cargo run --release --example k_tradeoff`

use priosched::core::{PoolBuilder, PoolHandle, PoolKind, TaskPool};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Deterministic xorshift for the workload.
struct Rng(u64);
impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// Drives one structure with an interleaved push/pop schedule and returns
/// (mean rank error, max rank error) over all consumer pops.
fn measure<P: TaskPool<u64>>(pool: Arc<P>, k: usize, ops: usize) -> (f64, u64) {
    let mut producer = pool.handle(0);
    let mut consumer = pool.handle(1);
    let mut rng = Rng(0xDECAF + k as u64);
    // Live multiset: priority -> count.
    let mut live: BTreeMap<u64, usize> = BTreeMap::new();
    let mut total_err = 0u64;
    let mut max_err = 0u64;
    let mut pops = 0u64;
    let mut pushed = 0usize;
    while pops < ops as u64 {
        let want_push = pushed < ops && (!rng.next().is_multiple_of(3) || live.is_empty());
        if want_push {
            let prio = rng.next() % 100_000;
            producer.push(prio, k, prio);
            *live.entry(prio).or_insert(0) += 1;
            pushed += 1;
        } else if let Some(got) = consumer.pop() {
            // Rank error: live tasks strictly better than `got`.
            let better: usize = live.range(..got).map(|(_, c)| *c).sum();
            total_err += better as u64;
            max_err = max_err.max(better as u64);
            pops += 1;
            let cnt = live.get_mut(&got).expect("popped task must be live");
            *cnt -= 1;
            if *cnt == 0 {
                live.remove(&got);
            }
        } else if pushed >= ops {
            break; // consumer saw everything it will ever see
        }
    }
    (total_err as f64 / pops.max(1) as f64, max_err)
}

fn main() {
    let ops = 20_000;
    println!("rank error of pops vs k (producer/consumer, {ops} tasks)\n");
    println!(
        "{:>8} | {:>24} | {:>24}",
        "k", "Centralized (mean/max)", "Hybrid (mean/max)"
    );
    println!("{:->8}-+-{:->24}-+-{:->24}", "", "", "");
    for k in [1usize, 4, 16, 64, 256, 1024] {
        let centralized = PoolBuilder::new(PoolKind::Centralized)
            .places(2)
            .k(k)
            .build::<u64>();
        let (c_mean, c_max) = measure(centralized, k, ops);
        let hybrid = PoolBuilder::new(PoolKind::Hybrid)
            .places(2)
            .k(k)
            .build::<u64>();
        let (h_mean, h_max) = measure(hybrid, k, ops);
        println!(
            "{k:>8} | {:>15.2} / {:>5} | {:>15.2} / {:>5}",
            c_mean, c_max, h_mean, h_max
        );
    }
    println!();
    println!(
        "{} bounds ignored tasks by k; {} by P·k — both grow with k,",
        PoolKind::Centralized,
        PoolKind::Hybrid
    );
    println!("which is the scalability/quality dial the paper proposes.");
}
