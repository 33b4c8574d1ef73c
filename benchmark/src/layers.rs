//! Layer probes of the traced run: each times calls into one layer's
//! public functions, or reads the counters a run returns, and nothing else.
//! `README.md` says which end-to-end metric each one should move.

use crate::bench::{Bench, Metrics, Outcome, Sizes, STREAM_K};
use crate::net::{self, Client, NetBench};
use crate::service::{
    countdown_tape, join_drained, start_service, Job, JobExec, ServiceBench, SUBMIT_BATCH,
};
use crate::sssp::SsspBench;
use crate::trace::Tracer;
use crate::util::{median, percentile, places, SplitMix64};
use priosched_core::{
    run_on_kind, IngressLanes, PoolHandle, PoolKind, PoolParams, SpawnCtx, TaskExecutor, TaskPool,
};
use priosched_graph::dijkstra;
use priosched_net::{parse_request, Server};
use priosched_pq::{BinaryHeap, PairingHeap, QuaternaryHeap, SequentialPriorityQueue};
use std::hint::black_box;
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// Kind behind the probes that measure one service or server, not five:
/// the server's own default.
const DEFAULT_KIND: PoolKind = PoolKind::Hybrid;

/// What the probes found, and how many of the operations they checked
/// against an oracle went wrong.
#[derive(Default)]
pub struct Probes {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
}

impl Probes {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.put(name, value, unit);
    }

    fn check(&mut self, out: Outcome) -> Outcome {
        self.attempted += out.attempted;
        self.failed += out.failed;
        out
    }

    fn expect(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            eprintln!("probe check failed: {what}");
            self.failed += 1;
        }
    }
}

pub fn probe_all(seed: u64, sizes: &Sizes, tr: &mut Tracer) -> Probes {
    let mut p = Probes::default();
    tr.set_rep(0);
    tr.span("probe.pq", |_| pq(&mut p, seed, sizes));
    let ops = tr.span("probe.pool", |_| pool(&mut p, seed, sizes));
    tr.span("probe.sssp", |tr| sssp(&mut p, seed, sizes, tr));
    tr.span("probe.sched", |_| sched(&mut p, sizes, &ops));
    tr.span("probe.ingest", |tr| ingest(&mut p, seed, sizes, tr));
    tr.span("probe.service", |_| service(&mut p, sizes));
    tr.span("probe.net", |tr| net(&mut p, seed, sizes, tr));
    p
}

fn ns_per(start: Instant, ops: usize) -> f64 {
    start.elapsed().as_secs_f64() * 1e9 / ops as f64
}

// ---------------------------------------------------------------- pq

fn pq(p: &mut Probes, seed: u64, sizes: &Sizes) {
    let mut rng = SplitMix64(seed);
    let keys: Vec<u64> = (0..(1 << 18) / sizes.probe_div)
        .map(|_| rng.next())
        .collect();
    pq_backend::<BinaryHeap<u64>>(p, "binary", &keys);
    pq_backend::<QuaternaryHeap<u64>>(p, "dary", &keys);
    pq_backend::<PairingHeap<u64>>(p, "pairing", &keys);
}

fn pq_backend<Q: SequentialPriorityQueue<u64>>(p: &mut Probes, backend: &str, keys: &[u64]) {
    let (mut push, mut pop, mut batch) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..3 {
        let mut q = Q::new();
        let t = Instant::now();
        for &k in keys {
            q.push(black_box(k));
        }
        push.push(ns_per(t, keys.len()));
        let t = Instant::now();
        let mut last = 0;
        while let Some(k) = q.pop() {
            p.failed += u64::from(k < last);
            last = k;
        }
        pop.push(ns_per(t, keys.len()));
        let t = Instant::now();
        for chunk in keys.chunks(SUBMIT_BATCH) {
            q.extend_batch(chunk.iter().copied());
        }
        batch.push(ns_per(t, keys.len()));
        p.expect(q.len() == keys.len(), "extend_batch keeps every key");
    }
    p.attempted += 3 * keys.len() as u64;
    p.put(format!("pq.push_ns.{backend}"), median(&push), "ns");
    p.put(format!("pq.pop_ns.{backend}"), median(&pop), "ns");
    p.put(
        format!("pq.extend_batch_ns_per_item.{backend}"),
        median(&batch),
        "ns",
    );
}

// -------------------------------------------------------------- pool

/// Items a pool holds while its operations are timed, and how many
/// operations go into one timed block.
const STEADY_ITEMS: usize = 4096;
const BLOCK: usize = 64;
const POOL_BATCH: usize = 32;
const PRIOS: u64 = 1 << 20;

/// One probe thread's sums, in seconds, and its individually timed pops.
struct ThreadTimes {
    push_s: f64,
    pop_s: f64,
    wall_s: f64,
    batch_s: f64,
    pop_samples_ns: Vec<f64>,
}

struct OpTimes {
    push_ns: f64,
    pop_ns: f64,
    pop_samples_ns: Vec<f64>,
    push_batch_ns_per_item: f64,
    ops_per_s: f64,
}

/// Steady-state cost of the pool's operations with one thread per place,
/// every thread pushing and popping through its own handle.
fn pool_ops(kind: PoolKind, threads: usize, seed: u64, rounds: usize) -> OpTimes {
    let pool = Arc::new(kind.build::<u64>(threads, PoolParams::with_k(STREAM_K)));
    let barrier = Barrier::new(threads);
    let per_thread: Vec<ThreadTimes> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|place| {
                let (pool, barrier) = (&pool, &barrier);
                s.spawn(move || {
                    let mut h = pool.handle(place);
                    let mut rng = SplitMix64(seed ^ place as u64);
                    for _ in 0..STEADY_ITEMS / threads {
                        h.push(rng.below(PRIOS), STREAM_K, 0);
                    }
                    barrier.wait();
                    let (mut push_s, mut pop_s) = (0.0, 0.0);
                    let start = Instant::now();
                    for _ in 0..rounds {
                        let t0 = Instant::now();
                        for _ in 0..BLOCK {
                            h.push(rng.below(PRIOS), STREAM_K, 0);
                        }
                        let t1 = Instant::now();
                        for _ in 0..BLOCK {
                            black_box(h.pop());
                        }
                        push_s += (t1 - t0).as_secs_f64();
                        pop_s += t1.elapsed().as_secs_f64();
                    }
                    let wall_s = start.elapsed().as_secs_f64();
                    let mut batch_s = 0.0;
                    let mut batch = Vec::with_capacity(POOL_BATCH);
                    for _ in 0..rounds {
                        batch.extend((0..POOL_BATCH).map(|_| (rng.below(PRIOS), 0u64)));
                        let t0 = Instant::now();
                        h.push_batch(STREAM_K, &mut batch);
                        batch_s += t0.elapsed().as_secs_f64();
                        for _ in 0..POOL_BATCH {
                            black_box(h.pop());
                        }
                    }
                    let mut samples = Vec::with_capacity(rounds * 8);
                    for _ in 0..rounds * 8 {
                        h.push(rng.below(PRIOS), STREAM_K, 0);
                        let t0 = Instant::now();
                        let got = h.pop();
                        let ns = t0.elapsed().as_secs_f64() * 1e9;
                        if got.is_some() {
                            samples.push(ns);
                        }
                    }
                    barrier.wait();
                    while h.pop().is_some() {}
                    ThreadTimes {
                        push_s,
                        pop_s,
                        wall_s,
                        batch_s,
                        pop_samples_ns: samples,
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("probe thread"))
            .collect()
    });
    let ops = (rounds * BLOCK * threads) as f64;
    let sum = |f: fn(&ThreadTimes) -> f64| per_thread.iter().map(f).sum::<f64>();
    let slowest = per_thread.iter().map(|t| t.wall_s).fold(0.0, f64::max);
    OpTimes {
        push_ns: sum(|t| t.push_s) * 1e9 / ops,
        pop_ns: sum(|t| t.pop_s) * 1e9 / ops,
        push_batch_ns_per_item: sum(|t| t.batch_s) * 1e9 / (rounds * POOL_BATCH * threads) as f64,
        ops_per_s: 2.0 * ops / slowest,
        pop_samples_ns: per_thread
            .into_iter()
            .flat_map(|t| t.pop_samples_ns)
            .collect(),
    }
}

/// Per kind, the push and pop cost the scheduler probe subtracts.
fn pool(p: &mut Probes, seed: u64, sizes: &Sizes) -> Vec<(f64, f64)> {
    let rounds = (2048 / sizes.probe_div).max(8);
    PoolKind::ALL
        .iter()
        .map(|&kind| {
            let id = kind.id();
            let all = pool_ops(kind, places(), seed, rounds);
            let one = pool_ops(kind, 1, seed, rounds);
            p.put(format!("pool.push_ns.{id}"), all.push_ns, "ns");
            p.put(format!("pool.pop_ns.{id}"), all.pop_ns, "ns");
            p.put(
                format!("pool.pop_p99_ns.{id}"),
                percentile(&all.pop_samples_ns, 0.99),
                "ns",
            );
            p.put(
                format!("pool.push_batch_ns_per_item.{id}"),
                all.push_batch_ns_per_item,
                "ns",
            );
            p.put(
                format!("pool.scaling_p1_to_pN.{id}"),
                all.ops_per_s / one.ops_per_s,
                "ratio",
            );
            (all.push_ns, all.pop_ns)
        })
        .collect()
}

// ------------------------------------------- graph, sssp, workloads

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

fn sssp(p: &mut Probes, seed: u64, sizes: &Sizes, tr: &mut Tracer) {
    for (name, tag) in [("sssp_dense", "dense"), ("sssp_sparse", "sparse")] {
        let mark = tr.mark();
        let bench = SsspBench::setup(name, seed, sizes, tr);
        p.put(
            format!("graph.gen_s.{tag}"),
            tr.durations("setup.gen", mark)[0],
            "s",
        );
        p.put(
            format!("graph.oracle_s.{tag}"),
            tr.durations("setup.oracle", mark)[0],
            "s",
        );

        let graph = bench.graph();
        let t = Instant::now();
        let seq = dijkstra(graph, 0);
        let secs = t.elapsed().as_secs_f64();
        p.expect(seq.dist == bench.oracle(), "Dijkstra repeats the oracle");
        p.put(
            format!("sssp.seq_edges_per_s.{tag}"),
            2.0 * graph.num_edges() as f64 / secs,
            "1/s",
        );

        for kind in PoolKind::ALL {
            let id = kind.id();
            let run = bench.run_counted(kind, tr);
            p.check(run.outcome);
            let (stats, pool) = (&run.stats, &run.stats.pool);
            if tag == "dense" {
                p.put(format!("sssp.relaxed.{id}"), run.relaxed as f64, "count");
                p.put(format!("sssp.dead.{id}"), stats.dead as f64, "count");
                let frac = ratio(stats.dead, stats.executed + stats.dead);
                p.put(format!("sched.dead_frac.{id}"), frac, "ratio");
                continue;
            }
            let frac = ratio(pool.failed_pops, pool.pops + pool.failed_pops);
            p.put(format!("pool.failed_pop_frac.{id}"), frac, "ratio");
            let frac = ratio(pool.stale_refs, pool.pops + pool.stale_refs);
            p.put(format!("pool.stale_ref_frac.{id}"), frac, "ratio");
            let busiest = stats.per_place_executed.iter().copied().max().unwrap_or(0);
            let imbalance = ratio(
                busiest * stats.per_place_executed.len() as u64,
                stats.executed,
            );
            p.put(format!("sched.place_imbalance.{id}"), imbalance, "ratio");
            let per_kitem = |count: u64| 1000.0 * ratio(count, pool.pops);
            match kind {
                PoolKind::WorkStealing => {
                    p.put(
                        "pool.steals_per_kitem.work_stealing",
                        per_kitem(pool.steals),
                        "1/kitem",
                    );
                }
                PoolKind::Centralized => {
                    let hits = per_kitem(pool.probe_hits);
                    p.put("pool.probe_hits_per_kitem.centralized", hits, "1/kitem");
                }
                PoolKind::Hybrid => {
                    p.put(
                        "pool.spies_per_kitem.hybrid",
                        per_kitem(pool.spies),
                        "1/kitem",
                    );
                    p.put(
                        "pool.publishes_per_kitem.hybrid",
                        per_kitem(pool.publishes),
                        "1/kitem",
                    );
                }
                PoolKind::Structural => {
                    let per_pass = ratio(pool.combine_ops, pool.combine_passes);
                    p.put("pool.combine_ops_per_pass.structural", per_pass, "count");
                    let parks = per_kitem(pool.combine_parks);
                    p.put("pool.combine_parks_per_kitem.structural", parks, "1/kitem");
                }
                PoolKind::MultiQueue => {}
            }
        }
        let verify_ms = 1e3 * median(&tr.durations("verify", mark));
        p.put(format!("workloads.verify_ms.{tag}"), verify_ms, "ms");
    }
}

// --------------------------------------------------------- scheduler

/// Binary tree of empty tasks: a task of depth `d > 0` spawns two of depth
/// `d - 1`.
struct Tree;

impl TaskExecutor<u32> for Tree {
    fn execute(&self, depth: u32, ctx: &mut SpawnCtx<'_, u32>) {
        if depth > 0 {
            ctx.spawn(depth as u64, STREAM_K, depth - 1);
            ctx.spawn(depth as u64, STREAM_K, depth - 1);
        }
    }
}

fn sched(p: &mut Probes, sizes: &Sizes, ops: &[(f64, f64)]) {
    let depth = if sizes.probe_div > 1 { 11 } else { 18 };
    let tasks = (1u64 << (depth + 1)) - 1;
    for (kind, (push_ns, pop_ns)) in PoolKind::ALL.iter().zip(ops) {
        let t = Instant::now();
        let root = vec![(depth as u64, STREAM_K, depth)];
        let stats = run_on_kind(*kind, places(), PoolParams::with_k(STREAM_K), &Tree, root);
        // Processor time per task, to compare with per-thread op costs.
        let task_ns = t.elapsed().as_secs_f64() * 1e9 * places() as f64 / tasks as f64;
        p.expect(stats.executed == tasks, "every task of the tree ran once");
        let id = kind.id();
        p.put(format!("sched.task_ns.{id}"), task_ns, "ns");
        p.put(
            format!("sched.overhead_ns.{id}"),
            task_ns - push_ns - pop_ns,
            "ns",
        );
    }
}

// ------------------------------------------------------------ ingest

fn ingest(p: &mut Probes, seed: u64, sizes: &Sizes, tr: &mut Tracer) {
    let n = (1 << 18) / sizes.probe_div;
    let lanes = IngressLanes::<u64>::new(places());
    let mut handle = lanes.handle();
    let t = Instant::now();
    let accepted = (0..n as u64)
        .filter(|&i| handle.try_submit(i, STREAM_K, i).is_ok())
        .count();
    p.put("ingest.try_submit_ns", ns_per(t, n), "ns");
    p.expect(
        accepted == n && lanes.queued() == n as u64,
        "free lanes accept everything",
    );
    drop((handle, lanes));

    let lanes = IngressLanes::<u64>::new(places());
    let mut handle = lanes.handle();
    let mut batch = Vec::with_capacity(SUBMIT_BATCH);
    let t = Instant::now();
    for first in (0..n as u64).step_by(SUBMIT_BATCH) {
        batch.extend((first..first + SUBMIT_BATCH as u64).map(|i| (i, i)));
        let _ = handle.submit_batch(STREAM_K, &mut batch);
    }
    let batch_ns_per_item = ns_per(t, n);
    p.put("ingest.submit_batch_ns_per_item", batch_ns_per_item, "ns");
    p.expect(lanes.queued() == n as u64, "free lanes accept every batch");
    drop((handle, lanes));

    // Shedding: one producer try-submits into a running, bounded service
    // and retries whatever comes back `Full`.
    let jobs = (1 << 16) / sizes.probe_div;
    let tape = countdown_tape(seed, jobs);
    let exec = Arc::new(JobExec::new(STREAM_K, jobs));
    let mut svc = start_service(DEFAULT_KIND, Arc::clone(&exec));
    let mut rejects = 0u64;
    for &job in &tape {
        let mut job = job;
        loop {
            match svc.try_submit(job.prio, STREAM_K, job) {
                Ok(()) => break,
                Err(e) if e.is_full() => {
                    rejects += 1;
                    job = e.into_task();
                    std::thread::yield_now();
                }
                Err(e) => panic!("a live service refused a job: {e}"),
            }
        }
    }
    let drained = join_drained(&svc) && svc.shutdown().is_ok();
    p.expect(
        drained && exec.not_exactly_once() == 0,
        "shed jobs are retried, none lost",
    );
    p.put(
        "ingest.full_rejects_per_kitem",
        1000.0 * ratio(rejects, jobs as u64),
        "1/kitem",
    );

    // Backpressure: the part of the producer's feed spent in `submit_batch`
    // calls beyond what they cost on free lanes.
    let free_s = batch_ns_per_item * SUBMIT_BATCH as f64 * 1e-9;
    let expected = jobs as u64 * (crate::service::COUNTDOWN as u64 + 1);
    let bench = ServiceBench::from_segments(vec![tape], expected);
    for kind in PoolKind::ALL {
        let mark = tr.mark();
        p.check(bench.run(kind, 0, tr));
        let blocked: f64 = tr
            .durations("submit_batch", mark)
            .iter()
            .map(|d| (d - free_s).max(0.0))
            .sum();
        let feed = tr.durations("feed", mark)[0];
        p.put(
            format!("ingest.blocked_frac.{}", kind.id()),
            blocked / feed,
            "ratio",
        );
    }
}

// ---------------------------------------------------- service + park

fn service(p: &mut Probes, sizes: &Sizes) {
    let trips = (2048 / sizes.probe_div).max(32);
    let mut idle_iters = 0u64;
    for kind in PoolKind::ALL {
        let exec = Arc::new(JobExec::new(STREAM_K, trips));
        let mut svc = start_service(kind, Arc::clone(&exec));
        let idle_before = svc.idle_iters();
        let mut us = Vec::with_capacity(trips);
        for id in 0..trips as u32 {
            let job = Job {
                prio: id as u64,
                id,
                left: 0,
            };
            let t = Instant::now();
            let ok = svc.submit(job.prio, STREAM_K, job).is_ok() && join_drained(&svc);
            us.push(t.elapsed().as_secs_f64() * 1e6);
            p.failed += u64::from(!ok);
        }
        idle_iters += svc.idle_iters() - idle_before;
        let stopped = svc
            .shutdown()
            .is_ok_and(|stats| stats.executed == trips as u64);
        p.attempted += trips as u64;
        p.expect(
            stopped && exec.not_exactly_once() == 0,
            "every round trip ran its job once",
        );
        p.put(
            format!("service.roundtrip_p50_us.{}", kind.id()),
            percentile(&us, 0.5),
            "us",
        );
        p.put(
            format!("service.roundtrip_p99_us.{}", kind.id()),
            percentile(&us, 0.99),
            "us",
        );
    }
    // Idle-loop iterations of the workers per round trip: park and wake
    // churn between a submission and the next.
    let per_trip = idle_iters as f64 / (trips * PoolKind::ALL.len()) as f64;
    p.put("service.idle_iters", per_trip, "count");

    let ms: Vec<f64> = (0..10)
        .map(|_| {
            let t = Instant::now();
            let svc = start_service(DEFAULT_KIND, Arc::new(JobExec::new(STREAM_K, 0)));
            let ok = svc.shutdown().is_ok();
            p.expect(ok, "an idle service shuts down cleanly");
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    p.put("service.start_stop_ms", median(&ms), "ms");
}

// --------------------------------------------------------------- net

fn rtts_us(client: &mut Client, lines: &[&str], want: &str, p: &mut Probes) -> Vec<f64> {
    lines
        .iter()
        .map(|line| {
            let t = Instant::now();
            let ok = client
                .round_trip(line)
                .is_ok_and(|reply| reply.starts_with(want));
            let us = t.elapsed().as_secs_f64() * 1e6;
            p.attempted += 1;
            p.failed += u64::from(!ok);
            us
        })
        .collect()
}

fn net(p: &mut Probes, seed: u64, sizes: &Sizes, tr: &mut Tracer) {
    let one_segment = Sizes {
        net_jobs: (1 << 16) / sizes.probe_div,
        net_segments: 1,
        ..*sizes
    };
    let bench = NetBench::setup(seed, &one_segment, tr);
    let seg = &bench.segments()[0];

    let t = Instant::now();
    let parsed = seg
        .requests
        .iter()
        .filter(|l| parse_request(l.trim_end()).is_ok())
        .count();
    p.put("net.parse_ns_per_job", ns_per(t, seg.tape.len()), "ns");
    p.expect(parsed == seg.requests.len(), "every request line parses");

    let trips = (2048 / sizes.probe_div).max(32);
    let server = Server::bind("127.0.0.1:0", net::server_config(DEFAULT_KIND))
        .expect("loopback bind succeeds");
    let mut client = Client::connect(server.local_addr()).expect("loopback connect succeeds");
    let submit = format!("SUBMIT 0 {STREAM_K} 0\n");
    let batches: Vec<&str> = seg
        .requests
        .iter()
        .take(trips / 2)
        .map(String::as_str)
        .collect();
    let batch_work: u64 = seg.tape[..batches.len() * net::WIRE_BATCH]
        .iter()
        .map(|j| j.left as u64 + 1)
        .sum();
    for (name, lines, want) in [
        ("ping", vec!["PING\n"; trips], "PONG"),
        ("submit", vec![submit.as_str(); trips], "OK"),
        ("batch", batches, "OK"),
    ] {
        let us = rtts_us(&mut client, &lines, want, p);
        p.put(format!("net.{name}_rtt_p50_us"), percentile(&us, 0.5), "us");
        p.put(
            format!("net.{name}_rtt_p99_us"),
            percentile(&us, 0.99),
            "us",
        );
    }
    let done = client.join(server.local_addr()).ok().map(|j| j.done);
    p.expect(
        done == Some(trips as u64 + batch_work),
        "JOIN counts every execution",
    );
    let _ = client.round_trip("QUIT\n");
    p.expect(
        server.shutdown().healthy(),
        "the probe server shuts down healthy",
    );

    // The same tape over the wire and straight into `submit_batch`.
    let direct = ServiceBench::from_segments(vec![seg.tape.clone()], bench.items());
    let (mut wire_s, mut direct_s) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        wire_s.push(p.check(bench.run(DEFAULT_KIND, 0, tr)).secs);
        direct_s.push(p.check(direct.run(DEFAULT_KIND, 0, tr)).secs);
    }
    p.put(
        "net.overhead_frac",
        1.0 - median(&direct_s) / median(&wire_s),
        "ratio",
    );
}
