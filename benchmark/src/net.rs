//! `net_pipeline`: one TCP connection to an in-process server, a fixed
//! number of `BATCH` requests kept in flight, then `JOIN`.

use crate::bench::{Bench, Outcome, Sizes, LANE_CAPACITY, STREAM_K};
use crate::service::{equal_work, segment_seeds, Job};
use crate::trace::Tracer;
use crate::util::places;
use crate::util::SplitMix64;
use priosched_core::PoolKind;
use priosched_net::{Server, ServerConfig};
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Jobs per `BATCH` request and requests kept in flight.
pub const WIRE_BATCH: usize = 32;
pub const IN_FLIGHT: usize = 8;
/// How long a `DONE` reply may take before [`Client::join`] kicks.
const JOIN_OVERDUE: Duration = Duration::from_millis(250);
/// Countdown values on the wire are `0..VALUES`.
const VALUES: u32 = 4;

pub fn server_config(kind: PoolKind) -> ServerConfig {
    ServerConfig {
        kind,
        places: places(),
        k: STREAM_K,
        lane_capacity: Some(LANE_CAPACITY),
        ..ServerConfig::default()
    }
}

/// One connection with the client half of the line protocol.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    reply: String,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
            reply: String::new(),
        })
    }

    /// Sends one request line (`line` ends in a newline).
    pub fn send(&mut self, line: &str) -> io::Result<()> {
        self.writer.write_all(line.as_bytes())
    }

    /// The next reply line, without its newline.
    pub fn reply(&mut self) -> io::Result<&str> {
        self.reply.clear();
        if self.reader.read_line(&mut self.reply)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed",
            ));
        }
        Ok(self.reply.trim_end())
    }

    /// One closed-loop request.
    pub fn round_trip(&mut self, line: &str) -> io::Result<&str> {
        self.send(line)?;
        self.reply()
    }

    /// `JOIN`: the count in the `DONE` reply, less the executions of the
    /// jobs this call had to add, and how many jobs it added (kicks).
    ///
    /// The server's `join_async` can miss its wakeup exactly as
    /// `PoolService::join` can (see `service::join_drained`), and a client
    /// cannot see the lanes. So when the reply is overdue, a second
    /// connection submits one job of one execution, whose completion wakes
    /// the join. A kick that was not needed only adds its one execution.
    /// Every kick was preceded by a stall of `JOIN_OVERDUE`.
    pub fn join(&mut self, server: SocketAddr) -> io::Result<Joined> {
        self.join_within(server, JOIN_OVERDUE)
    }

    fn join_within(&mut self, server: SocketAddr, overdue: Duration) -> io::Result<Joined> {
        self.send("JOIN\n")?;
        self.reader.get_ref().set_read_timeout(Some(overdue))?;
        self.reply.clear();
        let mut kicks = 0;
        loop {
            match self.reader.read_line(&mut self.reply) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed",
                    ))
                }
                Ok(_) => break,
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    eprintln!("JOIN reply overdue: waking the server's join with one more job");
                    let mut kicker = Client::connect(server)?;
                    kicker.round_trip(&format!("SUBMIT 0 {STREAM_K} 0\n"))?;
                    kicker.round_trip("QUIT\n")?;
                    kicks += 1;
                }
                Err(e) => return Err(e),
            }
        }
        self.reader.get_ref().set_read_timeout(None)?;
        let reply = self.reply.trim_end();
        reply
            .strip_prefix("DONE ")
            .and_then(|n| n.parse::<u64>().ok())
            .and_then(|done| done.checked_sub(kicks))
            .map(|done| Joined { done, kicks })
            .ok_or_else(|| {
                io::Error::new(io::ErrorKind::InvalidData, format!("JOIN got {reply:?}"))
            })
    }
}

/// The answer to a `JOIN`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Joined {
    /// Executions the server counted, the kicks' own left out.
    pub done: u64,
    /// Jobs [`Client::join`] submitted to wake an overdue join.
    pub kicks: u64,
}

/// What the server told a pipelined client.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PipelineReport {
    /// Jobs acknowledged with `OK <n>`.
    pub accepted: u64,
    /// Jobs in requests answered with anything else.
    pub refused: u64,
    /// The count in the `DONE` reply to the closing `JOIN`.
    pub done: u64,
    /// Kicks the closing `JOIN` needed.
    pub join_kicks: u64,
}

/// Sends `requests` keeping up to `in_flight` unanswered, then `JOIN`s.
/// `jobs_per_request[i]` is what an `OK` to request `i` must acknowledge.
pub fn pipeline(
    client: &mut Client,
    server: SocketAddr,
    requests: &[String],
    jobs_per_request: &[u64],
    in_flight: usize,
    tr: &mut Tracer,
) -> io::Result<PipelineReport> {
    let mut report = PipelineReport::default();
    let mut sent_at: VecDeque<Instant> = VecDeque::with_capacity(in_flight);
    let mut answered = 0usize;
    for (i, line) in requests.iter().enumerate() {
        if i >= in_flight {
            take_reply(
                client,
                jobs_per_request[answered],
                &mut sent_at,
                &mut report,
                tr,
            )?;
            answered += 1;
        }
        sent_at.push_back(Instant::now());
        client.send(line)?;
    }
    while answered < requests.len() {
        take_reply(
            client,
            jobs_per_request[answered],
            &mut sent_at,
            &mut report,
            tr,
        )?;
        answered += 1;
    }
    let joined = tr.span("join", |_| client.join(server))?;
    report.done = joined.done;
    report.join_kicks = joined.kicks;
    Ok(report)
}

fn take_reply(
    client: &mut Client,
    jobs: u64,
    sent_at: &mut VecDeque<Instant>,
    report: &mut PipelineReport,
    tr: &mut Tracer,
) -> io::Result<()> {
    let reply = client.reply()?;
    let ok = reply.strip_prefix("OK ").and_then(|n| n.parse().ok()) == Some(jobs);
    let sent = sent_at.pop_front().expect("a reply answers a sent request");
    tr.record("rtt", sent, Instant::now());
    if ok {
        report.accepted += jobs;
    } else {
        report.refused += jobs;
    }
    Ok(())
}

/// Renders jobs as `BATCH` request lines of `per_request` jobs.
pub fn batch_requests(tape: &[Job], per_request: usize) -> (Vec<String>, Vec<u64>) {
    let mut lines = Vec::new();
    let mut counts = Vec::new();
    for chunk in tape.chunks(per_request) {
        let mut line = format!("BATCH {STREAM_K}");
        for job in chunk {
            let _ = write!(line, " {}:{}", job.prio, job.left);
        }
        line.push('\n');
        lines.push(line);
        counts.push(chunk.len() as u64);
    }
    (lines, counts)
}

/// `jobs` jobs whose countdown values are a seeded shuffle of equally many
/// of each of `0..VALUES`, so that every tape of one length is the same
/// amount of work. On the wire a job's priority is its value, as in the
/// server's own load client.
pub fn balanced_tape(seed: u64, jobs: usize) -> Vec<Job> {
    let mut rng = SplitMix64(seed);
    let mut values: Vec<u32> = (0..jobs as u32).map(|i| i % VALUES).collect();
    for i in (1..values.len()).rev() {
        values.swap(i, rng.below(i as u64 + 1) as usize);
    }
    values
        .into_iter()
        .zip(0u32..)
        .map(|(left, id)| Job {
            prio: left as u64,
            id,
            left,
        })
        .collect()
}

/// One segment of the tape, as jobs and as rendered request lines.
pub struct Segment {
    pub tape: Vec<Job>,
    pub requests: Vec<String>,
    pub jobs_per_request: Vec<u64>,
}

/// Like the service tape, the net tape comes in segments of equal work;
/// rep `r` sends segment `r mod segments`.
pub struct NetBench {
    segments: Vec<Segment>,
    expected_executions: u64,
}

impl NetBench {
    /// Generates the tape, renders it to request lines, runs it through
    /// the sequential oracle, and starts and stops one server per kind.
    pub fn setup(seed: u64, sizes: &Sizes, tr: &mut Tracer) -> Self {
        let segments: Vec<Segment> = tr.span("setup.gen", |_| {
            segment_seeds(seed, sizes.net_segments)
                .into_iter()
                .map(|s| {
                    let tape = balanced_tape(s, sizes.net_jobs);
                    let (requests, jobs_per_request) = batch_requests(&tape, WIRE_BATCH);
                    Segment {
                        tape,
                        requests,
                        jobs_per_request,
                    }
                })
                .collect()
        });
        let expected_executions = tr.span("setup.oracle", |_| {
            equal_work(segments.iter().map(|s| s.tape.as_slice()))
        });
        tr.span("server.start_stop", |_| {
            for kind in PoolKind::ALL {
                let server = Server::bind("127.0.0.1:0", server_config(kind))
                    .expect("loopback bind succeeds");
                assert!(server.shutdown().healthy());
            }
        });
        NetBench {
            segments,
            expected_executions,
        }
    }

    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }
}

impl Bench for NetBench {
    fn items(&self) -> u64 {
        self.expected_executions
    }

    fn run(&self, kind: PoolKind, rep: u32, tr: &mut Tracer) -> Outcome {
        let seg = &self.segments[rep as usize % self.segments.len()];
        let jobs = seg.tape.len() as u64;
        let server = tr.span("server.start", |_| {
            Server::bind("127.0.0.1:0", server_config(kind)).expect("loopback bind succeeds")
        });
        let addr = server.local_addr();
        let mut client = Client::connect(addr).expect("loopback connect succeeds");
        let start = Instant::now();
        let report = tr.span("pipeline", |tr| {
            pipeline(
                &mut client,
                addr,
                &seg.requests,
                &seg.jobs_per_request,
                IN_FLIGHT,
                tr,
            )
        });
        let wall = start.elapsed();
        let _ = client.round_trip("QUIT\n");
        let summary = tr.span("server.shutdown", |_| server.shutdown());
        // A kicked join sat out its deadline before the kick: that wait is
        // the harness's, not the server's.
        let join_kicks = report.as_ref().map_or(0, |r| r.join_kicks);
        let secs = wall
            .saturating_sub(JOIN_OVERDUE * join_kicks as u32)
            .as_secs_f64();
        let failed = match report {
            Ok(r) if summary.healthy() => {
                // Executions the server lost or repeated, in jobs.
                let off = r.done.abs_diff(self.expected_executions);
                (r.refused + off).min(jobs)
            }
            other => {
                eprintln!("net_pipeline on {kind}: {other:?}, server {summary:?}");
                jobs
            }
        };
        Outcome {
            secs,
            attempted: jobs,
            failed,
            join_kicks,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_pipelined_clients_done_equals_the_tape_oracle() {
        let bench = NetBench::setup(6, &Sizes::SMOKE, &mut Tracer::new(false));
        let seg = &bench.segments()[0];
        assert_eq!(seg.requests.len(), 2048 / WIRE_BATCH);
        for kind in PoolKind::ALL {
            let server = Server::bind("127.0.0.1:0", server_config(kind)).unwrap();
            let mut client = Client::connect(server.local_addr()).unwrap();
            let mut tr = Tracer::new(true);
            let report = pipeline(
                &mut client,
                server.local_addr(),
                &seg.requests,
                &seg.jobs_per_request,
                IN_FLIGHT,
                &mut tr,
            )
            .unwrap();
            assert_eq!(report.accepted, 2048, "{kind}");
            assert_eq!(report.refused, 0, "{kind}");
            assert_eq!(report.done, bench.items(), "{kind}");
            // One span per request and one for the join.
            assert_eq!(tr.durations("rtt", 0).len(), seg.requests.len());
            assert_eq!(client.round_trip("QUIT\n").unwrap(), "BYE");
            assert!(server.shutdown().healthy());
        }
    }

    #[test]
    fn an_overdue_join_is_kicked_and_the_kick_discounted() {
        let server = Server::bind("127.0.0.1:0", server_config(PoolKind::Hybrid)).unwrap();
        let addr = server.local_addr();
        let mut client = Client::connect(addr).unwrap();
        // One long countdown keeps the pool busy well past the deadline.
        const VALUE: u64 = 400_000;
        assert_eq!(
            client.round_trip(&format!("SUBMIT 0 8 {VALUE}\n")).unwrap(),
            "OK"
        );
        let joined = client.join_within(addr, Duration::from_millis(5)).unwrap();
        assert_eq!(joined.done, VALUE + 1);
        assert!(joined.kicks >= 1);
        assert_eq!(client.round_trip("QUIT\n").unwrap(), "BYE");
        let summary = server.shutdown();
        assert!(summary.healthy());
        assert!(
            summary.run.executed > VALUE + 1,
            "no kick: the deadline is too long"
        );
    }

    #[test]
    fn tapes_of_one_length_are_equal_work_in_a_seeded_order() {
        let (a, b) = (balanced_tape(3, 4096), balanced_tape(4, 4096));
        assert_eq!(a, balanced_tape(3, 4096));
        assert_ne!(a, b);
        let work = |t: &[Job]| t.iter().map(|j| j.left as u64 + 1).sum::<u64>();
        assert_eq!(work(&a), work(&b));
        assert_eq!(work(&a), 4096 * 10 / 4);
    }

    #[test]
    fn request_lines_parse_back_to_the_tape() {
        let tape = balanced_tape(3, 70);
        let (lines, counts) = batch_requests(&tape, WIRE_BATCH);
        assert_eq!(counts, vec![32, 32, 6]);
        let mut seen = 0;
        for line in &lines {
            match priosched_net::parse_request(line.trim_end()) {
                Ok(priosched_net::Request::Batch { k, jobs }) => {
                    assert_eq!(k, STREAM_K);
                    for (prio, value) in jobs {
                        assert_eq!((prio, value), (tape[seen].prio, tape[seen].left as u64));
                        seen += 1;
                    }
                }
                other => panic!("not a batch: {other:?}"),
            }
        }
        assert_eq!(seen, 70);
    }

    #[test]
    fn the_bench_run_counts_no_failures() {
        let bench = NetBench::setup(7, &Sizes::SMOKE, &mut Tracer::new(false));
        let out = bench.run(PoolKind::Hybrid, 0, &mut Tracer::new(false));
        assert_eq!((out.attempted, out.failed), (2048, 0));
    }
}
