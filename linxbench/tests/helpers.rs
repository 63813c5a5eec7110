//! Unit tests of the benchmark's own helpers: the HTTP response reader, the
//! percentile rule, Prometheus scrape deltas, `/proc` CPU times, and the
//! seeded inputs.

use std::io::{self, Read};

use linxbench::client::{read_response, Response};
use linxbench::procfs::{host_ticks, process_ticks};
use linxbench::prom;
use linxbench::stats::{
    mean, median, nearest_rank, summarize, tail_rank, TAIL_BEYOND, TAIL_MAX_PCT,
};
use linxbench::workload::{goal_list, shuffled, Goal, SplitMix64};

/// A reader that hands out its bytes `step` at a time, as a socket may.
struct Trickle {
    bytes: Vec<u8>,
    pos: usize,
    step: usize,
}

impl Read for Trickle {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.step.min(buf.len()).min(self.bytes.len() - self.pos);
        buf[..n].copy_from_slice(&self.bytes[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

fn trickle(text: &str, step: usize) -> Trickle {
    Trickle {
        bytes: text.as_bytes().to_vec(),
        pos: 0,
        step,
    }
}

const TWO: &str = "HTTP/1.1 202 Accepted\r\nContent-Type: application/json\r\nContent-Length: 13\r\nConnection: keep-alive\r\n\r\n{\"job_id\":7}\nHTTP/1.1 200 OK\r\ncontent-length: 2\r\n\r\nok";

#[test]
fn reader_joins_split_reads_and_keeps_the_next_response() {
    for step in [1, 2, 7, 64, 4096] {
        let mut r = trickle(TWO, step);
        let mut buf = Vec::new();
        let first = read_response(&mut r, &mut buf).unwrap();
        assert_eq!(
            first,
            Response {
                status: 202,
                body: b"{\"job_id\":7}\n".to_vec()
            },
            "step {step}"
        );
        let second = read_response(&mut r, &mut buf).unwrap();
        assert_eq!(second.status, 200);
        assert_eq!(second.body, b"ok");
        assert!(buf.is_empty(), "step {step}: {buf:?} left over");
    }
}

#[test]
fn reader_reads_to_eof_without_a_length_and_rejects_truncation() {
    let mut r = trickle("HTTP/1.1 503 Service Unavailable\r\n\r\nbusy", 3);
    let resp = read_response(&mut r, &mut Vec::new()).unwrap();
    assert_eq!((resp.status, resp.body.as_slice()), (503, &b"busy"[..]));

    let mut r = trickle("HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nshort", 4);
    let err = read_response(&mut r, &mut Vec::new()).unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);

    let mut r = trickle("HTTP/1.1 200 OK\r\nContent-Le", 4);
    let err = read_response(&mut r, &mut Vec::new()).unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);

    let mut r = trickle("garbage\r\n\r\n", 4);
    let err = read_response(&mut r, &mut Vec::new()).unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::InvalidData);
}

#[test]
fn nearest_rank_picks_the_ceiling_rank() {
    let sorted: Vec<f64> = (1..=20).map(f64::from).collect();
    assert_eq!(nearest_rank(&sorted, 50.0), Some(10.0));
    assert_eq!(nearest_rank(&sorted, 51.0), Some(11.0));
    assert_eq!(nearest_rank(&sorted, 100.0), Some(20.0));
    assert_eq!(nearest_rank(&sorted, 0.0), Some(1.0));
    assert_eq!(nearest_rank(&[], 50.0), None);
}

#[test]
fn tail_keeps_ten_samples_beyond_it() {
    assert_eq!((TAIL_BEYOND, TAIL_MAX_PCT), (10, 95.0));
    assert_eq!(tail_rank(10, 10), None);
    assert_eq!(tail_rank(11, 10), Some(1));
    // From 200 samples on, the cap at p95 binds before the ten-beyond rule.
    assert_eq!(tail_rank(200, 10), Some(190));
    assert_eq!(tail_rank(1000, 10), Some(950));
    assert_eq!(tail_rank(7500, 10), Some(7125));

    let samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
    let s = summarize(&samples).unwrap();
    assert_eq!((s.n, s.p50, s.tail), (100, 50.0, 90.0));
    assert!((s.tail_pct - 90.0).abs() < 1e-12);
    // Exactly TAIL_BEYOND samples lie above the tail value.
    assert_eq!(samples.iter().filter(|&&v| v > s.tail).count(), 10);

    let s = summarize(&[5.0; 11]).unwrap();
    assert!((s.tail_pct - 100.0 / 11.0).abs() < 1e-12);
    assert!(summarize(&[1.0; 10]).is_none());
}

#[test]
fn mean_and_median_of_nothing_are_zero() {
    assert_eq!(mean(&[]), 0.0);
    assert_eq!(median(&[]), 0.0);
    assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
}

const BEFORE: &str = "# HELP linx_requests_submitted_total Requests.\n# TYPE linx_requests_submitted_total counter\nlinx_requests_submitted_total 4\nlinx_cache_hits_total{tier=\"memory\"} 1\nlinx_cache_hits_total{tier=\"disk\"} 0\nlinx_queue_wait_micros_sum{band=\"normal\"} 100\nlinx_queue_wait_micros_count{band=\"normal\"} 2\nlinx_queue_wait_micros_bucket{band=\"normal\",le=\"+Inf\"} 2\n";
const AFTER: &str = "linx_requests_submitted_total 10\nlinx_cache_hits_total{tier=\"memory\"} 3\nlinx_cache_hits_total{tier=\"disk\"} 2\nlinx_queue_wait_micros_sum{band=\"normal\"} 700\nlinx_queue_wait_micros_count{band=\"normal\"} 4\nlinx_queue_wait_micros_sum{band=\"high\"} 200\nlinx_queue_wait_micros_count{band=\"high\"} 2\nnot a sample line\n";

#[test]
fn scrapes_reduce_to_family_deltas_and_means() {
    let before = prom::parse(BEFORE);
    let after = prom::parse(AFTER);
    assert_eq!(before.len(), 6, "comments skipped: {before:?}");
    assert_eq!(
        prom::series(&before, "linx_cache_hits_total{tier=\"memory\"}"),
        1.0
    );

    let d = prom::delta(&before, &after);
    assert_eq!(prom::total(&d, "linx_requests_submitted_total"), 6.0);
    assert_eq!(
        prom::series(&d, "linx_cache_hits_total{tier=\"memory\"}"),
        2.0
    );
    assert_eq!(prom::total(&d, "linx_cache_hits_total"), 4.0);
    // (600 + 200) micros over (2 + 2) samples, across both bands.
    assert_eq!(prom::mean(&d, "linx_queue_wait_micros"), 200.0);
    // A family that recorded nothing has mean 0, not NaN.
    assert_eq!(prom::mean(&d, "linx_disk_read_micros"), 0.0);
    assert_eq!(prom::series(&d, "absent"), 0.0);
}

#[test]
fn process_cpu_ticks_are_counted_past_the_command_name() {
    // A command name with a space and a closing parenthesis of its own.
    let stat = "4242 (linx (x) serve) S 1 4242 4242 0 -1 4194560 900 0 0 0 \
                1234 56 7 8 20 0 5 0 100 1000000 2000 18446744073709551615";
    assert_eq!(process_ticks(stat), Some(1234 + 56));
    assert_eq!(process_ticks("4242 (linx) S 1 2"), None);
    assert_eq!(process_ticks("no parenthesis at all"), None);
}

#[test]
fn host_ticks_sum_the_cpu_line_and_pick_steal() {
    let stat = "cpu  100 1 20 500 3 0 4 9 40 0\ncpu0 50 0 10 250 1 0 2 5 0 0\nintr 1 2\n";
    assert_eq!(host_ticks(stat), Some((637, 9)));
    assert_eq!(host_ticks("cpu0 1 2 3\n"), None);
    assert_eq!(host_ticks("cpu  1 2 3\n"), None);
}

#[test]
fn splitmix_is_seeded_and_stays_in_range() {
    let draw = |seed| {
        let mut rng = SplitMix64::new(seed);
        (0..2000).map(|_| rng.below(48)).collect::<Vec<_>>()
    };
    let a = draw(3);
    assert_eq!(a, draw(3));
    assert_ne!(a, draw(4));
    assert!(a.iter().all(|&i| i < 48));
    // Every index of the warm-hit set is reachable.
    let mut seen = a.clone();
    seen.sort_unstable();
    seen.dedup();
    assert_eq!(seen.len(), 48);
    let mut rng = SplitMix64::new(11);
    assert!((0..1000).all(|_| (0.0..1.0).contains(&rng.next_f64())));
}

#[test]
fn goal_list_is_fixed_distinct_and_balanced() {
    let a = goal_list(240);
    assert_eq!(a, goal_list(240));
    assert_eq!(a.len(), 240, "later generator seeds top the list up");
    let mut keys: Vec<_> = a.iter().map(|g| (g.dataset, g.text.as_str())).collect();
    keys.sort_unstable();
    keys.dedup();
    assert_eq!(keys.len(), a.len(), "goals are distinct");
    assert_eq!(a[..100], goal_list(100)[..], "a shorter list is a prefix");
    for d in ["netflix", "flights", "playstore"] {
        assert!(
            a.iter().filter(|g| g.dataset == d).count() >= 60,
            "{d} is asked"
        );
    }
}

#[test]
fn shuffles_are_seeded_permutations() {
    let goals = goal_list(120);
    let a = shuffled(&goals, 5);
    assert_eq!(a, shuffled(&goals, 5));
    assert_ne!(a, shuffled(&goals, 6));
    assert_ne!(a, goals);
    let sorted = |g: &[Goal]| {
        let mut keys: Vec<_> = g.iter().map(|g| (g.dataset, g.text.clone())).collect();
        keys.sort_unstable();
        keys
    };
    assert_eq!(sorted(&a), sorted(&goals), "a shuffle asks every goal once");
}
