//! Driving the daemon: one exploration exchange and the closed loop, which
//! validates every result it receives.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use linxbench::client::{Conn, Response};
use linxbench::workload::Goal;
use serde_json::{json, Value};

/// Longest a status long-poll parks on the server (its own cap is 30 s).
const LONG_POLL_MS: u64 = 30_000;

/// One exploration's outcome as the client saw it.
#[derive(Debug, Clone)]
pub struct Record {
    /// The goal asked.
    pub goal: Goal,
    /// Milliseconds from the request's start to the last byte of the result
    /// body.
    pub latency_ms: f64,
    /// What the workload expects `served_from_cache` to be.
    pub expect_cached: bool,
    /// The validated result, or why the exchange failed.
    pub outcome: Result<Answer, String>,
}

/// The parts of a validated `GET /v1/jobs/{id}/result` body the benchmark uses.
#[derive(Debug, Clone, PartialEq)]
pub struct Answer {
    /// `served_from_cache` as reported.
    pub cached: bool,
    /// The server's own `total_micros` for the request, in milliseconds.
    pub server_ms: f64,
    /// `best_score` as printed on the wire (four decimals).
    pub score: f64,
    /// `best_structural`.
    pub structural: bool,
    /// The canonical LDX text.
    pub ldx: String,
    /// The code line of every notebook cell, in order.
    pub cells: Vec<String>,
}

impl Record {
    /// Whether the exchange succeeded and matched the expected cache outcome.
    pub fn ok(&self) -> bool {
        matches!(&self.outcome, Ok(a) if a.cached == self.expect_cached)
    }

    /// A one-line description of what went wrong, if anything.
    pub fn problem(&self) -> Option<String> {
        match &self.outcome {
            Err(e) => Some(format!("{} [{}]: {e}", self.goal.text, self.goal.dataset)),
            Ok(a) if a.cached != self.expect_cached => Some(format!(
                "{} [{}]: served_from_cache={} but the workload expects {}",
                self.goal.text, self.goal.dataset, a.cached, self.expect_cached
            )),
            Ok(_) => None,
        }
    }
}

fn submit_body(goal: &Goal) -> String {
    let body = json!({"dataset": goal.dataset, "goal": goal.text.as_str()});
    serde_json::to_string(&body).expect("a JSON object always serializes")
}

fn expect_status(resp: &Response, status: u16, what: &str) -> Result<Value, String> {
    if resp.status != status {
        return Err(format!(
            "{what}: status {} (expected {status}): {}",
            resp.status,
            resp.text()
        ));
    }
    resp.json()
}

/// Submit a goal: returns the job id and whether it is already done (a cache
/// hit resolves inside submit).
fn submit(conn: &mut Conn, goal: &Goal) -> Result<(u64, bool), String> {
    let resp = conn
        .request("POST", "/v1/explore", Some(&submit_body(goal)), false)
        .map_err(|e| format!("submit: {e}"))?;
    let v = expect_status(&resp, 202, "submit")?;
    let id = v
        .get("job_id")
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("submit: no job_id in {}", resp.text()))?;
    Ok((id, v.get("status").and_then(Value::as_str) == Some("done")))
}

/// The job's status with a server-side long-poll of `wait_ms`: `Ok(true)`
/// once done, `Ok(false)` while pending, `Err` on failure.
fn poll(conn: &mut Conn, id: u64, wait_ms: u64) -> Result<bool, String> {
    let resp = conn
        .request(
            "GET",
            &format!("/v1/jobs/{id}?wait_ms={wait_ms}"),
            None,
            false,
        )
        .map_err(|e| format!("poll: {e}"))?;
    let v = expect_status(&resp, 200, "poll")?;
    match v.get("status").and_then(Value::as_str) {
        Some("done") => Ok(true),
        Some("pending") => Ok(false),
        _ => Err(format!("job {id} did not finish: {}", resp.text())),
    }
}

/// Fetch and validate the result: 200, an LDX text that parses, at least one
/// notebook cell.
fn fetch(conn: &mut Conn, id: u64) -> Result<Answer, String> {
    let resp = conn
        .request("GET", &format!("/v1/jobs/{id}/result"), None, true)
        .map_err(|e| format!("result: {e}"))?;
    let v = expect_status(&resp, 200, "result")?;
    let result = v.get("result").ok_or("result: no result object")?;
    let ldx = result
        .get("ldx")
        .and_then(Value::as_str)
        .ok_or("result: no ldx")?
        .to_string();
    linx_ldx::parse_ldx(&ldx).map_err(|e| format!("result: ldx does not parse ({e}): {ldx}"))?;
    let cells: Vec<String> = result
        .get("notebook")
        .and_then(|n| n.get("cells"))
        .and_then(Value::as_array)
        .ok_or("result: no notebook cells")?
        .iter()
        .map(|c| {
            c.get("code")
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_string()
        })
        .collect();
    if cells.is_empty() {
        return Err("result: the notebook has no cells".to_string());
    }
    Ok(Answer {
        cached: v
            .get("served_from_cache")
            .and_then(Value::as_bool)
            .ok_or("result: no served_from_cache")?,
        server_ms: v
            .get("total_micros")
            .and_then(Value::as_u64)
            .ok_or("result: no total_micros")? as f64
            / 1000.0,
        score: result
            .get("best_score")
            .and_then(Value::as_f64)
            .ok_or("result: no best_score")?,
        structural: result
            .get("best_structural")
            .and_then(Value::as_bool)
            .ok_or("result: no best_structural")?,
        ldx,
        cells,
    })
}

/// One full exchange on its own connection: submit, long-poll to done,
/// fetch the result, close.
pub fn explore(addr: SocketAddr, goal: &Goal) -> Result<Answer, String> {
    let mut conn = Conn::open(addr).map_err(|e| format!("connect: {e}"))?;
    let (id, mut done) = submit(&mut conn, goal)?;
    for _ in 0..4 {
        if done {
            break;
        }
        done = poll(&mut conn, id, LONG_POLL_MS)?;
    }
    if !done {
        return Err(format!("job {id} still pending after 120 s"));
    }
    fetch(&mut conn, id)
}

/// A closed loop: `clients` threads, each asking its next goal only after the
/// previous answer arrived. `next` hands out goal indices and returns `None`
/// to stop; the loop also stops once `budget` has elapsed. Returns records in
/// completion order.
pub fn closed_loop(
    addr: SocketAddr,
    clients: usize,
    goals: &[Goal],
    budget: Option<Duration>,
    next: &(dyn Fn(usize, usize) -> Option<usize> + Sync),
    expect_cached: bool,
) -> Vec<Record> {
    let records = Mutex::new(Vec::new());
    let start = Instant::now();
    std::thread::scope(|s| {
        for client in 0..clients {
            let records = &records;
            s.spawn(move || {
                let mut turn = 0;
                while budget.is_none_or(|b| start.elapsed() < b) {
                    let Some(idx) = next(client, turn) else { break };
                    turn += 1;
                    let goal = &goals[idx];
                    let began = Instant::now();
                    let outcome = explore(addr, goal);
                    let record = Record {
                        goal: goal.clone(),
                        latency_ms: began.elapsed().as_secs_f64() * 1000.0,
                        expect_cached,
                        outcome,
                    };
                    records.lock().expect("records lock").push(record);
                }
            });
        }
    });
    records.into_inner().expect("records lock")
}

/// Hands out `0..n` once each across all clients.
pub fn each_once(n: usize) -> impl Fn(usize, usize) -> Option<usize> + Sync {
    let cursor = AtomicUsize::new(0);
    move |_, _| {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        (i < n).then_some(i)
    }
}
