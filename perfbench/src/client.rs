//! Open-loop client: one connection, one sending thread (the caller) and
//! one reading thread.  Every request is timed from the instant it was
//! *scheduled* to be sent, so a stall anywhere — server, socket or the
//! generator itself — is charged to every request it delays.

use oa_core::autotune::json::{self, Json};
use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

#[derive(Default)]
struct State {
    /// Responses to requests, by the per-connection id the server
    /// assigns (the order lines were sent in).
    resps: HashMap<u64, (Instant, Json)>,
    /// Replies to admin ops and id-less error lines, in arrival order.
    ops: VecDeque<Json>,
    received: u64,
    eof: bool,
}

type Shared = Arc<(Mutex<State>, Condvar)>;

/// One client connection.
pub struct Conn {
    stream: TcpStream,
    shared: Shared,
    reader: Option<JoinHandle<()>>,
    next_id: u64,
}

fn lock(shared: &Shared) -> std::sync::MutexGuard<'_, State> {
    shared
        .0
        .lock()
        .expect("client state poisoned by a reader panic")
}

impl Conn {
    pub fn connect(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let read_half = stream.try_clone().map_err(|e| e.to_string())?;
        let shared: Shared = Arc::new((Mutex::new(State::default()), Condvar::new()));
        let s2 = shared.clone();
        let reader = std::thread::spawn(move || {
            let mut r = BufReader::new(read_half);
            let mut line = String::new();
            loop {
                line.clear();
                match r.read_line(&mut line) {
                    Ok(0) | Err(_) => break,
                    Ok(_) => {
                        let now = Instant::now();
                        let doc = json::parse(line.trim()).unwrap_or(Json::Null);
                        let mut st = lock(&s2);
                        let id = if doc.get("op").is_some() {
                            None
                        } else {
                            doc.get("id").and_then(Json::as_i64)
                        };
                        match id {
                            Some(id) => {
                                st.resps.insert(id as u64, (now, doc));
                                st.received += 1;
                            }
                            None => st.ops.push_back(doc),
                        }
                        s2.1.notify_all();
                    }
                }
            }
            lock(&s2).eof = true;
            s2.1.notify_all();
        });
        Ok(Conn {
            stream,
            shared,
            reader: Some(reader),
            next_id: 0,
        })
    }

    /// Send one request line; returns the id its response will carry.
    pub fn send(&mut self, line: &str) -> Result<u64, String> {
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        self.stream
            .write_all(&buf)
            .map_err(|e| format!("send: {e}"))?;
        let id = self.next_id;
        self.next_id += 1;
        Ok(id)
    }

    /// Responses received so far on this connection.
    pub fn received(&self) -> u64 {
        lock(&self.shared).received
    }

    /// Send an admin op (`metrics`, `health`) and wait for its reply.
    pub fn op(&mut self, op: &str) -> Result<Json, String> {
        self.stream
            .write_all(format!("{{\"op\":\"{op}\"}}\n").as_bytes())
            .map_err(|e| format!("op {op}: {e}"))?;
        let deadline = Instant::now() + Duration::from_secs(30);
        let mut st = lock(&self.shared);
        loop {
            if let Some(doc) = st.ops.pop_front() {
                return Ok(doc);
            }
            let now = Instant::now();
            if st.eof || now >= deadline {
                return Err(format!("no reply to op {op}"));
            }
            st = self
                .shared
                .1
                .wait_timeout(st, deadline - now)
                .expect("client state poisoned")
                .0;
        }
    }

    /// Wait until every id in `ids` has a response or `deadline` passes.
    pub fn wait_for(&self, ids: &[u64], deadline: Instant) {
        let mut st = lock(&self.shared);
        loop {
            if ids.iter().all(|id| st.resps.contains_key(id)) || st.eof {
                return;
            }
            let now = Instant::now();
            if now >= deadline {
                return;
            }
            st = self
                .shared
                .1
                .wait_timeout(st, deadline - now)
                .expect("client state poisoned")
                .0;
        }
    }

    /// Wait until at least `count` responses have arrived in total, or
    /// `deadline` passes.
    pub fn wait_received(&self, count: u64, deadline: Instant) {
        let mut st = lock(&self.shared);
        while st.received < count && !st.eof {
            let now = Instant::now();
            if now >= deadline {
                return;
            }
            st = self
                .shared
                .1
                .wait_timeout(st, deadline - now)
                .expect("client state poisoned")
                .0;
        }
    }

    /// Remove and return the response to `id`, if it arrived.
    pub fn take(&self, id: u64) -> Option<(Instant, Json)> {
        lock(&self.shared).resps.remove(&id)
    }

    /// Send every line at once and wait for all replies (a closed batch:
    /// warm-up passes and the fusion gate).
    pub fn batch(
        &mut self,
        lines: &[String],
        timeout: Duration,
    ) -> Result<Vec<Option<Json>>, String> {
        let ids = lines
            .iter()
            .map(|l| self.send(l))
            .collect::<Result<Vec<u64>, String>>()?;
        self.wait_for(&ids, Instant::now() + timeout);
        Ok(ids.iter().map(|id| self.take(*id).map(|r| r.1)).collect())
    }

    /// Close the write half and join the reader.
    pub fn close(mut self) {
        let _ = self.stream.shutdown(Shutdown::Both);
        if let Some(h) = self.reader.take() {
            h.join().expect("client reader panicked");
        }
    }
}

impl Drop for Conn {
    fn drop(&mut self) {
        let _ = self.stream.shutdown(Shutdown::Both);
        if let Some(h) = self.reader.take() {
            let _ = h.join();
        }
    }
}

/// One request of an open-loop phase.
#[derive(Clone, Debug)]
pub struct Sample {
    pub sched: Instant,
    pub sent: Instant,
    pub recv: Option<Instant>,
    pub doc: Option<Json>,
}

impl Sample {
    pub fn ok(&self) -> bool {
        self.doc
            .as_ref()
            .and_then(|d| d.get("status"))
            .and_then(Json::as_str)
            == Some("ok")
    }

    /// Client latency from the scheduled send, milliseconds.
    pub fn latency_ms(&self) -> Option<f64> {
        self.recv
            .map(|r| r.duration_since(self.sched).as_secs_f64() * 1e3)
    }

    pub fn late_ms(&self) -> f64 {
        self.sent.duration_since(self.sched).as_secs_f64() * 1e3
    }
}

/// The outcome of one open-loop phase.
#[derive(Clone, Debug)]
pub struct Phase {
    pub rate: f64,
    pub start: Instant,
    pub samples: Vec<Sample>,
    /// The phase stopped sending early because its backlog passed the
    /// abort bound.
    pub aborted: bool,
}

impl Phase {
    pub fn errors(&self) -> usize {
        self.samples
            .iter()
            .filter(|s| s.doc.is_some() && !s.ok())
            .count()
    }

    pub fn timeouts(&self) -> usize {
        self.samples.iter().filter(|s| s.doc.is_none()).count()
    }

    /// Latencies of the requests that got a response (ms, send order).
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.samples.iter().filter_map(Sample::latency_ms).collect()
    }

    /// Seconds from the first scheduled send to the last response.
    pub fn makespan_s(&self) -> f64 {
        self.samples
            .iter()
            .filter_map(|s| s.recv)
            .max()
            .map_or(0.0, |r| r.duration_since(self.start).as_secs_f64())
    }
}

/// Send `lines[i]` at `start + offsets[i]` seconds, never waiting for
/// replies; then wait (up to `timeout` past the last scheduled send) for
/// every reply.  With `abort_backlog`, sending stops once more than
/// that many requests are outstanding.  `before_send(i)` runs just before
/// request `i` is sent (the self-tests use it to stall the generator).
pub fn open_loop(
    conn: &mut Conn,
    lines: &[String],
    offsets: &[f64],
    rate: f64,
    abort_backlog: Option<u64>,
    timeout: Duration,
    before_send: &mut dyn FnMut(usize),
) -> Result<Phase, String> {
    let start = Instant::now() + Duration::from_millis(10);
    let base = conn.received();
    let mut samples = Vec::with_capacity(lines.len());
    let mut ids = Vec::with_capacity(lines.len());
    let mut aborted = false;
    for (i, line) in lines.iter().enumerate() {
        let sched = start + Duration::from_secs_f64(offsets[i]);
        let now = Instant::now();
        if sched > now {
            std::thread::sleep(sched - now);
        }
        if let Some(limit) = abort_backlog {
            if ids.len() as u64 - (conn.received() - base) > limit {
                aborted = true;
                break;
            }
        }
        before_send(i);
        let id = conn.send(line)?;
        samples.push(Sample {
            sched,
            sent: Instant::now(),
            recv: None,
            doc: None,
        });
        ids.push(id);
    }
    let last = samples.last().map_or(start, |s| s.sched);
    conn.wait_for(&ids, last + timeout);
    for (s, id) in samples.iter_mut().zip(&ids) {
        if let Some((recv, doc)) = conn.take(*id) {
            s.recv = Some(recv);
            s.doc = Some(doc);
        }
    }
    Ok(Phase {
        rate,
        start,
        samples,
        aborted,
    })
}

/// Evenly spaced send offsets (seconds) at `rate` per second.
pub fn fixed_offsets(count: usize, rate: f64) -> Vec<f64> {
    (0..count).map(|i| i as f64 / rate).collect()
}

/// Poisson arrivals: exponential gaps with mean `1 / rate`, seeded.
pub fn poisson_offsets(count: usize, rate: f64, rng: &mut crate::traffic::Rng) -> Vec<f64> {
    let mut t = 0.0;
    (0..count)
        .map(|_| {
            let at = t;
            let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            t += -(1.0 - u).ln() / rate;
            at
        })
        .collect()
}

/// Closed loop: keep `window` requests in flight until every line has
/// been sent, then wait for the rest (each request is timed from its
/// own send).
pub fn closed_window(
    conn: &mut Conn,
    lines: &[String],
    window: u64,
    timeout: Duration,
) -> Result<Phase, String> {
    let start = Instant::now();
    let base = conn.received();
    let mut samples = Vec::with_capacity(lines.len());
    let mut ids = Vec::with_capacity(lines.len());
    for (i, line) in lines.iter().enumerate() {
        if i as u64 >= window {
            conn.wait_received(base + i as u64 + 1 - window, Instant::now() + timeout);
        }
        let now = Instant::now();
        ids.push(conn.send(line)?);
        samples.push(Sample {
            sched: now,
            sent: now,
            recv: None,
            doc: None,
        });
    }
    conn.wait_for(&ids, Instant::now() + timeout);
    for (s, id) in samples.iter_mut().zip(&ids) {
        if let Some((recv, doc)) = conn.take(*id) {
            s.recv = Some(recv);
            s.doc = Some(doc);
        }
    }
    Ok(Phase {
        rate: 0.0,
        start,
        samples,
        aborted: false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A stand-in server: answers each request line immediately with
    /// `{"id":k,"status":...}`, where `status(k)` picks ok or error and
    /// `None` drops the reply.
    fn fake_server(status: fn(u64) -> Option<&'static str>) -> (String, JoinHandle<()>) {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = l.local_addr().unwrap().to_string();
        let h = std::thread::spawn(move || {
            let (s, _) = l.accept().unwrap();
            let mut w = s.try_clone().unwrap();
            let mut r = BufReader::new(s);
            let mut line = String::new();
            let mut id = 0u64;
            while r.read_line(&mut line).map(|n| n > 0).unwrap_or(false) {
                if line.contains("\"op\"") {
                    let _ = w.write_all(b"{\"op\":\"metrics\",\"status\":\"ok\"}\n");
                } else {
                    if let Some(st) = status(id) {
                        let reply = format!("{{\"id\":{id},\"status\":\"{st}\"}}\n");
                        let _ = w.write_all(reply.as_bytes());
                    }
                    id += 1;
                }
                line.clear();
            }
        });
        (addr, h)
    }

    #[test]
    fn latency_is_timed_from_the_scheduled_send() {
        let (addr, h) = fake_server(|_| Some("ok"));
        let mut c = Conn::connect(&addr).unwrap();
        let lines: Vec<String> = (0..20).map(|i| format!("{{\"n\":{i}}}")).collect();
        // Stall the generator 150 ms before request 5: requests 5.. are
        // sent late, and their latency must include that lateness even
        // though the server answers instantly.
        let mut stall = |i: usize| {
            if i == 5 {
                std::thread::sleep(Duration::from_millis(150));
            }
        };
        let offs = fixed_offsets(lines.len(), 200.0);
        let p = open_loop(
            &mut c,
            &lines,
            &offs,
            200.0,
            None,
            Duration::from_secs(5),
            &mut stall,
        )
        .unwrap();
        assert_eq!(p.timeouts(), 0);
        let lat = p.latencies_ms();
        assert!(lat[0] < 50.0, "unstalled request took {} ms", lat[0]);
        assert!(lat[5] >= 150.0, "stall not charged: {} ms", lat[5]);
        assert!(p.samples[5].late_ms() >= 150.0);
        // Request 10 was due 25 ms after request 5 and still waited.
        assert!(lat[10] >= 100.0, "{}", lat[10]);
        c.close();
        h.join().unwrap();
    }

    #[test]
    fn errors_and_missing_replies_are_counted() {
        let (addr, h) = fake_server(|id| match id % 5 {
            0 => Some("error"),
            4 => None,
            _ => Some("ok"),
        });
        let mut c = Conn::connect(&addr).unwrap();
        let lines: Vec<String> = (0..10).map(|i| format!("{{\"n\":{i}}}")).collect();
        let offs = fixed_offsets(lines.len(), 500.0);
        let p = open_loop(
            &mut c,
            &lines,
            &offs,
            500.0,
            None,
            Duration::from_millis(300),
            &mut |_| {},
        )
        .unwrap();
        assert_eq!(p.errors(), 2);
        assert_eq!(p.timeouts(), 2);
        assert_eq!(p.samples.iter().filter(|s| s.ok()).count(), 6);
        assert!(c.op("metrics").is_ok());
        c.close();
        h.join().unwrap();
    }
}
