//! `wire_serve`: a closed loop over keep-alive loopback connections, one
//! client thread per connection, each sending its next request only after
//! the previous response has been read in full. Latency runs from the
//! first byte sent to the last response byte read.

use crate::ledger::{classify_response, Ledger};
use crate::spans::Tracer;
use crate::stats;
use cpr_obs::MetricsRegistry;
use cpr_registry::{ModelId, ModelRegistry};
use cpr_server::http::{self, Limits, Response};
use cpr_server::{Admission, AdmissionConfig, Admit};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// One precomputed request: wire bytes plus the body the server must
/// answer with (formatted exactly as the server formats predictions).
pub struct WireReq {
    pub bytes: Vec<u8>,
    pub head_len: usize,
    pub expected: Vec<u8>,
    pub queries: Vec<(ModelId, Vec<f64>)>,
    pub preds: Vec<f64>,
}

impl WireReq {
    pub fn new(id: &ModelId, queries: Vec<(ModelId, Vec<f64>)>, preds: &[f64]) -> Self {
        let mut body = String::new();
        for (_, x) in &queries {
            let line: Vec<String> = x.iter().map(|v| format!("{v}")).collect();
            body.push_str(&line.join(" "));
            body.push('\n');
        }
        let head = format!(
            "POST /predict/{}/{}/{} HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
            id.app(),
            id.machine(),
            id.metric(),
            body.len()
        );
        let mut bytes = head.clone().into_bytes();
        bytes.extend_from_slice(body.as_bytes());
        Self {
            bytes,
            head_len: head.len(),
            expected: render_predictions(preds).into_bytes(),
            queries,
            preds: preds.to_vec(),
        }
    }
}

/// Predictions formatted as the server formats a 200 body.
fn render_predictions(preds: &[f64]) -> String {
    let mut out = String::with_capacity(preds.len() * 24);
    for y in preds {
        out.push_str(&format!("{y}\n"));
    }
    out
}

/// A keep-alive client connection that reconnects when the server closes.
pub struct Client {
    addr: SocketAddr,
    stream: TcpStream,
    buf: Vec<u8>,
    pub reconnects: u64,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        Ok(Self {
            addr,
            stream: open(addr)?,
            buf: Vec::with_capacity(1 << 16),
            reconnects: 0,
        })
    }

    fn reconnect(&mut self) -> std::io::Result<()> {
        self.stream = open(self.addr)?;
        self.buf.clear();
        self.reconnects += 1;
        Ok(())
    }

    /// Send `req` and read its response: (status, body == expected). A
    /// `connection: close` answer reopens the connection afterwards.
    pub fn roundtrip(&mut self, req: &WireReq) -> std::io::Result<(u16, bool)> {
        self.stream.write_all(&req.bytes)?;
        let head_end = loop {
            if let Some(p) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break p;
            }
            self.fill()?;
        };
        let (status, len, close) = parse_response_head(&self.buf[..head_end])?;
        let body_start = head_end + 4;
        while self.buf.len() < body_start + len {
            self.fill()?;
        }
        let ok = self.buf[body_start..body_start + len] == req.expected[..];
        self.buf.drain(..body_start + len);
        if close {
            self.reconnect()?;
        }
        Ok((status, ok))
    }

    fn fill(&mut self) -> std::io::Result<()> {
        let mut chunk = [0u8; 8192];
        let n = self.stream.read(&mut chunk)?;
        if n == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }
}

fn open(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let s = TcpStream::connect(addr)?;
    s.set_nodelay(true)?;
    s.set_read_timeout(Some(Duration::from_secs(10)))?;
    Ok(s)
}

/// (status, content-length, connection: close) from a response head.
fn parse_response_head(head: &[u8]) -> std::io::Result<(u16, usize, bool)> {
    let bad = || std::io::Error::new(std::io::ErrorKind::InvalidData, "bad response head");
    let text = std::str::from_utf8(head).map_err(|_| bad())?;
    let mut lines = text.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(bad)?;
    let (mut len, mut close) = (0, false);
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                len = value.parse().map_err(|_| bad())?;
            } else if name.eq_ignore_ascii_case("connection") {
                close = value.eq_ignore_ascii_case("close");
            }
        }
    }
    Ok((status, len, close))
}

/// What one closed-loop run measured.
pub struct WireRun {
    pub lat_us: Vec<f64>,
    pub ledger: Ledger,
    pub wall_s: f64,
    pub reconnects: u64,
}

impl WireRun {
    fn merge(&mut self, other: WireRun) {
        self.lat_us.extend(other.lat_us);
        self.ledger.merge(&other.ledger);
        self.wall_s = self.wall_s.max(other.wall_s);
        self.reconnects += other.reconnects;
    }
}

/// Drive every pool over its own connection until `budget` elapses.
/// `cursor` carries each connection's position in its pool across calls.
/// Every request is timed on `tracer`'s clock; with `tracer` enabled,
/// every 8th also gets a `wire.request` span.
pub fn closed_loop(
    addr: SocketAddr,
    pools: &[Vec<WireReq>],
    cursor: &mut [usize],
    budget: Duration,
    tracer: &mut Tracer,
    req_base: u64,
) -> WireRun {
    let barrier = Barrier::new(pools.len());
    let epoch_tracers: Vec<Tracer> = pools
        .iter()
        .map(|_| Tracer::new(tracer.enabled(), tracer.epoch()))
        .collect();
    let results: Vec<(WireRun, Tracer, usize)> = std::thread::scope(|s| {
        let handles: Vec<_> = pools
            .iter()
            .zip(cursor.iter())
            .zip(epoch_tracers)
            .enumerate()
            .map(|(c, ((pool, &start), mut tr))| {
                let barrier = &barrier;
                s.spawn(move || {
                    let mut run = WireRun {
                        lat_us: Vec::with_capacity(1 << 18),
                        ledger: Ledger::default(),
                        wall_s: 0.0,
                        reconnects: 0,
                    };
                    let mut client = Client::connect(addr).expect("connect to loopback server");
                    barrier.wait();
                    let t0 = tr.now();
                    let deadline = t0 + budget.as_nanos() as u64;
                    let mut k = start;
                    loop {
                        let req = &pool[k % pool.len()];
                        let t = tr.now();
                        let res = client.roundtrip(req);
                        let done = tr.now();
                        if k % 8 == 0 {
                            let id = req_base + ((c as u64) << 40) + k as u64;
                            tr.record("wire.request", id, t, done);
                        }
                        k += 1;
                        match res {
                            Ok((status, ok)) => match classify_response(status, ok) {
                                Ok(()) => {
                                    run.ledger.ok();
                                    run.lat_us.push((done - t) as f64 * 1e-3);
                                }
                                Err(cause) => run.ledger.fail(cause),
                            },
                            Err(_) => {
                                run.ledger.fail("disconnect");
                                client.reconnect().expect("reconnect to loopback server");
                            }
                        }
                        if done >= deadline {
                            break;
                        }
                    }
                    run.wall_s = (tr.now() - t0) as f64 * 1e-9;
                    run.reconnects = client.reconnects;
                    (run, tr, k)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("wire client thread"))
            .collect()
    });
    let mut total = WireRun {
        lat_us: Vec::new(),
        ledger: Ledger::default(),
        wall_s: 0.0,
        reconnects: 0,
    };
    for (c, (run, tr, k)) in results.into_iter().enumerate() {
        total.merge(run);
        tracer.adopt(tr);
        cursor[c] = k;
    }
    total
}

/// An in-program histogram's (count, sum) right now.
pub fn hist_read(obs: &MetricsRegistry, name: &str) -> (u64, u64) {
    obs.histogram_snapshot(name)
        .map(|h| (h.count(), h.sum))
        .unwrap_or((0, 0))
}

/// Mean µs per request of the server's in-program layers, replayed on
/// each pool's request bytes: parse (head, content-length, body), render
/// (prediction formatting + response bytes), uncontended admission, and
/// the deadline-aware registry serve. Each layer's replay runs inside one
/// span over all its calls (a per-call span would add two clock reads to
/// calls as short as an admission), and the figures are read from the
/// spans. Replays must reproduce the
/// served bytes; the count of mismatches is returned alongside.
pub struct LayerProbe {
    pub parse_us: f64,
    pub render_us: f64,
    pub admit_us: f64,
    pub serve_us: f64,
    pub mismatches: usize,
}

pub fn probe_layers(
    registry: &ModelRegistry,
    pools: &[Vec<WireReq>],
    tracer: &mut Tracer,
) -> LayerProbe {
    let limits = Limits::default();
    let reqs: Vec<&WireReq> = pools.iter().flatten().collect();
    let n = reqs.len() as u64;
    let mut mismatches = 0;

    let ((), parse_s) = tracer.timed("server.parse", n, || {
        for r in &reqs {
            let head = http::parse_head(&r.bytes[..r.head_len - 4], &limits).expect("request head");
            let len = http::content_length(&head, &limits).expect("content-length");
            let q = http::parse_query_body(&r.bytes[r.head_len..r.head_len + len]).expect("body");
            if q.len() != r.queries.len() {
                mismatches += 1;
            }
        }
    });

    let ((), render_s) = tracer.timed("server.render", n, || {
        for r in &reqs {
            let body = render_predictions(&r.preds);
            let bytes = http::render_response(&Response::new(200, body), true);
            if !bytes.ends_with(&r.expected) {
                mismatches += 1;
            }
        }
    });

    let adm = Admission::new(AdmissionConfig::default());
    let rounds = 100_000;
    let ((), admit_s) = tracer.timed("server.admit", rounds, || {
        for _ in 0..rounds {
            match adm.admit(Instant::now() + Duration::from_secs(1)) {
                Admit::Granted(permit) => drop(permit),
                _ => mismatches += 1,
            }
        }
    });

    let ((), serve_s) = tracer.timed("registry.serve", n, || {
        for r in &reqs {
            let deadline = Instant::now() + Duration::from_secs(2);
            match registry.serve_batch_deadline(&r.queries, deadline) {
                Ok(p)
                    if p.iter()
                        .zip(&r.preds)
                        .all(|(a, b)| a.to_bits() == b.to_bits()) => {}
                _ => mismatches += 1,
            }
        }
    });

    let per_req = |secs: f64| secs * 1e6 / n as f64;
    LayerProbe {
        parse_us: per_req(parse_s),
        render_us: per_req(render_s),
        admit_us: admit_s * 1e6 / rounds as f64,
        serve_us: per_req(serve_s),
        mismatches,
    }
}

/// Median and tail of a latency sample under the ten-beyond rule.
pub fn summarize(lat_us: &mut [f64]) -> (f64, stats::Tail) {
    let med = stats::median(lat_us);
    (med, stats::tail(lat_us, 0.99))
}
