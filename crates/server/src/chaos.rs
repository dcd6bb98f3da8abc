//! The scripted chaos client: the test-harness peer of
//! [`ServerFaultInjector`](crate::ServerFaultInjector). Where the
//! injector arms faults *inside* the server at exact request indices,
//! this client misbehaves *at* the server from outside — mid-request
//! disconnects, slow-loris byte-dribbles, malformed and oversized
//! frames, connection storms — and also speaks the protocol properly
//! for the equality checks in between.
//!
//! It is a deliberately simple blocking client over `std::net` (the
//! offline policy allows nothing else), shipped in the crate (not the
//! test tree) so the soak, metrics and wire-contract suites drive the
//! same code the chaos matrix does.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A parsed response.
#[derive(Debug, Clone)]
pub struct ClientResponse {
    pub status: u16,
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl ClientResponse {
    /// Case-insensitive header lookup.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Body as one f64 per line — the predict response shape.
    pub fn predictions(&self) -> Vec<f64> {
        std::str::from_utf8(&self.body)
            .unwrap_or("")
            .lines()
            .filter(|l| !l.is_empty())
            .map(|l| l.parse().expect("prediction line must parse"))
            .collect()
    }
}

/// A keep-alive connection speaking well-formed HTTP/1.1.
pub struct ClientConn {
    stream: TcpStream,
    carry: Vec<u8>,
}

impl ClientConn {
    pub fn open(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        stream.set_write_timeout(Some(Duration::from_secs(10)))?;
        Ok(Self {
            stream,
            carry: Vec::new(),
        })
    }

    /// Send one request and read its response.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        headers: &[(&str, String)],
        body: &[u8],
    ) -> std::io::Result<ClientResponse> {
        let mut req = format!("{method} {path} HTTP/1.1\r\n");
        for (n, v) in headers {
            req.push_str(&format!("{n}: {v}\r\n"));
        }
        req.push_str(&format!("content-length: {}\r\n\r\n", body.len()));
        self.stream.write_all(req.as_bytes())?;
        self.stream.write_all(body)?;
        self.read_response()
    }

    fn read_response(&mut self) -> std::io::Result<ClientResponse> {
        let mut buf = std::mem::take(&mut self.carry);
        let head_end = loop {
            if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos;
            }
            let mut chunk = [0u8; 1024];
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed mid-response",
                ));
            }
            buf.extend_from_slice(&chunk[..n]);
        };
        let head = String::from_utf8_lossy(&buf[..head_end]).to_string();
        let mut lines = head.split("\r\n");
        let status_line = lines.next().unwrap_or("");
        let status: u16 = status_line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| {
                std::io::Error::new(std::io::ErrorKind::InvalidData, "bad status line")
            })?;
        let headers: Vec<(String, String)> = lines
            .filter_map(|l| l.split_once(':'))
            .map(|(n, v)| (n.to_ascii_lowercase(), v.trim().to_string()))
            .collect();
        let body_len: usize = headers
            .iter()
            .find(|(n, _)| n == "content-length")
            .and_then(|(_, v)| v.parse().ok())
            .unwrap_or(0);
        let mut body = buf.split_off(head_end + 4);
        while body.len() < body_len {
            let mut chunk = [0u8; 1024];
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed mid-body",
                ));
            }
            body.extend_from_slice(&chunk[..n]);
        }
        self.carry = body.split_off(body_len);
        Ok(ClientResponse {
            status,
            headers,
            body,
        })
    }
}

/// The scripted chaos/reference client over one server address.
pub struct ChaosClient {
    addr: SocketAddr,
}

impl ChaosClient {
    pub fn new(addr: SocketAddr) -> Self {
        Self { addr }
    }

    /// One-shot well-formed request on a fresh connection.
    pub fn request(
        &self,
        method: &str,
        path: &str,
        headers: &[(&str, String)],
        body: &[u8],
    ) -> std::io::Result<ClientResponse> {
        ClientConn::open(self.addr)?.request(method, path, headers, body)
    }

    /// POST a prediction batch; `deadline_ms` arms the deadline header.
    pub fn predict(
        &self,
        key: (&str, &str, &str),
        queries: &[Vec<f64>],
        deadline_ms: Option<u64>,
    ) -> std::io::Result<ClientResponse> {
        let path = format!("/predict/{}/{}/{}", key.0, key.1, key.2);
        let mut body = String::new();
        for q in queries {
            let line: Vec<String> = q.iter().map(|v| format!("{v}")).collect();
            body.push_str(&line.join(" "));
            body.push('\n');
        }
        let headers: Vec<(&str, String)> = match deadline_ms {
            Some(ms) => vec![(crate::deadline::DEADLINE_HEADER, ms.to_string())],
            None => Vec::new(),
        };
        self.request("POST", &path, &headers, body.as_bytes())
    }

    /// GET /health body.
    pub fn health(&self) -> std::io::Result<String> {
        let r = self.request("GET", "/health", &[], b"")?;
        Ok(String::from_utf8_lossy(&r.body).trim().to_string())
    }

    /// GET /stats parsed into name → value.
    pub fn stats(&self) -> std::io::Result<HashMap<String, u64>> {
        let r = self.request("GET", "/stats", &[], b"")?;
        let text = String::from_utf8_lossy(&r.body).to_string();
        Ok(text
            .lines()
            .filter_map(|l| {
                let (k, v) = l.rsplit_once(' ')?;
                Some((k.to_string(), v.parse().ok()?))
            })
            .collect())
    }

    /// GET /metrics — the whole stack's Prometheus text exposition.
    pub fn metrics(&self) -> std::io::Result<String> {
        let r = self.request("GET", "/metrics", &[], b"")?;
        Ok(String::from_utf8_lossy(&r.body).to_string())
    }

    /// A named counter/gauge sample scraped off `GET /metrics` (simple
    /// metrics only; histogram series carry suffixed names).
    pub fn metric(&self, name: &str) -> std::io::Result<Option<u64>> {
        let text = self.metrics()?;
        Ok(text.lines().find_map(|l| {
            let (k, v) = l.split_once(' ')?;
            (k == name).then(|| v.parse().ok())?
        }))
    }

    /// GET `/events?since=<seq>`, parsed into `(seq, kind, detail)` rows.
    pub fn events(&self, since: u64) -> std::io::Result<Vec<(u64, String, String)>> {
        let r = self.request("GET", &format!("/events?since={since}"), &[], b"")?;
        let text = String::from_utf8_lossy(&r.body).to_string();
        Ok(text
            .lines()
            .filter_map(|l| {
                let mut parts = l.splitn(3, ' ');
                let seq = parts.next()?.parse().ok()?;
                let kind = parts.next()?.to_string();
                let detail = parts.next().unwrap_or("").to_string();
                Some((seq, kind, detail))
            })
            .collect())
    }

    /// Fault: send `prefix` raw bytes, then vanish (mid-request
    /// disconnect). Returns after the close.
    pub fn disconnect_after(&self, prefix: &[u8]) -> std::io::Result<()> {
        let mut s = TcpStream::connect(self.addr)?;
        s.set_nodelay(true)?;
        s.write_all(prefix)?;
        Ok(()) // drop closes
    }

    /// Fault: dribble `bytes` one chunk per `step`, never finishing
    /// inside a sane read budget. Returns what the server did: its
    /// response bytes if it answered (408), or empty if it just closed.
    pub fn slow_loris(
        &self,
        bytes: &[u8],
        chunk: usize,
        step: Duration,
        give_up_after: Duration,
    ) -> std::io::Result<Vec<u8>> {
        let mut s = TcpStream::connect(self.addr)?;
        s.set_nodelay(true)?;
        let start = std::time::Instant::now();
        for piece in bytes.chunks(chunk.max(1)) {
            if start.elapsed() >= give_up_after {
                break;
            }
            if s.write_all(piece).is_err() {
                break; // server hung up on us: the defense worked
            }
            std::thread::sleep(step);
        }
        let _ = s.shutdown(std::net::Shutdown::Write);
        s.set_read_timeout(Some(Duration::from_secs(5)))?;
        let mut out = Vec::new();
        let _ = s.read_to_end(&mut out);
        Ok(out)
    }

    /// Fault: raw bytes on the wire, then read whatever comes back
    /// until the server closes.
    pub fn send_raw(&self, bytes: &[u8]) -> std::io::Result<Vec<u8>> {
        let mut s = TcpStream::connect(self.addr)?;
        s.set_nodelay(true)?;
        s.set_read_timeout(Some(Duration::from_secs(5)))?;
        s.set_write_timeout(Some(Duration::from_secs(5)))?;
        // The server may (correctly) reject before reading everything;
        // keep going so we still collect its response.
        let _ = s.write_all(bytes);
        let _ = s.shutdown(std::net::Shutdown::Write);
        let mut out = Vec::new();
        let _ = s.read_to_end(&mut out);
        Ok(out)
    }

    /// Status code of a raw exchange, if one came back.
    pub fn raw_status(&self, bytes: &[u8]) -> std::io::Result<Option<u16>> {
        let out = self.send_raw(bytes)?;
        let text = String::from_utf8_lossy(&out);
        Ok(text
            .strip_prefix("HTTP/1.1 ")
            .and_then(|r| r.get(..3))
            .and_then(|s| s.parse().ok()))
    }
}
