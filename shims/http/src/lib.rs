//! Workspace-local, dependency-free HTTP/1.1 server and client built on
//! std's `TcpListener`/`TcpStream`.
//!
//! The build environment has no access to crates.io, so the annotation
//! server cannot pull in hyper/axum/tokio. This shim supplies the thin
//! slice of HTTP the service architecture actually needs — the point of
//! `crates/server` is request queueing, lane budgets, and graceful
//! shutdown, not the framework:
//!
//! * [`HttpServer::bind`] — a blocking accept loop on its own thread,
//!   one thread per connection, HTTP/1.1 keep-alive with
//!   `Content-Length` framing only (no chunked encoding, no TLS);
//! * a [`Handler`] trait (auto-implemented for closures) receiving a
//!   parsed [`Request`] and returning a [`Response`];
//! * graceful [`HttpServer::shutdown`]: stop accepting (the accept
//!   thread is woken by a loopback self-connect), let every connection
//!   finish the request it is serving, then [`HttpServer::join`] to
//!   drain — no in-flight response is lost;
//! * hard limits: oversized bodies get `413`, oversized or malformed
//!   heads get `400`, both closing the connection — never unbounded
//!   buffering of untrusted input;
//! * `Expect: 100-continue`: an accepted head carrying it is answered
//!   `100 Continue` at once, so clients that wait for it before sending
//!   a large body (curl does past 1 MiB) do not stall;
//! * [`HttpClient`] — a keep-alive client (with one transparent
//!   reconnect when the server closed an idle connection) used by the
//!   integration tests, the smoke-client example, and the loopback
//!   round-trip bench.
//!
//! Connection threads poll a 200 ms socket read timeout between
//! requests so idle keep-alive connections notice shutdown promptly
//! while a request mid-transfer is still read to completion.

#![warn(missing_docs)]

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Largest accepted request head (request line + headers).
const MAX_HEAD_BYTES: usize = 64 * 1024;
/// Largest accepted request body.
const MAX_BODY_BYTES: usize = 64 * 1024 * 1024;
/// Poll interval at which idle connections check the shutdown flag.
const IDLE_POLL: Duration = Duration::from_millis(200);

/// A parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Upper-case method (`GET`, `POST`, …) as sent by the client.
    pub method: String,
    /// Path without the query string, e.g. `/annotate`.
    pub path: String,
    /// Raw query string (without `?`), empty if absent.
    pub query: String,
    /// Header name/value pairs in arrival order.
    pub headers: Vec<(String, String)>,
    /// Request body (empty unless `Content-Length` was sent).
    pub body: Vec<u8>,
}

impl Request {
    /// Case-insensitive header lookup (first occurrence).
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8, if it is valid UTF-8.
    #[must_use]
    pub fn body_str(&self) -> Option<&str> {
        std::str::from_utf8(&self.body).ok()
    }
}

/// An HTTP response under construction.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code, e.g. `200`.
    pub status: u16,
    /// Extra headers (Content-Length and Connection are added on write).
    pub headers: Vec<(String, String)>,
    /// Response body.
    pub body: Vec<u8>,
}

impl Response {
    /// A response with the given status and empty body.
    #[must_use]
    pub fn status(status: u16) -> Response {
        Response {
            status,
            headers: Vec::new(),
            body: Vec::new(),
        }
    }

    /// A `200 OK` with a JSON body.
    #[must_use]
    pub fn json(body: String) -> Response {
        Response::status(200).with_json(body)
    }

    /// Set a JSON body (and content type) on any status.
    #[must_use]
    pub fn with_json(mut self, body: String) -> Response {
        self.headers
            .push(("Content-Type".into(), "application/json".into()));
        self.body = body.into_bytes();
        self
    }

    /// Set a plain-text body.
    #[must_use]
    pub fn with_text(mut self, body: &str) -> Response {
        self.headers
            .push(("Content-Type".into(), "text/plain".into()));
        self.body = body.as_bytes().to_vec();
        self
    }

    /// Append a header.
    #[must_use]
    pub fn with_header(mut self, name: &str, value: &str) -> Response {
        self.headers.push((name.into(), value.into()));
        self
    }

    fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            413 => "Payload Too Large",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "Response",
        }
    }

    fn write_to(&self, stream: &mut TcpStream, close: bool) -> io::Result<()> {
        let mut head = format!("HTTP/1.1 {} {}\r\n", self.status, self.reason());
        for (k, v) in &self.headers {
            head.push_str(k);
            head.push_str(": ");
            head.push_str(v);
            head.push_str("\r\n");
        }
        head.push_str(&format!("Content-Length: {}\r\n", self.body.len()));
        head.push_str(if close {
            "Connection: close\r\n\r\n"
        } else {
            "Connection: keep-alive\r\n\r\n"
        });
        stream.write_all(head.as_bytes())?;
        stream.write_all(&self.body)?;
        stream.flush()
    }
}

/// Request handler plugged into [`HttpServer::bind`]. Handlers run on
/// connection threads and must be shareable across them.
pub trait Handler: Send + Sync + 'static {
    /// Produce the response for one request.
    fn handle(&self, req: &Request) -> Response;
}

impl<F> Handler for F
where
    F: Fn(&Request) -> Response + Send + Sync + 'static,
{
    fn handle(&self, req: &Request) -> Response {
        self(req)
    }
}

struct ServerShared {
    stop: AtomicBool,
    handler: Box<dyn Handler>,
    conns: Mutex<Vec<JoinHandle<()>>>,
}

/// A running HTTP server. Dropping it without [`HttpServer::shutdown`]
/// leaves the accept thread running until process exit.
pub struct HttpServer {
    addr: SocketAddr,
    shared: Arc<ServerShared>,
    accept: Option<JoinHandle<()>>,
}

impl HttpServer {
    /// Bind `addr` (use port 0 for an ephemeral port) and start the
    /// accept loop on a background thread.
    pub fn bind<A: ToSocketAddrs>(addr: A, handler: impl Handler) -> io::Result<HttpServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(ServerShared {
            stop: AtomicBool::new(false),
            handler: Box::new(handler),
            conns: Mutex::new(Vec::new()),
        });
        let accept_shared = Arc::clone(&shared);
        let accept = thread::Builder::new()
            .name("http-accept".into())
            .spawn(move || accept_loop(&listener, &accept_shared))
            .expect("spawn accept thread");
        Ok(HttpServer {
            addr,
            shared,
            accept: Some(accept),
        })
    }

    /// The bound address (resolves ephemeral ports).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting new connections. Connections currently serving a
    /// request finish it; idle keep-alive connections close within one
    /// poll interval. Does not block — follow with [`HttpServer::join`].
    pub fn shutdown(&self) {
        if self.shared.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake the blocking accept() so the loop observes the flag.
        let _ = TcpStream::connect(self.addr);
    }

    /// Block until the accept loop and every connection thread have
    /// exited (all in-flight responses written). Implies
    /// [`HttpServer::shutdown`].
    pub fn join(&mut self) {
        self.shutdown();
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        let conns = std::mem::take(&mut *self.shared.conns.lock().unwrap());
        for conn in conns {
            let _ = conn.join();
        }
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<ServerShared>) {
    for stream in listener.incoming() {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let conn_shared = Arc::clone(shared);
        let handle = thread::Builder::new()
            .name("http-conn".into())
            .spawn(move || connection_loop(stream, &conn_shared))
            .expect("spawn connection thread");
        let mut conns = shared.conns.lock().unwrap();
        // Reap finished threads so a long-lived server doesn't
        // accumulate handles without bound.
        conns.retain(|h| !h.is_finished());
        conns.push(handle);
    }
}

fn connection_loop(mut stream: TcpStream, shared: &Arc<ServerShared>) {
    let _ = stream.set_read_timeout(Some(IDLE_POLL));
    let _ = stream.set_nodelay(true);
    let mut buf: Vec<u8> = Vec::new();
    loop {
        let req = match read_request(&mut stream, &mut buf, &shared.stop) {
            Ok(Some(req)) => req,
            Ok(None) => return, // clean close or shutdown while idle
            Err(ReadError::TooLarge) => {
                let _ = Response::status(413).write_to(&mut stream, true);
                return;
            }
            Err(ReadError::Malformed(why)) => {
                let _ = Response::status(400)
                    .with_text(&why)
                    .write_to(&mut stream, true);
                return;
            }
            Err(ReadError::Io) => return,
        };
        let response = shared.handler.handle(&req);
        let close_after = shared.stop.load(Ordering::SeqCst)
            || req
                .header("connection")
                .is_some_and(|v| v.eq_ignore_ascii_case("close"));
        if response.write_to(&mut stream, close_after).is_err() || close_after {
            return;
        }
    }
}

enum ReadError {
    TooLarge,
    Malformed(String),
    Io,
}

/// Read one request off the connection. `buf` carries bytes between
/// calls (keep-alive pipelining). `Ok(None)` means the peer closed
/// cleanly or shutdown arrived while the connection was idle.
///
/// The head is parsed once, as soon as it is complete. The body is
/// then read into a buffer sized to its (already capped)
/// `Content-Length` and moved into the [`Request`]; only bytes past
/// the body stay in `buf`. A head carrying `Expect: 100-continue` is
/// answered `100 Continue` once it is accepted, so a client waiting to
/// send its body does not stall.
fn read_request(
    stream: &mut TcpStream,
    buf: &mut Vec<u8>,
    stop: &AtomicBool,
) -> Result<Option<Request>, ReadError> {
    let mut chunk = [0u8; 8192];
    let mut scanned = 0;
    let head_end = loop {
        // A terminator may straddle two reads: rescan its last 3 bytes.
        if let Some(at) = find_head_end(&buf[scanned..]) {
            break scanned + at;
        }
        scanned = buf.len().saturating_sub(3);
        if buf.len() > MAX_HEAD_BYTES {
            return Err(ReadError::TooLarge);
        }
        match stream.read(&mut chunk) {
            Ok(0) if buf.is_empty() => return Ok(None),
            Ok(0) => return Err(ReadError::Io),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                // Idle poll tick: bail out only when shutting down and
                // no request has started arriving.
                if stop.load(Ordering::SeqCst) && buf.is_empty() {
                    return Ok(None);
                }
            }
            Err(_) => return Err(ReadError::Io),
        }
    };
    if head_end > MAX_HEAD_BYTES {
        return Err(ReadError::TooLarge);
    }
    let head = parse_head(&buf[..head_end])?;
    if head.expect_continue {
        stream
            .write_all(b"HTTP/1.1 100 Continue\r\n\r\n")
            .map_err(|_| ReadError::Io)?;
    }
    let body_start = head_end + 4;
    let buffered = (buf.len() - body_start).min(head.content_length);
    let mut body = Vec::with_capacity(head.content_length);
    body.extend_from_slice(&buf[body_start..body_start + buffered]);
    buf.drain(..body_start + buffered);
    while body.len() < head.content_length {
        // Reads land straight in the body's reserved capacity; only
        // bytes that arrived touch memory.
        let missing = (head.content_length - body.len()) as u64;
        match stream.take(missing).read_to_end(&mut body) {
            Ok(0) => return Err(ReadError::Io),
            Ok(_) => {}
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut => {
            }
            Err(_) => return Err(ReadError::Io),
        }
    }
    Ok(Some(Request {
        method: head.method,
        path: head.path,
        query: head.query,
        headers: head.headers,
        body,
    }))
}

/// A parsed request head.
struct Head {
    method: String,
    path: String,
    query: String,
    headers: Vec<(String, String)>,
    content_length: usize,
    expect_continue: bool,
}

/// Parse a complete request head (without its terminating blank
/// line), refusing a body over [`MAX_BODY_BYTES`].
fn parse_head(head: &[u8]) -> Result<Head, ReadError> {
    let head = std::str::from_utf8(head)
        .map_err(|_| ReadError::Malformed("non-UTF-8 request head".into()))?;
    let mut lines = head.split("\r\n");
    let request_line = lines
        .next()
        .ok_or_else(|| ReadError::Malformed("empty head".into()))?;
    let mut parts = request_line.split(' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty())
        .ok_or_else(|| ReadError::Malformed("missing method".into()))?;
    let target = parts
        .next()
        .ok_or_else(|| ReadError::Malformed("missing request target".into()))?;
    let version = parts
        .next()
        .ok_or_else(|| ReadError::Malformed("missing HTTP version".into()))?;
    if !version.starts_with("HTTP/1.") || parts.next().is_some() {
        return Err(ReadError::Malformed("bad request line".into()));
    }
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| ReadError::Malformed("bad header line".into()))?;
        headers.push((name.trim().to_owned(), value.trim().to_owned()));
    }
    let header = |name: &str| {
        headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    };
    let content_length = header("content-length")
        .map(|v| {
            v.parse::<usize>()
                .map_err(|_| ReadError::Malformed("bad Content-Length".into()))
        })
        .transpose()?
        .unwrap_or(0);
    if header("transfer-encoding").is_some() {
        return Err(ReadError::Malformed(
            "chunked encoding not supported".into(),
        ));
    }
    if content_length > MAX_BODY_BYTES {
        return Err(ReadError::TooLarge);
    }
    let expect_continue = header("expect").is_some_and(|v| v.eq_ignore_ascii_case("100-continue"));
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_owned(), q.to_owned()),
        None => (target.to_owned(), String::new()),
    };
    Ok(Head {
        method: method.to_owned(),
        path,
        query,
        headers,
        content_length,
        expect_continue,
    })
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// A response as seen by [`HttpClient`].
#[derive(Debug, Clone)]
pub struct ClientResponse {
    /// Status code.
    pub status: u16,
    /// Header name/value pairs in arrival order.
    pub headers: Vec<(String, String)>,
    /// Response body.
    pub body: Vec<u8>,
}

impl ClientResponse {
    /// Case-insensitive header lookup (first occurrence).
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 (lossy).
    #[must_use]
    pub fn body_str(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// A keep-alive HTTP/1.1 client for loopback testing and smoke runs.
/// Reconnects once, transparently, when the pooled connection was
/// closed by the server (e.g. after its graceful-shutdown response).
pub struct HttpClient {
    addr: SocketAddr,
    stream: Option<TcpStream>,
}

impl HttpClient {
    /// Create a client for `addr`; the connection is opened lazily.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<HttpClient> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "no address"))?;
        Ok(HttpClient { addr, stream: None })
    }

    /// `GET` a path.
    pub fn get(&mut self, path: &str) -> io::Result<ClientResponse> {
        self.request("GET", path, &[], b"")
    }

    /// `POST` a JSON body to a path.
    pub fn post_json(
        &mut self,
        path: &str,
        body: &str,
        extra_headers: &[(&str, &str)],
    ) -> io::Result<ClientResponse> {
        let mut headers = vec![("Content-Type", "application/json")];
        headers.extend_from_slice(extra_headers);
        self.request("POST", path, &headers, body.as_bytes())
    }

    /// Issue one request and read the full response.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: &[u8],
    ) -> io::Result<ClientResponse> {
        match self.try_request(method, path, headers, body) {
            Ok(resp) => Ok(resp),
            Err(_) if self.stream.is_some() => {
                // The pooled connection died (server closed keep-alive);
                // retry exactly once on a fresh connection.
                self.stream = None;
                self.try_request(method, path, headers, body)
            }
            Err(e) => Err(e),
        }
    }

    fn try_request(
        &mut self,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: &[u8],
    ) -> io::Result<ClientResponse> {
        if self.stream.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_nodelay(true)?;
            self.stream = Some(stream);
        }
        let stream = self.stream.as_mut().unwrap();
        let mut head = format!("{method} {path} HTTP/1.1\r\nHost: {}\r\n", self.addr);
        for (k, v) in headers {
            head.push_str(&format!("{k}: {v}\r\n"));
        }
        head.push_str(&format!("Content-Length: {}\r\n\r\n", body.len()));
        stream.write_all(head.as_bytes())?;
        stream.write_all(body)?;
        stream.flush()?;
        let response = read_client_response(stream);
        if response.is_err() {
            self.stream = None;
        } else if let Ok(resp) = &response {
            if resp
                .header("connection")
                .is_some_and(|v| v.eq_ignore_ascii_case("close"))
            {
                self.stream = None;
            }
        }
        response
    }
}

fn read_client_response(stream: &mut TcpStream) -> io::Result<ClientResponse> {
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 8192];
    let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_owned());
    loop {
        if let Some(head_end) = find_head_end(&buf) {
            let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| bad("non-UTF-8 head"))?;
            let mut lines = head.split("\r\n");
            let status_line = lines.next().ok_or_else(|| bad("empty head"))?;
            let status = status_line
                .split(' ')
                .nth(1)
                .and_then(|s| s.parse::<u16>().ok())
                .ok_or_else(|| bad("bad status line"))?;
            let mut headers = Vec::new();
            for line in lines {
                if line.is_empty() {
                    continue;
                }
                let (name, value) = line.split_once(':').ok_or_else(|| bad("bad header"))?;
                headers.push((name.trim().to_owned(), value.trim().to_owned()));
            }
            let content_length = headers
                .iter()
                .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
                .map(|(_, v)| v.parse::<usize>().map_err(|_| bad("bad Content-Length")))
                .transpose()?
                .unwrap_or(0);
            let body_start = head_end + 4;
            while buf.len() < body_start + content_length {
                let n = stream.read(&mut chunk)?;
                if n == 0 {
                    return Err(io::ErrorKind::UnexpectedEof.into());
                }
                buf.extend_from_slice(&chunk[..n]);
            }
            let body = buf[body_start..body_start + content_length].to_vec();
            return Ok(ClientResponse {
                status,
                headers,
                body,
            });
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        buf.extend_from_slice(&chunk[..n]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn echo_server() -> HttpServer {
        HttpServer::bind("127.0.0.1:0", |req: &Request| {
            Response::json(format!(
                "{{\"method\":\"{}\",\"path\":\"{}\",\"query\":\"{}\",\"len\":{}}}",
                req.method,
                req.path,
                req.query,
                req.body.len()
            ))
        })
        .expect("bind")
    }

    #[test]
    fn round_trip_and_keep_alive() {
        let mut server = echo_server();
        let mut client = HttpClient::connect(server.local_addr()).unwrap();
        let r1 = client.get("/healthz?x=1").unwrap();
        assert_eq!(r1.status, 200);
        assert_eq!(
            r1.body_str(),
            "{\"method\":\"GET\",\"path\":\"/healthz\",\"query\":\"x=1\",\"len\":0}"
        );
        // Second request reuses the same connection.
        let r2 = client.post_json("/annotate", "{\"a\":1}", &[]).unwrap();
        assert_eq!(r2.status, 200);
        assert!(r2.body_str().contains("\"len\":7"), "{}", r2.body_str());
        assert_eq!(r2.header("content-type"), Some("application/json"));
        server.join();
    }

    #[test]
    fn concurrent_connections() {
        let mut server = echo_server();
        let addr = server.local_addr();
        let handles: Vec<_> = (0..8)
            .map(|i| {
                thread::spawn(move || {
                    let mut client = HttpClient::connect(addr).unwrap();
                    let body = format!("{{\"i\":{i}}}");
                    for _ in 0..5 {
                        let r = client.post_json("/annotate", &body, &[]).unwrap();
                        assert_eq!(r.status, 200);
                        assert!(r.body_str().contains(&format!("\"len\":{}", body.len())));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        server.join();
    }

    #[test]
    fn malformed_head_gets_400() {
        let mut server = echo_server();
        let mut raw = TcpStream::connect(server.local_addr()).unwrap();
        raw.write_all(b"NOT A REQUEST\r\n\r\n").unwrap();
        let mut out = String::new();
        raw.read_to_string(&mut out).unwrap();
        assert!(out.starts_with("HTTP/1.1 400"), "{out}");
        server.join();
    }

    #[test]
    fn oversized_body_gets_413() {
        let mut server = echo_server();
        let mut raw = TcpStream::connect(server.local_addr()).unwrap();
        raw.write_all(
            format!(
                "POST /annotate HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
                MAX_BODY_BYTES + 1
            )
            .as_bytes(),
        )
        .unwrap();
        let mut out = String::new();
        raw.read_to_string(&mut out).unwrap();
        assert!(out.starts_with("HTTP/1.1 413"), "{out}");
        server.join();
    }

    /// A client that sends `Expect: 100-continue` waits for the interim
    /// response before its body; without one it would stall until its
    /// own timeout. The short read timeout turns a missing interim
    /// line into a failure instead of a hang.
    #[test]
    fn expect_continue_gets_an_interim_response() {
        let mut server = echo_server();
        let mut raw = TcpStream::connect(server.local_addr()).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        raw.write_all(
            b"POST /annotate HTTP/1.1\r\nContent-Length: 7\r\nExpect: 100-continue\r\n\r\n",
        )
        .unwrap();
        let interim = b"HTTP/1.1 100 Continue\r\n\r\n";
        let mut got = [0u8; 25];
        raw.read_exact(&mut got)
            .expect("interim response before the body");
        assert_eq!(&got, interim);
        raw.write_all(b"{\"a\":1}").unwrap();
        let resp = read_client_response(&mut raw).unwrap();
        assert_eq!(resp.status, 200);
        assert!(resp.body_str().contains("\"len\":7"), "{}", resp.body_str());

        // An oversized body is refused outright: 413, no interim line.
        let mut raw = TcpStream::connect(server.local_addr()).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        raw.write_all(
            format!(
                "POST /annotate HTTP/1.1\r\nContent-Length: {}\r\nExpect: 100-continue\r\n\r\n",
                MAX_BODY_BYTES + 1
            )
            .as_bytes(),
        )
        .unwrap();
        let mut out = String::new();
        raw.read_to_string(&mut out).unwrap();
        assert!(out.starts_with("HTTP/1.1 413"), "{out}");
        server.join();
    }

    /// A body arriving in many small writes is read to its full length,
    /// and requests sent back to back in one write are each decoded.
    #[test]
    fn bodies_in_pieces_and_pipelined_requests_decode() {
        let mut server = echo_server();
        let mut raw = TcpStream::connect(server.local_addr()).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let len = 1 << 20;
        raw.write_all(format!("POST /big HTTP/1.1\r\nContent-Length: {len}\r\n\r\n").as_bytes())
            .unwrap();
        let piece = [b'x'; 1024];
        for _ in 0..len / piece.len() {
            raw.write_all(&piece).unwrap();
        }
        let resp = read_client_response(&mut raw).unwrap();
        assert_eq!(resp.status, 200);
        assert!(
            resp.body_str().contains(&format!("\"len\":{len}")),
            "{}",
            resp.body_str()
        );

        // The second request closes the connection, so both responses
        // are read to the end of the stream.
        raw.write_all(
            b"POST /one HTTP/1.1\r\nContent-Length: 3\r\n\r\nabc\
              GET /two?q=2 HTTP/1.1\r\nConnection: close\r\n\r\n",
        )
        .unwrap();
        let mut out = String::new();
        raw.read_to_string(&mut out).unwrap();
        let first = out
            .find("{\"method\":\"POST\",\"path\":\"/one\",\"query\":\"\",\"len\":3}")
            .expect("first response");
        let second = out
            .find("{\"method\":\"GET\",\"path\":\"/two\",\"query\":\"q=2\",\"len\":0}")
            .expect("second response");
        assert!(first < second, "{out}");
        assert_eq!(out.matches("HTTP/1.1 200 OK").count(), 2, "{out}");
        server.join();
    }

    #[test]
    fn shutdown_drains_in_flight_request() {
        use std::sync::mpsc;
        let (started_tx, started_rx) = mpsc::channel::<()>();
        let started_tx = Mutex::new(started_tx);
        let mut server = HttpServer::bind("127.0.0.1:0", move |_req: &Request| {
            let _ = started_tx.lock().unwrap().send(());
            thread::sleep(Duration::from_millis(400));
            Response::json("{\"done\":true}".into())
        })
        .unwrap();
        let addr = server.local_addr();
        let client = thread::spawn(move || {
            let mut client = HttpClient::connect(addr).unwrap();
            client.get("/slow").unwrap()
        });
        // Initiate shutdown while the handler is mid-request.
        started_rx
            .recv_timeout(Duration::from_secs(5))
            .expect("request reached the handler");
        server.shutdown();
        server.join();
        let resp = client.join().unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body_str(), "{\"done\":true}");
        // Server is gone: a fresh request must fail.
        assert!(HttpClient::connect(addr).unwrap().get("/healthz").is_err());
    }

    #[test]
    fn client_reconnects_after_server_close() {
        let mut server = echo_server();
        let mut client = HttpClient::connect(server.local_addr()).unwrap();
        assert_eq!(client.get("/a").unwrap().status, 200);
        // Force the pooled connection dead by dropping it server-side:
        // a Connection: close request makes the server hang up.
        let r = client
            .request("GET", "/b", &[("Connection", "close")], b"")
            .unwrap();
        assert_eq!(r.status, 200);
        // Next request transparently opens a fresh connection.
        assert_eq!(client.get("/c").unwrap().status, 200);
        server.join();
    }
}
