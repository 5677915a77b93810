//! Minimal HTTP/1.1 server for the gateway binary.
//!
//! The workspace's one HTTP listener — the gateway's JSON API and the
//! daemons' `--metrics-addr` scrape port both run on it. It parses the
//! request line, headers, query string and a `Content-Length` body,
//! supports keep-alive, and runs a handler on a fixed accept pool. It is
//! an ops/integration surface, not a performance path — the binary
//! protocol behind it is where throughput lives.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

const MAX_HEAD: usize = 16 * 1024;
const MAX_BODY: usize = 4 << 20;

#[derive(Debug, PartialEq)]
pub struct HttpRequest {
    pub method: String,
    /// Path without the query string.
    pub path: String,
    /// Percent-decoded query parameters, in order.
    pub query: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl HttpRequest {
    /// Last value of a query parameter.
    pub fn param(&self, key: &str) -> Option<&str> {
        self.query.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }
}

pub struct HttpResponse {
    pub status: u16,
    pub content_type: &'static str,
    pub body: Vec<u8>,
}

impl HttpResponse {
    pub fn json(status: u16, body: String) -> HttpResponse {
        HttpResponse { status, content_type: "application/json", body: body.into_bytes() }
    }

    pub fn text(status: u16, body: &str) -> HttpResponse {
        HttpResponse { status, content_type: "text/plain", body: body.as_bytes().to_vec() }
    }
}

fn status_phrase(code: u16) -> &'static str {
    match code {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Status",
    }
}

pub type Handler = Arc<dyn Fn(&HttpRequest) -> HttpResponse + Send + Sync>;

pub struct HttpHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl HttpHandle {
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting and joins the pool. Idempotent.
    pub fn shutdown(&mut self) {
        if !self.stop.swap(true, Ordering::SeqCst) {
            // Nudge every blocked accept once.
            for _ in 0..self.threads.len().max(1) {
                let _ = TcpStream::connect(self.addr);
            }
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for HttpHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Binds `addr` and serves `handler` on `threads` accept threads, each
/// handling its connection to completion (keep-alive included).
pub fn serve_http(addr: &str, threads: usize, handler: Handler) -> io::Result<HttpHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let mut pool = Vec::new();
    for i in 0..threads.max(1) {
        let listener = listener.try_clone()?;
        let stop = Arc::clone(&stop);
        let handler = Arc::clone(&handler);
        pool.push(std::thread::Builder::new().name(format!("staq-http-{i}")).spawn(move || {
            for stream in listener.incoming() {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let _ = serve_conn(stream, &handler, &stop);
            }
        })?);
    }
    Ok(HttpHandle { addr, stop, threads: pool })
}

fn serve_conn(mut stream: TcpStream, handler: &Handler, stop: &AtomicBool) -> io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.set_nodelay(true)?;
    let mut buf: Vec<u8> = Vec::with_capacity(2048);
    loop {
        if stop.load(Ordering::SeqCst) {
            return Ok(());
        }
        let (req, keep_alive) = match read_request(&mut stream, &mut buf)? {
            Some(r) => r,
            None => return Ok(()), // clean close between requests
        };
        let resp = handler(&req);
        let head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
            resp.status,
            status_phrase(resp.status),
            resp.content_type,
            resp.body.len(),
            if keep_alive { "keep-alive" } else { "close" },
        );
        stream.write_all(head.as_bytes())?;
        stream.write_all(&resp.body)?;
        if !keep_alive {
            return Ok(());
        }
    }
}

/// Reads one request (head + body). `None` on clean EOF before any byte
/// of a new request.
fn read_request(
    stream: &mut impl Read,
    buf: &mut Vec<u8>,
) -> io::Result<Option<(HttpRequest, bool)>> {
    let mut scratch = [0u8; 4096];
    let head_end = loop {
        if let Some(pos) = find_head_end(buf) {
            break pos;
        }
        if buf.len() > MAX_HEAD {
            return Ok(None);
        }
        match stream.read(&mut scratch) {
            Ok(0) => return Ok(None),
            Ok(n) => buf.extend_from_slice(&scratch[..n]),
            Err(_) => return Ok(None),
        }
    };

    let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("").to_string();
    let target = parts.next().unwrap_or("/");
    let http11 = parts.next().unwrap_or("HTTP/1.1") == "HTTP/1.1";

    let mut content_len = 0usize;
    let mut connection_close = !http11;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else { continue };
        let value = value.trim();
        match name.to_ascii_lowercase().as_str() {
            // Unparsable: where the body ends is unknown, so the rest of
            // the stream cannot be framed.
            "content-length" => match value.parse() {
                Ok(n) => content_len = n,
                Err(_) => return Ok(None),
            },
            "connection" => connection_close = value.eq_ignore_ascii_case("close"),
            _ => {}
        }
    }
    if content_len > MAX_BODY {
        return Ok(None);
    }

    let body_start = head_end + 4;
    while buf.len() < body_start + content_len {
        match stream.read(&mut scratch) {
            Ok(0) => return Ok(None),
            Ok(n) => buf.extend_from_slice(&scratch[..n]),
            Err(_) => return Ok(None),
        }
    }
    let body = buf[body_start..body_start + content_len].to_vec();
    buf.drain(..body_start + content_len);

    let (path, query_str) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let query = query_str
        .split('&')
        .filter(|s| !s.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => (percent_decode(k), percent_decode(v)),
            None => (percent_decode(pair), String::new()),
        })
        .collect();

    Ok(Some((HttpRequest { method, path: path.to_string(), query, body }, !connection_close)))
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' if i + 2 < bytes.len() => {
                let hex = |b: u8| (b as char).to_digit(16);
                match (hex(bytes[i + 1]), hex(bytes[i + 2])) {
                    (Some(h), Some(l)) => {
                        out.push((h * 16 + l) as u8);
                        i += 3;
                    }
                    _ => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    fn echo_handler() -> Handler {
        Arc::new(|req: &HttpRequest| {
            let body = format!(
                "{} {} q={} body={}",
                req.method,
                req.path,
                req.param("q").unwrap_or("-"),
                String::from_utf8_lossy(&req.body),
            );
            HttpResponse::text(200, &body)
        })
    }

    #[test]
    fn parses_get_with_percent_encoded_query() {
        let mut h = serve_http("127.0.0.1:0", 2, echo_handler()).unwrap();
        let mut s = TcpStream::connect(h.addr()).unwrap();
        s.write_all(b"GET /v1/echo?q=a%20b+c HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
            .unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        assert!(out.starts_with("HTTP/1.1 200 OK"), "{out}");
        assert!(out.ends_with("GET /v1/echo q=a b c body="), "{out}");
        h.shutdown();
        h.shutdown(); // idempotent
    }

    #[test]
    fn keep_alive_serves_pipelined_requests_and_post_bodies() {
        let mut h = serve_http("127.0.0.1:0", 1, echo_handler()).unwrap();
        let mut s = TcpStream::connect(h.addr()).unwrap();
        s.write_all(b"POST /a HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello").unwrap();
        s.write_all(b"GET /b HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n").unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        assert!(out.contains("POST /a q=- body=hello"), "{out}");
        assert!(out.contains("GET /b q=- body="), "{out}");
        let closes = out.matches("HTTP/1.1 200 OK").count();
        assert_eq!(closes, 2, "{out}");
        h.shutdown();
    }

    /// A stream that hands out `data` in reads of the given sizes (cycled),
    /// as a socket may split a request anywhere.
    struct Chunked {
        data: Vec<u8>,
        sizes: Vec<usize>,
        reads: usize,
    }

    impl Read for Chunked {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            let size = self.sizes[self.reads % self.sizes.len()];
            self.reads += 1;
            let n = size.min(self.data.len()).min(out.len());
            out[..n].copy_from_slice(&self.data[..n]);
            self.data.drain(..n);
            Ok(n)
        }
    }

    /// Strings the head grammar branches on, so random input reaches the
    /// header and body paths instead of failing on the first line.
    const TOKENS: &[&str] = &[
        "GET ",
        "POST ",
        "/v1/q",
        "?",
        "&",
        "=",
        "%",
        "%2",
        "%4A",
        "+",
        " ",
        "\r\n",
        "\r\n\r\n",
        "HTTP/1.1",
        "HTTP/1.0",
        ":",
        "Content-Length: ",
        "Connection: close",
        "1",
        "7",
        "99999999",
        "-3",
    ];

    fn lossy(picks: Vec<(u8, u8)>) -> Vec<u8> {
        let mut bytes = Vec::new();
        for (kind, b) in picks {
            match kind {
                0 => bytes.push(b),
                _ => bytes.extend_from_slice(TOKENS[b as usize % TOKENS.len()].as_bytes()),
            }
        }
        bytes
    }

    /// Percent-encodes every byte outside the unreserved set, and a space
    /// as `+` half the time, so both decodings are exercised.
    fn encode(s: &str, plus: bool) -> String {
        s.bytes()
            .map(|b| match b {
                b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                    (b as char).to_string()
                }
                b' ' if plus => "+".to_string(),
                _ => format!("%{b:02X}"),
            })
            .collect()
    }

    fn text() -> impl Strategy<Value = String> {
        // ASCII, separators the query grammar uses, and multi-byte chars.
        vec(0u32..0x300, 0..6).prop_map(|cs| cs.into_iter().filter_map(char::from_u32).collect())
    }

    /// (method, path segments, query pairs, body, close, plus-for-space).
    type Parts = (u8, Vec<u8>, Vec<(String, String)>, Vec<u8>, bool, bool);

    fn parts() -> impl Strategy<Value = Parts> {
        (
            0u8..4,
            vec(0u8..=255, 0..4),
            vec((text(), text()), 0..4),
            vec(0u8..=255, 0..48),
            0u8..2,
            0u8..2,
        )
            .prop_map(|(m, path, query, body, close, plus)| {
                (m, path, query, body, close == 1, plus == 1)
            })
    }

    /// Renders `parts` as wire bytes, with the request and keep-alive flag
    /// they should parse to.
    fn render((m, segs, query, body, close, plus): Parts) -> (Vec<u8>, (HttpRequest, bool)) {
        let method = ["GET", "POST", "PUT", "DELETE"][m as usize].to_string();
        let path: String = segs.iter().map(|s| format!("/s{s}")).collect();
        let path = if path.is_empty() { "/".to_string() } else { path };
        let target = if query.is_empty() {
            path.clone()
        } else {
            let pairs: Vec<String> = query
                .iter()
                .map(|(k, v)| format!("{}={}", encode(k, plus), encode(v, plus)))
                .collect();
            format!("{path}?{}", pairs.join("&"))
        };
        let connection = if close { "Connection: close\r\n" } else { "" };
        let mut wire = format!(
            "{method} {target} HTTP/1.1\r\nHost: x\r\n{connection}Content-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        wire.extend_from_slice(&body);
        (wire, (HttpRequest { method, path, query, body }, !close))
    }

    fn parse_next(stream: &mut Chunked, buf: &mut Vec<u8>) -> Option<(HttpRequest, bool)> {
        read_request(stream, buf).expect("in-memory reads never fail")
    }

    #[test]
    fn an_unparsable_content_length_ends_the_connection() {
        for len in ["x", "-1"] {
            let data = format!(
                "POST /a HTTP/1.1\r\nContent-Length: {len}\r\n\r\nGET /b HTTP/1.1\r\nHost: x\r\n\r\n"
            );
            let mut stream = Chunked { data: data.into_bytes(), sizes: vec![4096], reads: 0 };
            let mut buf = Vec::new();
            while let Some((req, _)) = parse_next(&mut stream, &mut buf) {
                assert_ne!(
                    req.path, "/b",
                    "the body of `Content-Length: {len}` was read as a request"
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn arbitrary_chunked_bytes_never_panic(
            picks in vec((0u8..3, 0u8..=255), 0..256),
            sizes in vec(1usize..32, 1..8),
        ) {
            let data = lossy(picks);
            let max_requests = data.len() / 4 + 1; // each parsed request eats ≥ 4 bytes
            let mut stream = Chunked { data, sizes, reads: 0 };
            let mut buf = Vec::new();
            let mut parsed = 0;
            while parse_next(&mut stream, &mut buf).is_some() {
                parsed += 1;
                prop_assert!(parsed <= max_requests, "the parser made no progress");
            }
        }

        #[test]
        fn generated_requests_round_trip(p in parts(), sizes in vec(1usize..64, 1..8)) {
            let (data, want) = render(p);
            let mut stream = Chunked { data, sizes, reads: 0 };
            let mut buf = Vec::new();
            prop_assert_eq!(parse_next(&mut stream, &mut buf), Some(want));
            prop_assert!(parse_next(&mut stream, &mut buf).is_none(), "nothing after the request");
        }

        #[test]
        fn pipelined_requests_split_at_the_right_byte(
            first in parts(),
            second in parts(),
            sizes in vec(1usize..64, 1..8),
        ) {
            let (mut data, want_first) = render(first);
            let (tail, want_second) = render(second);
            data.extend_from_slice(&tail);
            let mut stream = Chunked { data, sizes, reads: 0 };
            let mut buf = Vec::new();
            prop_assert_eq!(parse_next(&mut stream, &mut buf), Some(want_first));
            prop_assert_eq!(parse_next(&mut stream, &mut buf), Some(want_second));
            prop_assert!(buf.is_empty(), "the second request consumed every byte");
        }
    }
}
