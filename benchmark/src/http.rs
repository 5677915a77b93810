//! The benchmark's HTTP/1.1 keep-alive client: one connection, one
//! request in flight, latency taken from the first byte written to the
//! last body byte read.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A reply not fully read inside this window is a failed operation.
pub const OP_TIMEOUT: Duration = Duration::from_secs(10);

pub struct HttpClient {
    stream: TcpStream,
    buf: Vec<u8>,
}

pub fn post(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nHost: staq\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

pub fn get(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nHost: staq\r\n\r\n").into_bytes()
}

impl HttpClient {
    pub fn connect(addr: SocketAddr) -> io::Result<HttpClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(OP_TIMEOUT))?;
        stream.set_write_timeout(Some(OP_TIMEOUT))?;
        Ok(HttpClient { stream, buf: Vec::with_capacity(1 << 16) })
    }

    /// Sends one pre-rendered request and reads the whole reply. Returns
    /// the status and the body, which stays valid until the next call.
    pub fn call(&mut self, request: &[u8]) -> io::Result<(u16, &[u8])> {
        self.stream.write_all(request)?;
        self.buf.clear();
        let mut chunk = [0u8; 16 * 1024];
        let head_end = loop {
            if let Some(at) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break at;
            }
            match self.stream.read(&mut chunk)? {
                0 => return Err(io::ErrorKind::UnexpectedEof.into()),
                n => self.buf.extend_from_slice(&chunk[..n]),
            }
        };
        let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
        let head = std::str::from_utf8(&self.buf[..head_end]).map_err(|_| bad("non-UTF-8 head"))?;
        let status: u16 = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("no status in reply"))?;
        let len: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .and_then(|v| v.trim().parse().ok())
            .ok_or_else(|| bad("no Content-Length in reply"))?;
        let body_start = head_end + 4;
        while self.buf.len() < body_start + len {
            match self.stream.read(&mut chunk)? {
                0 => return Err(io::ErrorKind::UnexpectedEof.into()),
                n => self.buf.extend_from_slice(&chunk[..n]),
            }
        }
        Ok((status, &self.buf[body_start..body_start + len]))
    }
}
