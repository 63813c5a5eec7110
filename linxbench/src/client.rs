//! A minimal HTTP/1.1 client for the daemon's loopback API.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Cap on a response head; a longer head is an error, not a reason to grow.
const MAX_HEAD_BYTES: usize = 64 * 1024;

/// One parsed response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code from the status line.
    pub status: u16,
    /// The body bytes (exactly `Content-Length` of them, or up to EOF when the
    /// response carries no length).
    pub body: Vec<u8>,
}

impl Response {
    /// The body as UTF-8 text (lossy).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }

    /// The body parsed as JSON.
    pub fn json(&self) -> Result<serde_json::Value, String> {
        serde_json::from_str(&self.text()).map_err(|e| {
            format!(
                "status {} body is not JSON ({e}): {}",
                self.status,
                self.text()
            )
        })
    }
}

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Read one response from `reader`. `buf` carries bytes across calls: bytes
/// already read that belong to a following response stay in it, and reads
/// that deliver a response in pieces are joined.
pub fn read_response<R: Read>(reader: &mut R, buf: &mut Vec<u8>) -> io::Result<Response> {
    let mut chunk = [0u8; 16 * 1024];
    let head_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos + 4;
        }
        if buf.len() > MAX_HEAD_BYTES {
            return Err(invalid("response head exceeds 64 KiB"));
        }
        let n = reader.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed inside a response head",
            ));
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| invalid("non-UTF-8 head"))?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| invalid(format!("bad status line in {head:?}")))?;
    let mut content_length = None;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                let len = value
                    .trim()
                    .parse::<usize>()
                    .map_err(|_| invalid(format!("bad Content-Length {value:?}")))?;
                content_length = Some(len);
            }
        }
    }
    match content_length {
        Some(len) => {
            while buf.len() < head_end + len {
                let n = reader.read(&mut chunk)?;
                if n == 0 {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "connection closed inside a response body",
                    ));
                }
                buf.extend_from_slice(&chunk[..n]);
            }
            let body = buf[head_end..head_end + len].to_vec();
            buf.drain(..head_end + len);
            Ok(Response { status, body })
        }
        None => {
            reader.read_to_end(buf)?;
            let body = buf[head_end..].to_vec();
            buf.clear();
            Ok(Response { status, body })
        }
    }
}

/// One keep-alive connection to the daemon.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    /// Connect with a read timeout well above the longest long-poll the
    /// benchmark asks for.
    pub fn open(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(16 * 1024),
        })
    }

    /// Send one request and read its response. `close` asks the server to
    /// close the connection after answering.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
        close: bool,
    ) -> io::Result<Response> {
        let payload = body.unwrap_or("");
        let raw = format!(
            "{method} {path} HTTP/1.1\r\nHost: linx\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n{payload}",
            payload.len(),
            if close { "close" } else { "keep-alive" }
        );
        self.stream.write_all(raw.as_bytes())?;
        read_response(&mut self.stream, &mut self.buf)
    }
}

/// One request on a fresh connection that is closed afterwards.
pub fn once(addr: SocketAddr, method: &str, path: &str) -> io::Result<Response> {
    Conn::open(addr)?.request(method, path, None, true)
}
