//! The benchmark's own keep-alive HTTP/1.1 client.
//!
//! It sets `TCP_NODELAY`, sends head and body in one write, frames the
//! response by `Content-Length`, and turns a read or write timeout into
//! an error, which the caller counts as a failed request. It shares no
//! code with the program's own client, so a stall or a fix there cannot
//! move these numbers.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Upper bound on a response head, in bytes.
const MAX_HEAD: usize = 16 * 1024;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    pub status: u16,
    pub body: Vec<u8>,
}

#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Client {
    pub fn connect(addr: SocketAddr, timeout: Duration) -> io::Result<Client> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        Ok(Client {
            stream,
            buf: Vec::with_capacity(4096),
        })
    }

    /// Sends one request and reads its response on the open connection.
    pub fn request(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<Response> {
        self.stream.write_all(&request_bytes(method, path, body))?;
        self.read_response()
    }

    pub fn get(&mut self, path: &str) -> io::Result<Response> {
        self.request("GET", path, b"")
    }

    pub fn post(&mut self, path: &str, body: &[u8]) -> io::Result<Response> {
        self.request("POST", path, body)
    }

    fn read_response(&mut self) -> io::Result<Response> {
        let head_end = loop {
            if let Some(i) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break i + 4;
            }
            if self.buf.len() > MAX_HEAD {
                return Err(invalid("response head too large"));
            }
            self.fill()?;
        };
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| invalid("response head is not UTF-8"))?;
        let mut lines = head.split("\r\n");
        let status = lines
            .next()
            .and_then(|l| l.split(' ').nth(1))
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| invalid("bad status line"))?;
        let mut length = None;
        for line in lines {
            if let Some((name, value)) = line.split_once(':') {
                if name.trim().eq_ignore_ascii_case("content-length") {
                    length = value.trim().parse::<usize>().ok();
                }
            }
        }
        let length = length.ok_or_else(|| invalid("response without content-length"))?;
        while self.buf.len() < head_end + length {
            self.fill()?;
        }
        let body = self.buf[head_end..head_end + length].to_vec();
        self.buf.drain(..head_end + length);
        Ok(Response { status, body })
    }

    fn fill(&mut self) -> io::Result<()> {
        let mut chunk = [0u8; 8192];
        let n = self.stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }
}

/// A whole request, head and body, as one buffer.
pub fn request_bytes(method: &str, path: &str, body: &[u8]) -> Vec<u8> {
    let mut msg = format!(
        "{method} {path} HTTP/1.1\r\nhost: perfbench\r\ncontent-length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    msg.extend_from_slice(body);
    msg
}

fn invalid(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_owned())
}

/// The `value` and `cache` fields of a `/v1/solve` 200 body.
pub fn value_and_cache(body: &[u8]) -> Option<(String, String)> {
    let text = std::str::from_utf8(body).ok()?;
    let doc = defender_obs::json::parse(text).ok()?;
    let get = |name: &str| doc.get(name)?.as_str().map(str::to_owned);
    Some((get("value")?, get("cache")?))
}
