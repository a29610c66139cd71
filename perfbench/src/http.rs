//! The load generator's side of HTTP: pre-rendered request bytes and one
//! keep-alive round trip.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};

use hd_core::topk::Neighbor;

/// Serve-point's knobs: a cheap query, so fixed per-request costs dominate.
pub const K: usize = 10;
pub const CANDIDATES: usize = 32;
pub const REFINE: usize = 16;

/// The JSON body of a single-vector `POST /v1/query`.
pub fn query_body(vector: &[f32], k: usize, candidates: usize, refine: usize) -> String {
    let items: Vec<String> = vector.iter().map(|x| format!("{x}")).collect();
    format!(
        "{{\"vector\":[{}],\"k\":{k},\"candidates\":{candidates},\"refine\":{refine}}}",
        items.join(",")
    )
}

/// Full request bytes for `body`.
pub fn query_request(body: &str) -> Vec<u8> {
    format!(
        "POST /v1/query HTTP/1.1\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// A keep-alive client connection.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Sends `request` and reads the whole response: (status, body).
    pub fn roundtrip(&mut self, request: &[u8]) -> io::Result<(u16, Vec<u8>)> {
        self.writer.write_all(request)?;
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed",
            ));
        }
        let status = line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| {
                io::Error::new(io::ErrorKind::InvalidData, format!("status line {line:?}"))
            })?;
        let mut content_length = 0usize;
        loop {
            line.clear();
            self.reader.read_line(&mut line)?;
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some(v) = header.to_ascii_lowercase().strip_prefix("content-length:") {
                content_length = v
                    .trim()
                    .parse()
                    .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "content-length"))?;
            }
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body)?;
        Ok((status, body))
    }
}

/// Neighbor ids of a single-query answer body, nearest first.
pub fn answer_ids(body: &[u8]) -> Option<Vec<u64>> {
    let text = std::str::from_utf8(body).ok()?;
    let root = hd_telemetry::json::parse(text).ok()?;
    root.get("neighbors")?
        .as_arr()?
        .iter()
        .map(|n| n.get("id")?.as_u64())
        .collect()
}

pub fn ids(neighbors: &[Neighbor]) -> Vec<u64> {
    neighbors.iter().map(|n| n.id).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_and_answer_formats() {
        let body = query_body(&[1.0, 2.5], 10, 32, 16);
        assert_eq!(
            body,
            "{\"vector\":[1,2.5],\"k\":10,\"candidates\":32,\"refine\":16}"
        );
        let req = query_request(&body);
        assert!(req.starts_with(b"POST /v1/query HTTP/1.1\r\ncontent-length: 53\r\n\r\n{"));
        let ans = br#"{"neighbors":[{"id":4,"dist":1.5},{"id":9,"dist":2}],"coalesced":true}"#;
        assert_eq!(answer_ids(ans), Some(vec![4, 9]));
        assert_eq!(answer_ids(b"{\"error\":{}}"), None);
    }
}
