//! A deliberately small HTTP/1.1 subset over `std::io` streams — just
//! enough for the serving plane and its load generator to talk to each
//! other (and for `curl`/Prometheus to talk to the server): request line
//! + headers + `Content-Length` bodies, keep-alive by default, no
//! chunked transfer, no TLS.

use std::io::{BufRead, Read, Write};

/// Upper bound on one header section (request or status line included),
/// bytes. Reading stops at the budget with an `InvalidData` error, and
/// the server closes a connection whose request exceeds it.
const MAX_HEADER_BYTES: usize = 16 * 1024;
/// Upper bound on a request/response body we are willing to buffer.
const MAX_BODY_BYTES: usize = 16 * 1024 * 1024;

/// A parsed HTTP/1.1 request (server side) — method, target, headers and
/// a fully buffered body.
#[derive(Debug, Clone)]
pub struct Request {
    /// `GET`, `POST`, ... (uppercased by the peer, not by us).
    pub method: String,
    /// The raw request target, e.g. `/solve?algorithm=general`.
    pub target: String,
    /// Header `(name, value)` pairs; names lowercased.
    pub headers: Vec<(String, String)>,
    /// The request body (empty without `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// The target's path component.
    pub fn path(&self) -> &str {
        match self.target.split_once('?') {
            Some((p, _)) => p,
            None => &self.target,
        }
    }

    /// The target's raw query string, if any.
    pub fn query(&self) -> Option<&str> {
        self.target.split_once('?').map(|(_, q)| q)
    }

    /// The first value of query parameter `key` (`k=v` pairs joined by
    /// `&`; no percent-decoding — the serving API's values never need it).
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query()?
            .split('&')
            .filter_map(|kv| kv.split_once('='))
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v)
    }

    /// The value of header `name` (ASCII case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Whether the client asked to close the connection after this
    /// request.
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

fn invalid(msg: impl Into<String>) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.into())
}

/// Reads one line (without CRLF), buffering at most the running header
/// budget: a line still unterminated when the budget is spent is an
/// error, and so is end of input before the line's first byte.
fn read_line(r: &mut impl BufRead, budget: &mut usize) -> std::io::Result<String> {
    let over = || invalid("header section exceeds 16 KiB");
    if *budget == 0 {
        return Err(over());
    }
    let mut line = String::new();
    let n = r.by_ref().take(*budget as u64).read_line(&mut line)?;
    if n == 0 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "connection closed mid-message",
        ));
    }
    *budget -= n;
    if *budget == 0 && !line.ends_with('\n') {
        return Err(over());
    }
    while line.ends_with('\n') || line.ends_with('\r') {
        line.pop();
    }
    Ok(line)
}

/// Reads the header block shared by requests and responses, returning the
/// `(name, value)` pairs (names lowercased) and the parsed
/// `Content-Length` (0 when absent).
fn read_headers(
    r: &mut impl BufRead,
    budget: &mut usize,
) -> std::io::Result<(Vec<(String, String)>, usize)> {
    let mut headers = Vec::new();
    let mut content_length = 0usize;
    loop {
        let line = read_line(r, budget)?;
        if line.is_empty() {
            break;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| invalid(format!("malformed header line '{line}'")))?;
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim().to_owned();
        if name == "content-length" {
            content_length = value
                .parse()
                .map_err(|_| invalid(format!("bad content-length '{value}'")))?;
            if content_length > MAX_BODY_BYTES {
                return Err(invalid("body exceeds 16 MiB"));
            }
        }
        headers.push((name, value));
    }
    Ok((headers, content_length))
}

fn read_body(r: &mut impl BufRead, len: usize) -> std::io::Result<Vec<u8>> {
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    Ok(body)
}

/// Reads one request off a keep-alive connection. `Ok(None)` means the
/// peer closed the connection cleanly between requests.
pub fn read_request(r: &mut impl BufRead) -> std::io::Result<Option<Request>> {
    let mut budget = MAX_HEADER_BYTES;
    let first = match read_line(r, &mut budget) {
        Ok(line) => line,
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    };
    let mut parts = first.split_ascii_whitespace();
    let (method, target, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v)) => (m.to_owned(), t.to_owned(), v),
        _ => return Err(invalid(format!("malformed request line '{first}'"))),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(invalid(format!("unsupported protocol '{version}'")));
    }
    let (headers, content_length) = read_headers(r, &mut budget)?;
    let body = read_body(r, content_length)?;
    Ok(Some(Request {
        method,
        target,
        headers,
        body,
    }))
}

/// The canonical reason phrase for the handful of statuses we emit.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        422 => "Unprocessable Entity",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Serializes one response (status line + headers + body) to wire bytes.
/// Encoding is split from writing so the server can record a request's
/// metrics *before* the client can observe the response — a client that
/// completes a request and then scrapes `/metrics` is guaranteed to see
/// itself counted.
pub fn encode_response(status: u16, content_type: &str, body: &[u8]) -> Vec<u8> {
    let head = format!(
        "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\n\r\n",
        status,
        reason(status),
        content_type,
        body.len()
    );
    let mut wire = head.into_bytes();
    wire.extend_from_slice(body);
    wire
}

/// Writes one response with a buffered body; returns the total bytes
/// written (header + body), which feeds the access log.
pub fn write_response(
    w: &mut impl Write,
    status: u16,
    content_type: &str,
    body: &[u8],
) -> std::io::Result<u64> {
    let wire = encode_response(status, content_type, body);
    w.write_all(&wire)?;
    w.flush()?;
    Ok(wire.len() as u64)
}

/// Writes one client-side request (keep-alive).
pub fn write_request(
    w: &mut impl Write,
    method: &str,
    target: &str,
    body: Option<&[u8]>,
) -> std::io::Result<()> {
    let body = body.unwrap_or(&[]);
    let head = format!(
        "{method} {target} HTTP/1.1\r\nhost: mc3\r\ncontent-length: {}\r\n\r\n",
        body.len()
    );
    w.write_all(head.as_bytes())?;
    w.write_all(body)?;
    w.flush()
}

/// Reads one client-side response: `(status, body)`.
pub fn read_response(r: &mut impl BufRead) -> std::io::Result<(u16, Vec<u8>)> {
    let mut budget = MAX_HEADER_BYTES;
    let status_line = read_line(r, &mut budget)?;
    let status: u16 = status_line
        .split_ascii_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| invalid(format!("malformed status line '{status_line}'")))?;
    let (_, content_length) = read_headers(r, &mut budget)?;
    let body = read_body(r, content_length)?;
    Ok((status, body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn parses_request_with_query_and_body() {
        let raw = b"POST /solve?algorithm=general&x=1 HTTP/1.1\r\nHost: h\r\nContent-Length: 4\r\n\r\nbodyGET";
        let mut cur = Cursor::new(&raw[..]);
        let req = read_request(&mut cur).unwrap().unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path(), "/solve");
        assert_eq!(req.query_param("algorithm"), Some("general"));
        assert_eq!(req.query_param("x"), Some("1"));
        assert_eq!(req.query_param("missing"), None);
        assert_eq!(req.body, b"body");
        assert!(!req.wants_close());
        assert_eq!(req.header("host"), Some("h"));
    }

    #[test]
    fn eof_between_requests_is_none() {
        let mut cur = Cursor::new(&b""[..]);
        assert!(read_request(&mut cur).unwrap().is_none());
    }

    #[test]
    fn rejects_malformed_and_oversized_input() {
        let mut cur = Cursor::new(&b"NOT-HTTP\r\n\r\n"[..]);
        assert!(read_request(&mut cur).is_err());
        let mut cur = Cursor::new(&b"GET / SPDY/3\r\n\r\n"[..]);
        assert!(read_request(&mut cur).is_err());
        let raw = format!("GET / HTTP/1.1\r\nContent-Length: {}\r\n\r\n", usize::MAX);
        let mut cur = Cursor::new(raw.into_bytes());
        assert!(read_request(&mut cur).is_err());
    }

    #[test]
    fn unterminated_request_line_stops_at_the_header_budget() {
        let mut cur = Cursor::new(vec![b'G'; 32 * 1024]);
        assert!(read_request(&mut cur).is_err());
        assert_eq!(cur.position(), MAX_HEADER_BYTES as u64);
        // A header section one byte over the budget fails the same way.
        let pad = "x".repeat(MAX_HEADER_BYTES - "GET / HTTP/1.1\r\nh: \r\n\r\n".len() + 1);
        let raw = format!("GET / HTTP/1.1\r\nh: {pad}\r\n\r\n");
        let mut cur = Cursor::new(raw.into_bytes());
        assert!(read_request(&mut cur).is_err());
    }

    #[test]
    fn response_round_trips() {
        let mut wire = Vec::new();
        let n = write_response(&mut wire, 200, "text/plain", b"hello").unwrap();
        assert_eq!(n as usize, wire.len());
        let mut cur = Cursor::new(wire);
        let (status, body) = read_response(&mut cur).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, b"hello");
    }

    #[test]
    fn request_round_trips() {
        let mut wire = Vec::new();
        write_request(&mut wire, "POST", "/solve", Some(b"{}")).unwrap();
        let mut cur = Cursor::new(wire);
        let req = read_request(&mut cur).unwrap().unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.target, "/solve");
        assert_eq!(req.body, b"{}");
    }
}
