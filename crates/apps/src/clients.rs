//! Client workload generators.
//!
//! These are the load generators the paper drives its servers with —
//! `redis-benchmark`, `wrk`, ApacheBench, `http_load`, `memslap` and
//! `beanstalkd-benchmark` — reimplemented against the virtual loopback
//! network.  They run on ordinary host threads *outside* the NVX system
//! (exactly like the separate client machine in the paper's testbed) and
//! report throughput and latency from the client's point of view, which is
//! how every overhead number in Figures 5 and 6 is defined.

use std::sync::Arc;
use std::time::{Duration, Instant};

use varan_kernel::net::Endpoint;
use varan_kernel::Kernel;

/// Latency statistics over a set of requests, in microseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LatencySummary {
    /// Arithmetic mean.
    pub mean_us: f64,
    /// Median.
    pub p50_us: f64,
    /// 99th percentile.
    pub p99_us: f64,
    /// Maximum.
    pub max_us: f64,
}

impl LatencySummary {
    /// Summarises a set of individual latencies.
    #[must_use]
    pub fn from_samples(mut samples: Vec<f64>) -> Self {
        if samples.is_empty() {
            return LatencySummary::default();
        }
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let sum: f64 = samples.iter().sum();
        let index = |fraction: f64| {
            let position = ((samples.len() as f64 - 1.0) * fraction).round() as usize;
            samples[position.min(samples.len() - 1)]
        };
        LatencySummary {
            mean_us: sum / samples.len() as f64,
            p50_us: index(0.5),
            p99_us: index(0.99),
            max_us: *samples.last().expect("non-empty"),
        }
    }
}

/// What a load generator observed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ClientReport {
    /// Requests completed successfully.
    pub requests: u64,
    /// Requests that failed (connection refused, truncated reply, ...).
    pub errors: u64,
    /// Total response bytes received.
    pub bytes_received: u64,
    /// Latency summary across all successful requests.
    pub latency: LatencySummary,
    /// Wall-clock duration of the whole run.
    pub wall: Duration,
}

impl ClientReport {
    /// Requests per wall-clock second.
    #[must_use]
    pub fn throughput(&self) -> f64 {
        if self.wall.as_secs_f64() == 0.0 {
            return 0.0;
        }
        self.requests as f64 / self.wall.as_secs_f64()
    }
}

/// Connects to `port`, retrying until the server is listening or `timeout`
/// elapses.
#[must_use]
pub fn connect_retry(kernel: &Kernel, port: u16, timeout: Duration) -> Option<Endpoint> {
    let deadline = Instant::now() + timeout;
    loop {
        match kernel.network().connect(port) {
            Ok(endpoint) => return Some(endpoint),
            Err(_) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_micros(200));
            }
            Err(_) => return None,
        }
    }
}

/// Upper bound on waiting for one reply: a server that died without closing
/// its connections must fail the request, not hang the client (and with it
/// the whole benchmark harness). Shared with the scenario probes so every
/// consumer agrees on what counts as a dead service.
pub const CLIENT_READ_TIMEOUT: Duration = Duration::from_secs(10);

/// Reads from `endpoint` until `stop(&buffer)` holds, within an overall
/// `deadline`. Returns `Some(buffer)` only once `stop` is satisfied; EOF or
/// the deadline expiring first yields `None`, so a partial reply from a
/// dying server is a failure, never a success with a deadline-sized
/// "latency". Wakes precisely on data arrival (condvar, no polling).
pub fn read_until_satisfied(
    endpoint: &Endpoint,
    deadline: Duration,
    stop: impl Fn(&[u8]) -> bool,
) -> Option<Vec<u8>> {
    let end = Instant::now() + deadline;
    let mut buffer = Vec::new();
    loop {
        if stop(&buffer) {
            return Some(buffer);
        }
        let now = Instant::now();
        if now >= end {
            return None;
        }
        match endpoint.read_timeout(2048, end - now) {
            Ok(chunk) if chunk.is_empty() => return None, // EOF before satisfied
            Ok(chunk) => buffer.extend_from_slice(&chunk),
            Err(_) => return None, // timed out
        }
    }
}

/// Reads until the accumulated buffer contains `needle`. Returns `None` on
/// EOF, timeout, or `limit` bytes without the needle.
fn read_until(endpoint: &Endpoint, needle: &[u8], limit: usize) -> Option<Vec<u8>> {
    let buffer = read_until_satisfied(endpoint, CLIENT_READ_TIMEOUT, |buffer| {
        contains(buffer, needle) || buffer.len() >= limit
    })?;
    contains(&buffer, needle).then_some(buffer)
}

fn contains(haystack: &[u8], needle: &[u8]) -> bool {
    find(haystack, needle).is_some()
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    if needle.is_empty() {
        return None;
    }
    haystack
        .windows(needle.len())
        .position(|window| window == needle)
}

/// True once `buffer` holds a complete `RESERVED <id> <len>\r\n<payload>\r\n`
/// frame. The server writes the whole frame in one stream write, so the
/// read that finds "RESERVED" usually swallows the payload too — the stop
/// predicate must account for it rather than issuing a second read against
/// an already-drained stream.
fn reserved_frame_complete(buffer: &[u8]) -> bool {
    let Some(position) = find(buffer, b"RESERVED") else {
        return false;
    };
    let frame = &buffer[position..];
    let Some(header_end) = find(frame, b"\r\n") else {
        return false;
    };
    let header = String::from_utf8_lossy(&frame[..header_end]);
    let Some(payload_len) = header
        .split_whitespace()
        .nth(2)
        .and_then(|token| token.parse::<usize>().ok())
    else {
        return false;
    };
    frame.len() >= header_end + 2 + payload_len + 2
}

/// Reads one full HTTP response (headers plus `Content-Length` body);
/// `None` if the server closes or stalls before the response is complete.
pub fn read_http_response(endpoint: &Endpoint) -> Option<Vec<u8>> {
    // One overall deadline for the whole response, not per read: a server
    // trickling bytes without ever completing the header must still fail
    // the request in bounded time.
    let end = Instant::now() + CLIENT_READ_TIMEOUT;
    let mut buffer = Vec::new();
    loop {
        let text = String::from_utf8_lossy(&buffer).into_owned();
        if let Some(header_end) = text.find("\r\n\r\n") {
            let content_length = text
                .lines()
                .find_map(|line| line.strip_prefix("Content-Length: "))
                .and_then(|value| value.trim().parse::<usize>().ok())
                .unwrap_or(0);
            if buffer.len() >= header_end + 4 + content_length {
                return Some(buffer);
            }
        }
        let now = Instant::now();
        if now >= end {
            return None;
        }
        match endpoint.read_timeout(2048, end - now) {
            Ok(chunk) if chunk.is_empty() => {
                // EOF: only a close-delimited response — complete headers
                // with no Content-Length — is acceptable here. Truncated
                // headers, or a declared body the stream never delivered,
                // mean the server died mid-reply: a failed request.
                let text = String::from_utf8_lossy(&buffer).into_owned();
                let Some(header_end) = text.find("\r\n\r\n") else {
                    return None;
                };
                let declared = text
                    .lines()
                    .find_map(|line| line.strip_prefix("Content-Length: "))
                    .and_then(|value| value.trim().parse::<usize>().ok());
                return match declared {
                    Some(length) if buffer.len() < header_end + 4 + length => None,
                    _ => Some(buffer),
                };
            }
            Ok(chunk) => buffer.extend_from_slice(&chunk),
            Err(_) => return None,
        }
    }
}

fn run_workers<F>(threads: usize, worker: F) -> ClientReport
where
    F: Fn(usize) -> (u64, u64, u64, Vec<f64>) + Send + Sync + 'static,
{
    let started = Instant::now();
    let worker = Arc::new(worker);
    let mut handles = Vec::new();
    for index in 0..threads.max(1) {
        let worker = Arc::clone(&worker);
        handles.push(std::thread::spawn(move || worker(index)));
    }
    let mut requests = 0;
    let mut errors = 0;
    let mut bytes = 0;
    let mut samples = Vec::new();
    for handle in handles {
        if let Ok((r, e, b, mut s)) = handle.join() {
            requests += r;
            errors += e;
            bytes += b;
            samples.append(&mut s);
        } else {
            errors += 1;
        }
    }
    ClientReport {
        requests,
        errors,
        bytes_received: bytes,
        latency: LatencySummary::from_samples(samples),
        wall: started.elapsed(),
    }
}

/// `redis-benchmark`: `clients` connections each issuing
/// `requests_per_client` commands from a SET/GET/PING/INCR mix.
#[must_use]
pub fn redis_benchmark(
    kernel: &Kernel,
    port: u16,
    clients: usize,
    requests_per_client: u64,
) -> ClientReport {
    let kernel = kernel.clone();
    run_workers(clients, move |index| {
        let Some(endpoint) = connect_retry(&kernel, port, Duration::from_secs(10)) else {
            return (0, requests_per_client, 0, Vec::new());
        };
        let mut requests = 0;
        let mut errors = 0;
        let mut bytes = 0u64;
        let mut samples = Vec::new();
        for i in 0..requests_per_client {
            let command = match i % 4 {
                0 => format!("SET key:{index}:{i} value-{i}\n"),
                1 => format!("GET key:{index}:{i}\n"),
                2 => "PING\n".to_owned(),
                _ => format!("INCR counter:{index}\n"),
            };
            let started = Instant::now();
            if endpoint.write(command.as_bytes()).is_err() {
                errors += 1;
                continue;
            }
            let Some(reply) = read_until(&endpoint, b"\n", 1 << 16) else {
                errors += 1;
                continue;
            };
            samples.push(started.elapsed().as_secs_f64() * 1e6);
            bytes += reply.len() as u64;
            requests += 1;
        }
        endpoint.close();
        (requests, errors, bytes, samples)
    })
}

/// The single `HMGET` probe used by the transparent-failover experiment
/// (§5.1): sends one command and measures its latency in microseconds.
#[must_use]
pub fn redis_hmget_probe(kernel: &Kernel, port: u16, key: &str) -> Option<f64> {
    let endpoint = connect_retry(kernel, port, Duration::from_secs(10))?;
    let started = Instant::now();
    endpoint
        .write(format!("HMGET {key} field\n").as_bytes())
        .ok()?;
    let reply = read_until(&endpoint, b"\n", 1 << 12);
    endpoint.close();
    reply.map(|_| started.elapsed().as_secs_f64() * 1e6)
}

/// `wrk`: `connections` keep-alive connections each fetching `path`
/// `requests_per_connection` times.
#[must_use]
pub fn wrk(
    kernel: &Kernel,
    port: u16,
    connections: usize,
    requests_per_connection: u64,
    path: &str,
) -> ClientReport {
    let kernel = kernel.clone();
    let path = path.to_owned();
    run_workers(connections, move |_| {
        let Some(endpoint) = connect_retry(&kernel, port, Duration::from_secs(10)) else {
            return (0, requests_per_connection, 0, Vec::new());
        };
        let mut requests = 0;
        let mut errors = 0;
        let mut bytes = 0u64;
        let mut samples = Vec::new();
        for _ in 0..requests_per_connection {
            let started = Instant::now();
            let request = format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n");
            if endpoint.write(request.as_bytes()).is_err() {
                errors += 1;
                break;
            }
            match read_http_response(&endpoint) {
                Some(response) if contains(&response, b"HTTP/1.1") => {
                    bytes += response.len() as u64;
                    samples.push(started.elapsed().as_secs_f64() * 1e6);
                    requests += 1;
                }
                _ => errors += 1,
            }
        }
        endpoint.close();
        (requests, errors, bytes, samples)
    })
}

/// ApacheBench (`ab`): `requests` sequential fetches, one connection each.
#[must_use]
pub fn apache_bench(kernel: &Kernel, port: u16, requests: u64, path: &str) -> ClientReport {
    http_one_shot(kernel, port, 1, requests, path)
}

/// `http_load`: `parallel` concurrent fetchers, one connection per request.
#[must_use]
pub fn http_load(
    kernel: &Kernel,
    port: u16,
    parallel: usize,
    requests_per_fetcher: u64,
    path: &str,
) -> ClientReport {
    http_one_shot(kernel, port, parallel, requests_per_fetcher, path)
}

fn http_one_shot(
    kernel: &Kernel,
    port: u16,
    parallel: usize,
    requests_each: u64,
    path: &str,
) -> ClientReport {
    let kernel = kernel.clone();
    let path = path.to_owned();
    run_workers(parallel, move |_| {
        let mut requests = 0;
        let mut errors = 0;
        let mut bytes = 0u64;
        let mut samples = Vec::new();
        for _ in 0..requests_each {
            let started = Instant::now();
            let Some(endpoint) = connect_retry(&kernel, port, Duration::from_secs(10)) else {
                errors += 1;
                continue;
            };
            let request = format!("GET {path} HTTP/1.0\r\nHost: bench\r\n\r\n");
            if endpoint.write(request.as_bytes()).is_err() {
                errors += 1;
                continue;
            }
            match read_http_response(&endpoint) {
                Some(response) => {
                    bytes += response.len() as u64;
                    samples.push(started.elapsed().as_secs_f64() * 1e6);
                    requests += 1;
                }
                None => errors += 1,
            }
            endpoint.close();
        }
        (requests, errors, bytes, samples)
    })
}

/// `memslap`: loads `initial_load` key/value pairs, then performs `ops`
/// get-heavy operations, split across `connections` connections.
#[must_use]
pub fn memslap(
    kernel: &Kernel,
    port: u16,
    connections: usize,
    initial_load: u64,
    ops: u64,
) -> ClientReport {
    let kernel = kernel.clone();
    run_workers(connections, move |index| {
        let Some(endpoint) = connect_retry(&kernel, port, Duration::from_secs(10)) else {
            return (0, initial_load + ops, 0, Vec::new());
        };
        let mut requests = 0;
        let mut errors = 0;
        let mut bytes = 0u64;
        let mut samples = Vec::new();
        let per_conn_load = initial_load / connections.max(1) as u64;
        let per_conn_ops = ops / connections.max(1) as u64;
        for i in 0..per_conn_load {
            let started = Instant::now();
            let command = format!("set mem:{index}:{i} 32\r\n{:032}\r\n", i);
            if endpoint.write(command.as_bytes()).is_err() {
                errors += 1;
                continue;
            }
            match read_until(&endpoint, b"STORED\r\n", 1 << 12) {
                None => errors += 1,
                Some(reply) => {
                    bytes += reply.len() as u64;
                    samples.push(started.elapsed().as_secs_f64() * 1e6);
                    requests += 1;
                }
            }
        }
        for i in 0..per_conn_ops {
            let started = Instant::now();
            let key = format!("mem:{index}:{}", i % per_conn_load.max(1));
            if endpoint.write(format!("get {key}\r\n").as_bytes()).is_err() {
                errors += 1;
                continue;
            }
            match read_until(&endpoint, b"END\r\n", 1 << 14) {
                None => errors += 1,
                Some(reply) => {
                    bytes += reply.len() as u64;
                    samples.push(started.elapsed().as_secs_f64() * 1e6);
                    requests += 1;
                }
            }
        }
        endpoint.write(b"quit\r\n").ok();
        endpoint.close();
        (requests, errors, bytes, samples)
    })
}

/// `beanstalkd-benchmark`: `workers` connections each performing
/// `puts_per_worker` put/reserve/delete cycles with `payload` bytes of data.
#[must_use]
pub fn beanstalkd_benchmark(
    kernel: &Kernel,
    port: u16,
    workers: usize,
    puts_per_worker: u64,
    payload: usize,
) -> ClientReport {
    let kernel = kernel.clone();
    run_workers(workers, move |_| {
        let Some(endpoint) = connect_retry(&kernel, port, Duration::from_secs(10)) else {
            return (0, puts_per_worker, 0, Vec::new());
        };
        let mut requests = 0;
        let mut errors = 0;
        let mut bytes = 0u64;
        let mut samples = Vec::new();
        let body = vec![b'j'; payload];
        for _ in 0..puts_per_worker {
            let started = Instant::now();
            let mut frame = format!("put {}\n", body.len()).into_bytes();
            frame.extend_from_slice(&body);
            frame.push(b'\n');
            frame.extend_from_slice(b"reserve\n");
            if endpoint.write(&frame).is_err() {
                errors += 1;
                continue;
            }
            // The reply must hold the complete RESERVED frame including its
            // payload — the server writes it in one go, so reading only up
            // to "RESERVED" would leave nothing for a follow-up drain read.
            let Some(reply) =
                read_until_satisfied(&endpoint, CLIENT_READ_TIMEOUT, reserved_frame_complete)
            else {
                errors += 1;
                continue;
            };
            // Extract the job id from "INSERTED <id>" to delete it.
            let text = String::from_utf8_lossy(&reply).into_owned();
            let id: u64 = text
                .split_whitespace()
                .skip_while(|token| *token != "INSERTED")
                .nth(1)
                .and_then(|token| token.parse().ok())
                .unwrap_or(0);
            if endpoint.write(format!("delete {id}\n").as_bytes()).is_err() {
                errors += 1;
                continue;
            }
            let Some(deleted) = read_until(&endpoint, b"\r\n", 1 << 12) else {
                errors += 1;
                continue;
            };
            bytes += (reply.len() + deleted.len()) as u64;
            samples.push(started.elapsed().as_secs_f64() * 1e6);
            requests += 1;
        }
        endpoint.write(b"quit\n").ok();
        endpoint.close();
        (requests, errors, bytes, samples)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_summary_statistics() {
        let summary = LatencySummary::from_samples(vec![1.0, 2.0, 3.0, 4.0, 100.0]);
        assert!((summary.mean_us - 22.0).abs() < 1e-9);
        assert!((summary.p50_us - 3.0).abs() < 1e-9);
        assert!((summary.max_us - 100.0).abs() < 1e-9);
        assert_eq!(LatencySummary::from_samples(Vec::new()), LatencySummary::default());
    }

    #[test]
    fn report_throughput_handles_zero_duration() {
        let report = ClientReport::default();
        assert_eq!(report.throughput(), 0.0);
    }

    #[test]
    fn connect_retry_gives_up_without_a_listener() {
        let kernel = Kernel::new();
        assert!(connect_retry(&kernel, 9999, Duration::from_millis(10)).is_none());
    }

    #[test]
    fn read_until_and_contains() {
        assert!(contains(b"hello world", b"lo w"));
        assert!(!contains(b"hello", b"xyz"));
        assert!(!contains(b"hello", b""));
    }

    #[test]
    fn http_response_reader_respects_content_length() {
        let kernel = Kernel::new();
        let listener = kernel.network().listen(9800, 4).unwrap();
        let client = kernel.network().connect(9800).unwrap();
        let server = listener.accept(true).unwrap();
        // Write the headers first and the body afterwards: the reader must
        // keep reading until the declared Content-Length has arrived.
        server
            .write(b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\n")
            .unwrap();
        server.write(b"hello").unwrap();
        let response = read_http_response(&client).unwrap();
        let text = String::from_utf8(response).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK"));
        assert!(text.ends_with("hello"));
    }
}
