//! Closed-loop HTTP clients: each holds one keep-alive connection and
//! sends its next request only after the previous response arrived.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Failure messages kept per client; the rest are only counted.
const MAX_MESSAGES: usize = 5;

/// One request as the client saw it, kept small: a run holds hundreds
/// of thousands.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Microseconds from the start of the load phase to the request.
    pub start_us: u32,
    pub latency_ns: u32,
    /// Index into the query mix.
    pub target: u8,
}

impl Sample {
    pub fn latency_s(&self) -> f64 {
        self.latency_ns as f64 / 1e9
    }
}

#[derive(Debug, Default)]
pub struct ClientRun {
    pub samples: Vec<Sample>,
    /// Responses with status 200.
    pub ok: u64,
    /// Requests that got another status, a body differing from the
    /// reference, or a transport error.
    pub failed: u64,
    pub messages: Vec<String>,
}

/// splitmix64: each client's seeded draw over the query mix.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

pub fn connect(addr: SocketAddr) -> io::Result<BufReader<TcpStream>> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    Ok(BufReader::new(stream))
}

/// Send one GET over `conn` and read the whole response into `body`.
/// Returns the status code.
pub fn get(conn: &mut BufReader<TcpStream>, target: &str, body: &mut Vec<u8>) -> io::Result<u16> {
    let req = format!("GET {target} HTTP/1.1\r\nHost: perfbench\r\n\r\n");
    conn.get_mut().write_all(req.as_bytes())?;
    let mut line = String::new();
    conn.read_line(&mut line)?;
    let status = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::other(format!("bad status line {line:?}")))?;
    let mut length = None;
    loop {
        line.clear();
        conn.read_line(&mut line)?;
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                length = value.trim().parse::<usize>().ok();
            }
        }
    }
    let length = length.ok_or_else(|| io::Error::other("response without Content-Length"))?;
    body.resize(length, 0);
    conn.read_exact(body)?;
    Ok(status)
}

/// Run one client until the clients together have taken `total`
/// requests from `taken`: draw a target from `mix` with a stream seeded
/// by `seed`, send it, and compare the body with `reference[target]`
/// where that is `Some`. Sample start times are relative to `start`.
pub fn client(
    addr: SocketAddr,
    seed: u64,
    mix: &[(&str, &str)],
    reference: &[Option<Vec<u8>>],
    start: Instant,
    taken: &AtomicU64,
    total: u64,
) -> ClientRun {
    // Room for every request up front: a buffer that grows by doubling
    // would make peak RSS jump in steps.
    let mut run = ClientRun { samples: Vec::with_capacity(total as usize), ..ClientRun::default() };
    let mut conn = match connect(addr) {
        Ok(c) => c,
        Err(e) => {
            run.failed += 1;
            run.messages.push(format!("connect: {e}"));
            return run;
        }
    };
    let mut rng = SplitMix(seed);
    let mut body = Vec::new();
    while taken.fetch_add(1, Ordering::Relaxed) < total {
        let target = (rng.next() % mix.len() as u64) as usize;
        let sent = Instant::now();
        let result = get(&mut conn, mix[target].1, &mut body);
        let latency_ns = sent.elapsed().as_nanos().min(u32::MAX as u128) as u32;
        let broken = result.is_err();
        let start_us = sent.duration_since(start).as_micros() as u32;
        run.samples.push(Sample { start_us, latency_ns, target: target as u8 });
        let problem = match result {
            Ok(200) => match &reference[target] {
                Some(expected) if *expected != body => Some("body differs from reference".into()),
                _ => None,
            },
            Ok(status) => Some(format!("status {status}")),
            Err(e) => Some(format!("transport: {e}")),
        };
        match problem {
            None => run.ok += 1,
            Some(p) => {
                run.failed += 1;
                if run.messages.len() < MAX_MESSAGES {
                    run.messages.push(format!("{}: {p}", mix[target].1));
                }
                if broken {
                    // The connection is in an unknown state; stop here.
                    break;
                }
            }
        }
    }
    run
}
