//! Load generators against a running `alss serve`.
//!
//! * [`OpenConns::run`] sends on a fixed schedule, whatever the server does:
//!   a sender thread writes each request line with a single write when it
//!   falls due, round-robin over the connections, and the calling thread
//!   polls every connection for replies. Latency is taken from the
//!   scheduled send, so a stall also charges the requests queued behind it
//!   (no coordinated omission), and how late the sender ran is recorded per
//!   request. Two threads in all.
//! * [`closed_loop`] keeps a fixed window of requests in flight on each
//!   connection and counts ok replies per second. One thread per
//!   connection.

use alss_serve::proto::{from_line, to_line};
use alss_serve::{Request, Response};
use std::io::{BufRead, BufReader, ErrorKind, Read as _, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One request to send: its id and the wire line (newline included).
#[derive(Clone, Debug)]
pub struct Outgoing {
    /// Request id, unique within the run.
    pub id: u64,
    /// Encoded request line ending in `\n`.
    pub line: Vec<u8>,
}

impl Outgoing {
    /// Encode `req` for the wire.
    pub fn new(req: &Request) -> Result<Self, String> {
        let mut line = to_line(req)?.into_bytes();
        line.push(b'\n');
        Ok(Outgoing { id: req.id, line })
    }
}

/// What happened to one request. Times are offsets from the run's origin.
#[derive(Clone, Debug)]
pub struct Record {
    /// Request id.
    pub id: u64,
    /// Scheduled send time (open loop) or actual send time (closed loop).
    pub due: Duration,
    /// When the line was written, if it was.
    pub sent: Option<Duration>,
    /// When the reply line arrived, if it did.
    pub recv: Option<Duration>,
    /// The parsed reply (`None` if missing or unparsable).
    pub resp: Option<Response>,
}

impl Record {
    /// Client-side latency from the scheduled send, in ms; `+inf` when the
    /// reply is missing or not ok.
    pub fn latency_ms(&self) -> f64 {
        match (&self.resp, self.recv) {
            (Some(r), Some(t)) if r.ok => t.saturating_sub(self.due).as_secs_f64() * 1e3,
            _ => f64::INFINITY,
        }
    }

    /// How late the generator wrote the line, in ms.
    pub fn late_ms(&self) -> Option<f64> {
        self.sent
            .map(|s| s.saturating_sub(self.due).as_secs_f64() * 1e3)
    }
}

fn connect(addr: SocketAddr) -> Result<(TcpStream, BufReader<TcpStream>), String> {
    let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))
        .map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    Ok((stream, reader))
}

/// Reads reply lines, keeping a partial line across read timeouts.
struct LineReader {
    reader: BufReader<TcpStream>,
    buf: Vec<u8>,
}

enum Read {
    Line(Response, Instant),
    Garbled,
    Timeout,
    Closed,
}

impl LineReader {
    fn next(&mut self, timeout: Duration) -> Result<Read, String> {
        self.reader
            .get_ref()
            .set_read_timeout(Some(timeout.max(Duration::from_micros(50))))
            .map_err(|e| e.to_string())?;
        match self.reader.read_until(b'\n', &mut self.buf) {
            Ok(0) => Ok(Read::Closed),
            Ok(_) if !self.buf.ends_with(b"\n") => Ok(Read::Timeout),
            Ok(_) => {
                let at = Instant::now();
                let parsed = std::str::from_utf8(&self.buf)
                    .ok()
                    .and_then(|s| from_line::<Response>(s).ok());
                self.buf.clear();
                Ok(parsed.map_or(Read::Garbled, |r| Read::Line(r, at)))
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                Ok(Read::Timeout)
            }
            Err(e) => Err(format!("recv: {e}")),
        }
    }
}

/// Write all of `bytes` to a socket that may be in non-blocking mode.
fn write_line(mut stream: &TcpStream, mut bytes: &[u8]) -> Result<(), String> {
    while !bytes.is_empty() {
        match stream.write(bytes) {
            Ok(0) => return Err("send: connection closed".to_string()),
            Ok(n) => bytes = &bytes[n..],
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_micros(50));
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(format!("send: {e}")),
        }
    }
    Ok(())
}

/// Connections for open-loop traffic. One sender thread writes to all of
/// them; the calling thread polls all of them for replies.
pub struct OpenConns {
    streams: Vec<TcpStream>,
}

/// How often the reply poller looks at idle sockets.
const POLL: Duration = Duration::from_micros(100);

impl OpenConns {
    /// Open `n` connections to `addr`.
    pub fn connect(addr: SocketAddr, n: usize) -> Result<Self, String> {
        let streams = (0..n.max(1))
            .map(|_| {
                let s = TcpStream::connect_timeout(&addr, Duration::from_secs(5))
                    .map_err(|e| format!("connect {addr}: {e}"))?;
                s.set_nodelay(true).map_err(|e| e.to_string())?;
                s.set_nonblocking(true).map_err(|e| e.to_string())?;
                Ok(s)
            })
            .collect::<Result<_, String>>()?;
        Ok(OpenConns { streams })
    }

    /// Run an open loop: a sender thread writes each request of `plan`
    /// (`(due offset, connection, request)`, sorted by due time) when it
    /// falls due, starting 50 ms from now, while this thread reads the
    /// replies. Replies still missing `grace` after the last due time stay
    /// `None` and count as failures.
    pub fn run(
        &mut self,
        plan: &[(Duration, usize, Outgoing)],
        grace: Duration,
    ) -> Result<Vec<Record>, String> {
        let origin = Instant::now() + Duration::from_millis(50);
        let hard_end = origin + plan.last().map_or(Duration::ZERO, |(d, _, _)| *d) + grace;
        let mut records: Vec<Record> = plan
            .iter()
            .map(|(due, _, out)| Record {
                id: out.id,
                due: *due,
                sent: None,
                recv: None,
                resp: None,
            })
            .collect();
        let slot: std::collections::HashMap<u64, usize> = plan
            .iter()
            .enumerate()
            .map(|(i, (_, _, o))| (o.id, i))
            .collect();
        let streams = &self.streams;
        let sent = std::thread::scope(|s| {
            let sender = s.spawn(move || {
                let mut sent = Vec::with_capacity(plan.len());
                for (due, conn, out) in plan {
                    let at = origin + *due;
                    if let Some(wait) = at.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    sent.push(Instant::now() - origin);
                    write_line(&streams[*conn % streams.len()], &out.line)?;
                }
                Ok::<_, String>(sent)
            });
            let mut bufs: Vec<Vec<u8>> = vec![Vec::new(); streams.len()];
            let mut chunk = [0u8; 16 * 1024];
            let mut got = 0;
            'poll: while got < plan.len() && Instant::now() < hard_end {
                let mut idle = true;
                for (mut stream, buf) in streams.iter().zip(&mut bufs) {
                    let n = match stream.read(&mut chunk) {
                        Ok(0) => break 'poll,
                        Ok(n) => n,
                        Err(e) if e.kind() == ErrorKind::WouldBlock => continue,
                        Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                        Err(e) => return Err(format!("recv: {e}")),
                    };
                    let at = Instant::now();
                    idle = false;
                    buf.extend_from_slice(&chunk[..n]);
                    while let Some(end) = buf.iter().position(|&b| b == b'\n') {
                        let line: Vec<u8> = buf.drain(..=end).collect();
                        let resp = std::str::from_utf8(&line)
                            .ok()
                            .and_then(|l| from_line::<Response>(l).ok());
                        let Some(resp) = resp else { continue };
                        if let Some(&i) = slot.get(&resp.id) {
                            if records[i].recv.is_none() {
                                records[i].recv = Some(at - origin);
                                records[i].resp = Some(resp);
                                got += 1;
                            }
                        }
                    }
                }
                if idle {
                    std::thread::sleep(POLL);
                }
            }
            sender
                .join()
                .unwrap_or_else(|_| Err("sender thread panicked".into()))
        })?;
        for (r, t) in records.iter_mut().zip(sent) {
            r.sent = Some(t);
        }
        Ok(records)
    }
}

/// Result of one closed-loop run.
pub struct ClosedRun {
    /// Every request sent, with its reply.
    pub records: Vec<Record>,
    /// Ok replies received inside the measured window.
    pub ok_in_window: u64,
    /// Length of the measured window.
    pub window: Duration,
}

fn drive_closed(
    addr: SocketAddr,
    origin: Instant,
    end: Instant,
    window: usize,
    make: &(dyn Fn(u64) -> Outgoing + Sync),
    ids: impl Iterator<Item = u64>,
) -> Result<(Vec<Record>, u64), String> {
    let (mut writer, reader) = connect(addr)?;
    let mut lines = LineReader {
        reader,
        buf: Vec::new(),
    };
    let mut ids = ids;
    let mut records: Vec<Record> = Vec::new();
    let mut slot = std::collections::HashMap::new();
    let mut send = |records: &mut Vec<Record>, slot: &mut std::collections::HashMap<u64, usize>| {
        let Some(id) = ids.next() else {
            return Ok(());
        };
        let out = make(id);
        let at = Instant::now() - origin;
        writer
            .write_all(&out.line)
            .map_err(|e| format!("send: {e}"))?;
        slot.insert(id, records.len());
        records.push(Record {
            id,
            due: at,
            sent: Some(at),
            recv: None,
            resp: None,
        });
        Ok::<(), String>(())
    };
    for _ in 0..window {
        send(&mut records, &mut slot)?;
    }
    let (mut received, mut ok_in_window) = (0usize, 0u64);
    let drain_end = end + Duration::from_secs(10);
    while received < records.len() && Instant::now() < drain_end {
        match lines.next(drain_end.saturating_duration_since(Instant::now()))? {
            Read::Line(resp, at) => {
                received += 1;
                if at <= end && resp.ok {
                    ok_in_window += 1;
                }
                if let Some(&i) = slot.get(&resp.id) {
                    records[i].recv = Some(at - origin);
                    records[i].resp = Some(resp);
                }
                if at < end {
                    send(&mut records, &mut slot)?;
                }
            }
            Read::Garbled => received += 1,
            Read::Timeout => {}
            Read::Closed => break,
        }
    }
    Ok((records, ok_in_window))
}

/// Run a closed loop on `conns` connections for `dur`, each keeping
/// `window` requests in flight. Connection `c` sends ids
/// `first_id + c, first_id + c + conns, …`; `make` builds the request for
/// an id.
pub fn closed_loop(
    addr: SocketAddr,
    conns: usize,
    window: usize,
    dur: Duration,
    first_id: u64,
    make: &(dyn Fn(u64) -> Outgoing + Sync),
) -> Result<ClosedRun, String> {
    let origin = Instant::now();
    let end = origin + dur;
    let step = conns as u64;
    let results: Vec<Result<(Vec<Record>, u64), String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..step)
            .map(|c| {
                let ids = (0..).map(move |k: u64| first_id + c + k * step);
                s.spawn(move || drive_closed(addr, origin, end, window, make, ids))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("load thread panicked".into()))
            })
            .collect()
    });
    let mut run = ClosedRun {
        records: Vec::new(),
        ok_in_window: 0,
        window: dur,
    };
    for r in results {
        let (records, ok) = r?;
        run.records.extend(records);
        run.ok_in_window += ok;
    }
    Ok(run)
}
