//! Load generation over raw wire frames: a closed loop and an open-loop
//! generator, both checking every response bit for bit.
//!
//! Frames are encoded before a phase starts, so the generator's own cost
//! is a header patch and a socket write. Each phase dials fresh
//! connections; the server answers a connection's frames in order.

use crate::stats::Latencies;
use crate::workload::{Deployment, Error, Fixture, Plan};
use napmon_wire::{Frame, Opcode, Request, Response, DEFAULT_MAX_PAYLOAD, HEADER_LEN};
use std::io::{ErrorKind, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Generator threads and connections: one each per core of the
/// two-core reference box, fixed so parent and change run the same loop.
pub const CLIENTS: usize = 2;

/// Frames each closed-loop connection keeps in flight: enough to keep the
/// server busy, so throughput measures capacity rather than the wake-up
/// latency of idle cores.
pub const DEPTH: usize = 4;

/// How long a phase waits for outstanding responses after its last
/// scheduled send before counting them as timed out.
const DRAIN: Duration = Duration::from_secs(5);

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Query,
    Absorb,
}

/// One pre-encoded request frame and what its response must be.
pub struct Pooled {
    bytes: Vec<u8>,
    kind: Kind,
    inputs: usize,
    /// The exact response payload expected for a query frame.
    expect: Vec<u8>,
}

/// Every frame a run may send: the query pool, cycled, and the absorb
/// frames, each sent once (cycled only if a run outlasts them).
pub struct Traffic {
    queries: Vec<Pooled>,
    absorbs: Vec<Pooled>,
    absorb_every: usize,
    next_absorb: AtomicUsize,
}

fn encode(request: Request, route: &napmon_wire::TenantRoute) -> Result<Vec<u8>, Error> {
    Ok(request.into_frame(0)?.routed(route.clone()).encode()?)
}

impl Traffic {
    pub fn new(fx: &Fixture, plan: &Plan, dep: &Deployment) -> Result<Self, Error> {
        let queries = fx
            .frames
            .iter()
            .zip(&dep.expected)
            .enumerate()
            .map(|(i, (frame, expected))| {
                let expect = Response::Verdicts(expected.clone()).into_frame(0)?.payload;
                Ok(Pooled {
                    bytes: encode(Request::QueryBatch(frame.clone()), &dep.tenant_of(i).route)?,
                    kind: Kind::Query,
                    inputs: frame.len(),
                    expect,
                })
            })
            .collect::<Result<Vec<_>, Error>>()?;
        let absorbs = dep
            .absorbs
            .chunks_exact(plan.frame_inputs)
            .map(|chunk| {
                Ok(Pooled {
                    bytes: encode(Request::Absorb(chunk.to_vec()), &dep.tenants[0].route)?,
                    kind: Kind::Absorb,
                    inputs: chunk.len(),
                    expect: Vec::new(),
                })
            })
            .collect::<Result<Vec<_>, Error>>()?;
        if plan.absorb_every > 0 && absorbs.is_empty() {
            return Err("no absorb input lies outside the query patterns' Hamming balls".into());
        }
        Ok(Self {
            queries,
            absorbs,
            absorb_every: plan.absorb_every,
            next_absorb: AtomicUsize::new(0),
        })
    }

    /// The frame at position `seq` of the traffic sequence.
    fn frame(&self, seq: usize) -> &Pooled {
        let every = self.absorb_every;
        if every > 0 && seq % (every + 1) == every {
            let n = self.next_absorb.fetch_add(1, Ordering::Relaxed);
            &self.absorbs[n % self.absorbs.len()]
        } else {
            let q = if every > 0 {
                seq - seq / (every + 1)
            } else {
                seq
            };
            &self.queries[q % self.queries.len()]
        }
    }

    /// Absorb frames sent so far, capped at the distinct frames there are;
    /// frame `k` carries the deployment's absorb inputs `k * frame_inputs..`.
    pub fn absorbed_frames(&self) -> usize {
        self.next_absorb
            .load(Ordering::Relaxed)
            .min(self.absorbs.len())
    }
}

/// Counts and latencies of one phase.
#[derive(Default)]
pub struct Phase {
    pub sent: u64,
    pub ok: u64,
    /// Busy or error responses and timeouts.
    pub failed: u64,
    /// Responses that differ from the reference.
    pub mismatched: u64,
    pub inputs_done: u64,
    pub new_patterns: u64,
    pub query: Latencies,
    pub absorb: Latencies,
    /// How late the generator sent each frame after its due time, when
    /// it was not blocked on the connection.
    pub lag: Latencies,
    /// Frames due but not answered when the schedule ended.
    pub backlog_at_end: u64,
    pub elapsed_s: f64,
    /// When the last response arrived, from the phase start.
    pub last_response_s: f64,
    /// Per-frame client spans `(start_ns, end_ns, inputs)` from the phase
    /// start, when the phase is traced.
    pub spans: Vec<(u64, u64, u32)>,
    /// Closed loop: `(completed_ns, inputs)` of every answered frame, from
    /// the phase start.
    pub completions: Vec<(u64, u32)>,
}

impl Phase {
    pub fn merge(&mut self, other: Phase) {
        self.sent += other.sent;
        self.ok += other.ok;
        self.failed += other.failed;
        self.mismatched += other.mismatched;
        self.inputs_done += other.inputs_done;
        self.new_patterns += other.new_patterns;
        self.query.us.extend(other.query.us);
        self.absorb.us.extend(other.absorb.us);
        self.lag.us.extend(other.lag.us);
        self.backlog_at_end += other.backlog_at_end;
        self.elapsed_s += other.elapsed_s;
        self.last_response_s = self.last_response_s.max(other.last_response_s);
        self.spans.extend(other.spans);
        self.completions.extend(other.completions);
    }

    /// Completed inputs per second in each of `windows` equal slices of
    /// the phase.
    pub fn window_rates(&self, windows: usize) -> Vec<f64> {
        let width = self.elapsed_s / windows as f64;
        let mut done = vec![0u64; windows];
        for &(at, inputs) in &self.completions {
            let w = ((at as f64 / 1e9) / width) as usize;
            if w < windows {
                done[w] += u64::from(inputs);
            }
        }
        done.iter().map(|&n| n as f64 / width).collect()
    }

    pub fn inputs_per_s(&self) -> f64 {
        self.inputs_done as f64 / self.elapsed_s
    }
}

/// A raw connection with an incremental response reader.
struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    start: usize,
}

impl Conn {
    fn dial(addr: SocketAddr) -> Result<Self, Error> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_write_timeout(Some(Duration::from_secs(10)))?;
        Ok(Self {
            stream,
            buf: Vec::with_capacity(1 << 16),
            start: 0,
        })
    }

    fn send(&mut self, frame: &Pooled, id: u64) -> Result<(), Error> {
        let mut header = [0u8; HEADER_LEN];
        header.copy_from_slice(&frame.bytes[..HEADER_LEN]);
        header[8..16].copy_from_slice(&id.to_le_bytes());
        let body = &frame.bytes[HEADER_LEN..];
        let n = self
            .stream
            .write_vectored(&[IoSlice::new(&header), IoSlice::new(body)])?;
        if n < HEADER_LEN {
            self.stream.write_all(&header[n..])?;
            self.stream.write_all(body)?;
        } else {
            self.stream.write_all(&body[n - HEADER_LEN..])?;
        }
        Ok(())
    }

    /// The next complete response frame already buffered, if any.
    fn take_frame(&mut self) -> Result<Option<Frame>, Error> {
        let avail = &self.buf[self.start..];
        let Some(header) = avail.first_chunk::<HEADER_LEN>() else {
            return Ok(None);
        };
        let parsed = Frame::decode_header(header, DEFAULT_MAX_PAYLOAD)?;
        let total = HEADER_LEN + parsed.payload_len as usize;
        if avail.len() < total {
            return Ok(None);
        }
        let frame = Frame::assemble(parsed, avail[HEADER_LEN..total].to_vec())?;
        self.start += total;
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        }
        Ok(Some(frame))
    }

    /// Reads whatever arrives within `wait` (zero: only what is already
    /// there); `Ok(false)` when nothing arrived.
    fn fill(&mut self, wait: Duration) -> Result<bool, Error> {
        if self.start > 0 && self.start * 2 > self.buf.len() {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        if !readable(&self.stream, wait)? {
            return Ok(false);
        }
        let len = self.buf.len();
        self.buf.resize(len + (1 << 16), 0);
        let read = self.stream.read(&mut self.buf[len..]);
        match read {
            Ok(0) => {
                self.buf.truncate(len);
                Err("server closed the connection".into())
            }
            Ok(n) => {
                self.buf.truncate(len + n);
                Ok(true)
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {
                self.buf.truncate(len);
                Ok(false)
            }
            Err(e) => {
                self.buf.truncate(len);
                Err(e.into())
            }
        }
    }
}

#[repr(C)]
struct PollFd {
    fd: std::ffi::c_int,
    events: std::ffi::c_short,
    revents: std::ffi::c_short,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: std::ffi::c_ulong,
        timeout: *const Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> std::ffi::c_int;
}

const POLLIN: std::ffi::c_short = 0x001;

/// Waits up to `wait` for `stream` to become readable. `ppoll` takes a
/// nanosecond deadline; a socket read timeout would round up to a whole
/// scheduler tick and put milliseconds of error into every latency.
fn readable(stream: &TcpStream, wait: Duration) -> Result<bool, Error> {
    use std::os::fd::AsRawFd;
    let mut fd = PollFd {
        fd: stream.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let timeout = Timespec {
        tv_sec: wait.as_secs() as i64,
        tv_nsec: i64::from(wait.subsec_nanos()),
    };
    // SAFETY: one valid pollfd, a valid timespec, no signal mask.
    let ready = unsafe { ppoll(&mut fd, 1, &timeout, std::ptr::null()) };
    match ready {
        -1 if std::io::Error::last_os_error().kind() == ErrorKind::Interrupted => Ok(false),
        -1 => Err(std::io::Error::last_os_error().into()),
        0 => Ok(false),
        _ => Ok(true),
    }
}

/// Scores one response against the frame that asked for it.
fn score(phase: &mut Phase, frame: &Pooled, response: &Frame, latency_us: f64) {
    match response.opcode {
        Opcode::Verdicts if frame.kind == Kind::Query => {
            if response.payload == frame.expect {
                phase.ok += 1;
            } else {
                phase.mismatched += 1;
            }
            phase.query.us.push(latency_us);
            phase.inputs_done += frame.inputs as u64;
        }
        Opcode::Absorbed if frame.kind == Kind::Absorb => match Response::decode(response) {
            Ok(Response::Absorbed(fresh)) => {
                phase.ok += 1;
                phase.new_patterns += fresh;
                phase.absorb.us.push(latency_us);
                phase.inputs_done += frame.inputs as u64;
            }
            _ => phase.mismatched += 1,
        },
        // Busy, shed, typed errors: refusals count as failures.
        _ => phase.failed += 1,
    }
}

/// Closed loop: each of [`CLIENTS`] connections keeps [`DEPTH`] frames
/// in flight, sending the next as soon as a response arrives, for
/// `duration`. With `traced`, every frame's client span is kept in memory.
pub fn closed_loop(
    addr: SocketAddr,
    traffic: &Traffic,
    seq: &AtomicUsize,
    duration: Duration,
    traced: bool,
) -> Result<Phase, Error> {
    let start = Instant::now();
    let phases = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                s.spawn(move || -> Result<Phase, Error> {
                    let mut conn = Conn::dial(addr)?;
                    let mut phase = Phase::default();
                    let mut outstanding = std::collections::VecDeque::with_capacity(DEPTH);
                    let mut id = 0u64;
                    loop {
                        while outstanding.len() < DEPTH && start.elapsed() < duration {
                            let frame = traffic.frame(seq.fetch_add(1, Ordering::Relaxed));
                            id += 1;
                            outstanding.push_back((id, Instant::now(), frame));
                            conn.send(frame, id)?;
                            phase.sent += 1;
                        }
                        let Some((id, sent, frame)) = outstanding.pop_front() else {
                            break;
                        };
                        let response = loop {
                            if let Some(f) = conn.take_frame()? {
                                break f;
                            }
                            if !conn.fill(DRAIN)? {
                                return Err("closed-loop response timed out".into());
                            }
                        };
                        let done = Instant::now();
                        if response.request_id != id {
                            return Err("response out of order".into());
                        }
                        score(
                            &mut phase,
                            frame,
                            &response,
                            (done - sent).as_secs_f64() * 1e6,
                        );
                        phase
                            .completions
                            .push(((done - start).as_nanos() as u64, frame.inputs as u32));
                        if traced {
                            phase.spans.push((
                                (sent - start).as_nanos() as u64,
                                (done - start).as_nanos() as u64,
                                frame.inputs as u32,
                            ));
                        }
                    }
                    Ok(phase)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect::<Vec<_>>()
    });
    let mut total = Phase::default();
    for phase in phases {
        total.merge(phase?);
    }
    total.elapsed_s = start.elapsed().as_secs_f64();
    Ok(total)
}

struct Outstanding<'a> {
    id: u64,
    due: Instant,
    frame: &'a Pooled,
}

/// Open loop at `rate` frames/s for `duration`: frame `j` is due at
/// `start + j / rate` and goes out on connection `j % CLIENTS` whether or
/// not earlier frames have been answered. Each response is timed from its
/// frame's due time, so a stall charges every frame scheduled behind it.
pub fn open_loop(
    addr: SocketAddr,
    traffic: &Traffic,
    seq: &AtomicUsize,
    rate: f64,
    duration: Duration,
) -> Result<Phase, Error> {
    let conns = (0..CLIENTS)
        .map(|_| Conn::dial(addr))
        .collect::<Result<Vec<_>, _>>()?;
    let total_frames = (duration.as_secs_f64() * rate).ceil() as usize;
    let base = seq.fetch_add(total_frames, Ordering::Relaxed);
    // Let the connections settle before the schedule starts.
    let start = Instant::now() + Duration::from_millis(20);
    let phases = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(k, mut conn)| {
                s.spawn(move || {
                    generator(
                        &mut conn,
                        traffic,
                        base,
                        k,
                        rate,
                        total_frames,
                        start,
                        duration,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread"))
            .collect::<Vec<_>>()
    });
    let mut total = Phase::default();
    for phase in phases {
        total.merge(phase?);
    }
    total.elapsed_s = duration.as_secs_f64();
    Ok(total)
}

#[allow(clippy::too_many_arguments)]
fn generator(
    conn: &mut Conn,
    traffic: &Traffic,
    base: usize,
    k: usize,
    rate: f64,
    total_frames: usize,
    start: Instant,
    duration: Duration,
) -> Result<Phase, Error> {
    let mut phase = Phase::default();
    let mut outstanding = std::collections::VecDeque::new();
    let mut next = k;
    let mut id = 0u64;
    let end = start + duration;
    let due_of = |j: usize| start + Duration::from_secs_f64(j as f64 / rate);
    let mut backlog_taken = false;
    loop {
        let now = Instant::now();
        if !backlog_taken && now >= end {
            backlog_taken = true;
            // Frames due by now that are unsent or unanswered.
            let unsent = (next..total_frames).step_by(CLIENTS).count() as u64;
            phase.backlog_at_end = outstanding.len() as u64 + unsent;
        }
        let due_now = next < total_frames && now >= due_of(next);
        if due_now {
            let frame = traffic.frame(base + next);
            id += 1;
            let due = due_of(next);
            // The generator's own lateness: only counted when the
            // connection was free, so a stalled server does not show here.
            if outstanding.is_empty() {
                phase.lag.us.push((now - due).as_secs_f64() * 1e6);
            }
            conn.send(frame, id)?;
            phase.sent += 1;
            outstanding.push_back(Outstanding { id, due, frame });
            next += CLIENTS;
            // Behind schedule: pick up any responses before the next send,
            // so unread replies never back up into the server.
            if next < total_frames && Instant::now() >= due_of(next) {
                conn.fill(Duration::ZERO)?;
            }
        }
        while let Some(response) = conn.take_frame()? {
            let done = Instant::now();
            let Some(o) = outstanding.pop_front() else {
                return Err("response with nothing outstanding".into());
            };
            if response.request_id != o.id {
                return Err("response out of order".into());
            }
            score(
                &mut phase,
                o.frame,
                &response,
                (done - o.due).as_secs_f64() * 1e6,
            );
            phase.last_response_s = (done - start).as_secs_f64();
        }
        if due_now {
            continue;
        }
        if next >= total_frames && outstanding.is_empty() {
            break;
        }
        let wake = if next < total_frames {
            due_of(next)
        } else {
            end.max(now) + DRAIN
        };
        if next >= total_frames && now >= wake {
            phase.failed += outstanding.len() as u64;
            break;
        }
        conn.fill(wake.saturating_duration_since(Instant::now()))?;
    }
    Ok(phase)
}
