//! The serving probe of the traced `eval` run.  An in-process `Server` +
//! `NetServer` holds a matvec model and a factored HSS ridge model; one
//! client process on two connections sends 3 `Query` : 1 `Solve` across
//! two tenants at a fixed 100 requests per second, first over the wire and
//! then through `ServeHandle::submit`.  Each request is timed from when it
//! was due to be sent, and every reply is checked bitwise.
//!
//! It reports the `serve`, `serve.net` and `factor` layers and the
//! generator's own lateness.  Wire latency is not an end-to-end metric: the
//! front-end polls in-flight requests every millisecond, so a reply waits
//! for the next tick, and a small shift in service time or host scheduling
//! moves the median by a whole tick.

use crate::common::{bitwise_eq, derive, rhs, rhs_matrix, Checks, Metrics};
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use matrox_core::{EvalSession, FactoredHMatrix, MatRoxParams, MatroxError};
use matrox_linalg::Matrix;
use matrox_points::{generate, DatasetId, Kernel, PointSet};
use matrox_serve::net::epoll::{Epoll, EpollEvent, EPOLLIN};
use matrox_serve::proto::{encode_frame, take_frame, FRAME_HEADER_BYTES};
use matrox_serve::{
    Model, NetConfig, NetServer, PendingResponse, Request, Response, ServeConfig, ServeHandle,
    Server,
};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const N: usize = 2048;
/// Requests per second of the open loop.
const RATE: f64 = 100.0;
/// Seconds of untimed requests before the timed phases.
const WARMUP_S: f64 = 1.0;
/// Seconds of each timed phase: over the wire, then in-process.
const PHASE_S: f64 = 4.0;
/// Distinct right-hand sides; requests draw from them so every reply can be
/// checked against a reference computed in setup.
const POOL: usize = 32;
const TENANTS: [&str; 2] = ["tenant-a", "tenant-b"];
/// Bound on the solve's relative residual `||K x - b|| / ||b||`.
const RESIDUAL_BOUND: f64 = 1e-4;
/// How long after its last due time a phase waits for stragglers.
const DRAIN: Duration = Duration::from_secs(2);

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    Query,
    Solve,
}

/// Field order matters: dropping a set-up stops the front-end, then the
/// reactor.
struct Setup {
    net: NetServer,
    server: Server,
    grid: PointSet,
    matvec: Arc<EvalSession>,
    solver: Arc<FactoredHMatrix>,
    pool: Vec<Vec<f64>>,
    /// Reference answers per pool entry: `evaluate_vec` and `solve`.
    expect_query: Vec<Vec<f64>>,
    expect_solve: Vec<Vec<f64>>,
}

/// The models are built untraced, so the inspector layers of the traced
/// run describe the `eval` model alone; only the factorization is timed.
fn setup(seed: u64, tr: &mut Tracer) -> Result<Setup, MatroxError> {
    let grid = generate(DatasetId::Grid, N, 0);
    let kernel = Kernel::Gaussian { bandwidth: 1.5 };
    let params = MatRoxParams::h2b().with_bacc(1e-5).with_leaf_size(32);
    let h = matrox_core::inspector_p2(
        &grid,
        &matrox_core::inspector_p1(&grid, &kernel, &params)?,
        &kernel,
        params.bacc,
    )?;
    let matvec = Arc::new(EvalSession::from_hmatrix(h));

    // The ridge model is built on the same grid.
    let (rkernel, rparams) = matrox_bench::solve_setting(N, 1e-7);
    let rh = matrox_core::inspector_p2(
        &grid,
        &matrox_core::inspector_p1(&grid, &rkernel, &rparams)?,
        &rkernel,
        rparams.bacc,
    )?;
    let solver = Arc::new(tr.span("factor.factorize", |_| rh.factorize())?);

    let pool: Vec<Vec<f64>> = (0..POOL as u64)
        .map(|i| rhs(N, derive(seed, 200 + i)))
        .collect();
    let expect_query = pool
        .iter()
        .map(|b| matvec.evaluate_vec(b))
        .collect::<Result<_, _>>()?;
    let expect_solve = pool
        .iter()
        .map(|b| solver.solve(b))
        .collect::<Result<_, _>>()?;

    let server = Server::spawn(ServeConfig::default())?;
    let handle = server.handle();
    handle.insert_model("matvec", Model::Matvec(Arc::clone(&matvec)))?;
    handle.insert_model("ridge", Model::Solve(Arc::clone(&solver)))?;
    let net = NetServer::spawn(handle, NetConfig::default())?;
    Ok(Setup {
        server,
        net,
        grid,
        matvec,
        solver,
        pool,
        expect_query,
        expect_solve,
    })
}

/// One scheduled request of the open loop.
#[derive(Clone, Copy)]
struct Planned {
    due: Instant,
    kind: Kind,
    tenant: usize,
    idx: usize,
}

/// The fixed schedule of one phase: request `j` is due at
/// `start + j / RATE`; tenant and right-hand side come from the seed.
fn schedule(seed: u64, phase: u64, secs: f64, start: Instant) -> Vec<Planned> {
    let count = (RATE * secs).round().max(1.0) as usize;
    (0..count)
        .map(|j| {
            let r = derive(seed, 10_000 * (phase + 1) + j as u64);
            Planned {
                due: start + Duration::from_secs_f64(j as f64 / RATE),
                kind: if j % 4 == 3 { Kind::Solve } else { Kind::Query },
                tenant: (r & 1) as usize,
                idx: (r >> 1) as usize % POOL,
            }
        })
        .collect()
}

fn request(kind: Kind, tenant: usize, rhs: &[f64]) -> Request {
    let (tenant, rhs) = (TENANTS[tenant].to_string(), rhs.to_vec());
    match kind {
        Kind::Query => Request::Query {
            model: "matvec".to_string(),
            tenant,
            rhs,
        },
        Kind::Solve => Request::Solve {
            model: "ridge".to_string(),
            tenant,
            rhs,
        },
    }
}

/// How one request ended.
#[derive(Clone, Copy, Debug, Default)]
struct Done {
    /// Milliseconds from due time to reply (None: failed or never answered).
    latency_ms: Option<f64>,
    /// Milliseconds from due time to the start of the send.
    late_ms: f64,
    batch_width: u64,
}

/// One reply as the receiver thread saw it.
struct Received {
    corr: u64,
    resp: Response,
    at: Instant,
}

/// Read whatever the kernel has on `stream` and decode every complete
/// frame, stamping them with the time the read finished.
fn read_frames(
    mut stream: &TcpStream,
    buf: &mut Vec<u8>,
    chunk: &mut [u8],
    out: &mut Vec<Received>,
) -> Result<(), MatroxError> {
    loop {
        match stream.read(chunk) {
            Ok(0) => return Err(MatroxError::Io(ErrorKind::UnexpectedEof.into())),
            Ok(k) => buf.extend_from_slice(&chunk[..k]),
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    let at = Instant::now();
    while let Some((corr, payload)) = take_frame(buf, 64 << 20)? {
        out.push(Received {
            corr,
            resp: Response::decode(&payload)?,
            at,
        });
    }
    Ok(())
}

/// Write all of `frame` to a non-blocking stream.
fn write_frame(mut stream: &TcpStream, mut frame: &[u8]) -> Result<(), MatroxError> {
    while !frame.is_empty() {
        match stream.write(frame) {
            Ok(0) => return Err(MatroxError::Io(ErrorKind::WriteZero.into())),
            Ok(k) => frame = &frame[k..],
            // The receiver keeps draining replies, so the server makes
            // progress and the socket buffer frees up.
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_micros(20));
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    Ok(())
}

/// The pre-encoded frame bodies, one per (kind, tenant, pool entry); the
/// correlation id in the header is patched in place at send time.
struct Frames {
    frames: Vec<Vec<u8>>,
}

impl Frames {
    fn new(pool: &[Vec<f64>]) -> Frames {
        let mut frames = Vec::new();
        for kind in [Kind::Query, Kind::Solve] {
            for tenant in 0..TENANTS.len() {
                for b in pool {
                    frames.push(encode_frame(0, &request(kind, tenant, b).encode()));
                }
            }
        }
        Frames { frames }
    }

    fn get(&mut self, p: &Planned, corr: u64) -> &[u8] {
        let k = usize::from(p.kind == Kind::Solve) * TENANTS.len() + p.tenant;
        let f = &mut self.frames[k * POOL + p.idx];
        f[4..FRAME_HEADER_BYTES].copy_from_slice(&corr.to_le_bytes());
        f
    }
}

/// Drive one schedule over two connections with two threads.  The calling
/// thread sleeps until each request is due and sends it; a receiver thread
/// blocks in epoll on both connections and stamps every reply as soon as
/// it is read, so replies are drained while the sender waits.  Neither
/// thread spins.
struct WireClient {
    conns: [TcpStream; 2],
    /// Receive buffers, kept across schedules so a frame that straddles
    /// the end of one is not lost.
    bufs: [Vec<u8>; 2],
    epoll: Epoll,
    next_corr: u64,
}

impl WireClient {
    fn open(addr: std::net::SocketAddr) -> Result<WireClient, MatroxError> {
        let connect = || -> Result<TcpStream, MatroxError> {
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            stream.set_nonblocking(true)?;
            Ok(stream)
        };
        let conns = [connect()?, connect()?];
        let epoll = Epoll::new()?;
        for (token, c) in conns.iter().enumerate() {
            epoll.add(c.as_raw_fd(), EPOLLIN, token as u64)?;
        }
        Ok(WireClient {
            conns,
            bufs: [Vec::new(), Vec::new()],
            epoll,
            next_corr: 1,
        })
    }

    /// Collect replies until `expected` have come, `deadline` passes or
    /// the sender gives up.
    fn receive(
        conns: &[TcpStream; 2],
        bufs: &mut [Vec<u8>; 2],
        epoll: &Epoll,
        expected: usize,
        deadline: Instant,
        stop: &AtomicBool,
    ) -> Result<Vec<Received>, MatroxError> {
        let mut out = Vec::with_capacity(expected);
        let mut events = [EpollEvent::default(); 2];
        let mut chunk = vec![0u8; 64 * 1024];
        while out.len() < expected && !stop.load(Ordering::Acquire) {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            let wait = (deadline - now).min(Duration::from_millis(100));
            for e in epoll.wait(&mut events, Some(wait))? {
                let i = e.data as usize;
                read_frames(&conns[i], &mut bufs[i], &mut chunk, &mut out)?;
            }
        }
        Ok(out)
    }

    fn run(
        &mut self,
        plan: &[Planned],
        frames: &mut Frames,
        s: &Setup,
        checks: &mut Checks,
    ) -> Result<Vec<Done>, MatroxError> {
        // Request j carries correlation id base + j.
        let base = self.next_corr;
        self.next_corr += plan.len() as u64;
        let deadline = plan.last().map_or_else(Instant::now, |p| p.due) + DRAIN;
        // When each send started.
        let mut sent = vec![Instant::now(); plan.len()];
        let stop = AtomicBool::new(false);
        let (conns, bufs, epoll) = (&self.conns, &mut self.bufs, &self.epoll);
        let received = std::thread::scope(|scope| {
            let receiver = scope
                .spawn(|| WireClient::receive(conns, bufs, epoll, plan.len(), deadline, &stop));
            let sending = (|| -> Result<(), MatroxError> {
                for (j, p) in plan.iter().enumerate() {
                    let now = Instant::now();
                    if p.due > now {
                        std::thread::sleep(p.due - now);
                    }
                    sent[j] = Instant::now();
                    write_frame(&conns[j % 2], frames.get(p, base + j as u64))?;
                }
                Ok(())
            })();
            if sending.is_err() {
                stop.store(true, Ordering::Release);
            }
            let received = receiver.join().map_err(|_| {
                MatroxError::Io(std::io::Error::other("the receiver thread panicked"))
            })?;
            sending.and(received)
        })?;

        let mut done: Vec<Done> = plan
            .iter()
            .zip(&sent)
            .map(|(p, start)| Done {
                late_ms: start.saturating_duration_since(p.due).as_secs_f64() * 1e3,
                ..Done::default()
            })
            .collect();
        let mut mismatched = 0usize;
        for Received { corr, resp, at } in received {
            // Stragglers of an earlier schedule fall outside the range.
            let Some(j) = corr.checked_sub(base).map(|j| j as usize) else {
                continue;
            };
            let (Some(p), Response::Reply { y, batch_width, .. }) = (plan.get(j), resp) else {
                continue;
            };
            let expect = match p.kind {
                Kind::Query => &s.expect_query[p.idx],
                Kind::Solve => &s.expect_solve[p.idx],
            };
            if !bitwise_eq(&y, expect) {
                // A wrong answer counts as a failed request.
                mismatched += 1;
                continue;
            }
            done[j].latency_ms = Some(at.saturating_duration_since(p.due).as_secs_f64() * 1e3);
            done[j].batch_width = batch_width;
        }
        checks.check(mismatched == 0, || {
            format!("{mismatched} wire replies differ from evaluate_vec / solve on the same RHS")
        });
        Ok(done)
    }
}

fn answered(done: &[Done]) -> Vec<f64> {
    done.iter().filter_map(|d| d.latency_ms).collect()
}

/// The same kind of schedule through the in-process handle, without the
/// wire.  Returns the latencies of the requests answered.
fn inproc(plan: &[Planned], handle: &ServeHandle, s: &Setup) -> Vec<f64> {
    let mut flying: Vec<(Instant, PendingResponse)> = Vec::new();
    let mut lat = Vec::new();
    let poll = |flying: &mut Vec<(Instant, PendingResponse)>, lat: &mut Vec<f64>| {
        flying.retain_mut(|(due, p)| match p.try_take() {
            Some(Response::Reply { .. }) => {
                lat.push(due.elapsed().as_secs_f64() * 1e3);
                false
            }
            Some(_) => false,
            None => true,
        });
    };
    for p in plan {
        loop {
            poll(&mut flying, &mut lat);
            let now = Instant::now();
            if now >= p.due {
                break;
            }
            std::thread::sleep((p.due - now).min(Duration::from_micros(50)));
        }
        flying.push((
            p.due,
            handle.submit(request(p.kind, p.tenant, &s.pool[p.idx])),
        ));
    }
    let deadline = Instant::now() + DRAIN;
    while !flying.is_empty() && Instant::now() < deadline {
        poll(&mut flying, &mut lat);
        std::thread::sleep(Duration::from_micros(50));
    }
    lat
}

/// Run the probe and add its layer metrics to `m`.  Returns the requests
/// attempted and those that failed or went unanswered.
pub fn probe(
    seed: u64,
    tr: &mut Tracer,
    m: &mut Metrics,
    checks: &mut Checks,
) -> Result<(u64, u64), MatroxError> {
    let s = setup(seed, tr)?;
    let mut frames = Frames::new(&s.pool);
    let mut client = WireClient::open(s.net.addr())?;

    // Warm the connections, the front-end, the reactor and the pool.  These
    // replies are checked and counted, not timed.
    let warm = client.run(
        &schedule(seed, 0, WARMUP_S, Instant::now()),
        &mut frames,
        &s,
        checks,
    )?;
    let wire = client.run(
        &schedule(seed, 1, PHASE_S, Instant::now()),
        &mut frames,
        &s,
        checks,
    )?;
    let handle = s.server.handle();
    let plan = schedule(seed, 2, PHASE_S, Instant::now());
    let local = inproc(&plan, &handle, &s);

    let wire_lat = answered(&wire);
    crate::report::timing("serve probe, wire latency", &wire_lat);
    let wire_p50 = median(&wire_lat).unwrap_or(0.0);
    let local_p50 = median(&local).unwrap_or(0.0);
    m.insert("serve.net.p50_ms", wire_p50);
    m.insert("serve.inproc_p50_ms", local_p50);
    m.insert("serve.net.overhead_ms", wire_p50 - local_p50);
    let late: Vec<f64> = wire.iter().map(|d| d.late_ms).collect();
    m.insert("gen.late_p99_ms", percentile(&late, 99.0).unwrap_or(0.0));

    // The executor at the batch width the server actually formed.
    let width = wire.iter().map(|d| d.batch_width).sum::<u64>() as f64 / wire.len().max(1) as f64;
    let narrow = rhs_matrix(N, (width.round() as usize).max(1), derive(seed, 5));
    for _ in 0..20 {
        tr.span("exec.narrow", |_| s.matvec.evaluate(&narrow))?;
    }
    for i in 0..9 {
        tr.span("factor.solve", |_| s.solver.solve(&s.pool[i % POOL]))?;
    }
    m.insert(
        "factor.ridge_attempts",
        f64::from(s.solver.factor.timings.ridge_attempts),
    );
    // Solve accuracy on a served right-hand side (replies were checked
    // bitwise against `solve`, so its residual is the served one's).
    let b = Matrix::from_vec(N, 1, s.pool[0].clone());
    let x = Matrix::from_vec(N, 1, s.expect_solve[0].clone());
    let residual = s.solver.relative_residual(&s.grid, &x, &b);
    checks.check(residual <= RESIDUAL_BOUND, || {
        format!("solve relative residual {residual:e} exceeds {RESIDUAL_BOUND:e}")
    });

    let t = handle.stats()?.totals();
    m.insert("serve.queue_wait_ms", t.mean_queue_wait_seconds() * 1e3);
    m.insert("serve.service_ms", t.mean_service_seconds() * 1e3);
    m.insert("serve.mean_batch_width", t.mean_batch_width());
    m.insert("serve.errors", t.errors as f64);
    drop(client);
    let net_stats = s.net.shutdown()?;
    s.server.shutdown()?;
    m.insert("serve.net.shed", net_stats.shed as f64);
    m.insert("serve.net.expired", net_stats.expired as f64);
    m.insert("serve.net.decode_errors", net_stats.decode_errors as f64);

    let attempted = warm.len() + wire.len() + plan.len();
    let ok = answered(&warm).len() + wire_lat.len() + local.len();
    Ok((attempted as u64, (attempted - ok) as u64))
}
