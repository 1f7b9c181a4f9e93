//! The end-to-end runs: set-up, the timed loop and the answer checks.
//!
//! `solve-synthetic` calls `Mc3Solver::solve_report` in this process;
//! the serve workloads spawn the `mc3` binary as `mc3 serve` on loopback.
//! Both are driven by the same closed loop of [`client_count`] threads,
//! because planning clients wait for their plan before asking for the
//! next one. Two threads also keep both cores of a small machine busy,
//! which measured far steadier than one thread beside an idle core.

use crate::check;
use crate::stats::ms;
use crate::streams::{body, Stream, Workload, SOLVE_TARGET};
use mc3_server::http::{read_response, write_request};
use mc3_solver::{Algorithm, Mc3Solver};
use mc3_workload::Dataset;
use std::io::{BufRead, BufReader};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Times the system is set up in one run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// Load threads (and, on the serve workloads, connections) at most.
const MAX_CLIENTS: usize = 2;

/// The load generator's thread and connection count: [`MAX_CLIENTS`],
/// never more than the cores this process may use.
pub fn client_count() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .min(MAX_CLIENTS)
}

/// What the timed loop of one run observed.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Latency of every completed request or solve, in milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Requests sent or solves started.
    pub sent: u64,
    /// Answers that passed the independent check.
    pub correct: u64,
    /// Correct answers within the workload's latency limit.
    pub within_limit: u64,
    /// Seconds from the first send to the last completion.
    pub elapsed_s: f64,
    /// The first few failure messages.
    pub errors: Vec<String>,
}

impl Outcome {
    fn record(&mut self, latency_ms: f64, verdict: Result<u64, String>, limit_ms: f64) {
        self.latencies_ms.push(latency_ms);
        match verdict {
            Ok(_) => {
                self.correct += 1;
                if latency_ms <= limit_ms {
                    self.within_limit += 1;
                }
            }
            Err(e) => self.fail(e),
        }
    }

    fn fail(&mut self, e: String) {
        if self.errors.len() < 5 {
            self.errors.push(e);
        }
    }

    fn merge(&mut self, other: Outcome) {
        self.latencies_ms.extend(other.latencies_ms);
        self.sent += other.sent;
        self.correct += other.correct;
        self.within_limit += other.within_limit;
        self.elapsed_s = self.elapsed_s.max(other.elapsed_s);
        for e in other.errors {
            self.fail(e);
        }
    }
}

/// A live `mc3 serve` child process; killed and reaped on drop.
pub struct ServerProcess {
    child: Child,
    // Held open so the server never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
}

impl ServerProcess {
    /// Spawns `mc3 serve` with its defaults on a free loopback port and
    /// waits for the address it announces.
    pub fn spawn(mc3: &Path) -> Result<ServerProcess, String> {
        let mut child = Command::new(mc3)
            .args(["serve", "--addr", "127.0.0.1:0", "--solve-threads", "2"])
            .env_remove("MC3_LOG")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", mc3.display()))?;
        let stdout = child.stdout.take().ok_or("server stdout not captured")?;
        let mut server = ServerProcess {
            child,
            _stdout: BufReader::new(stdout),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let mut line = String::new();
        server
            ._stdout
            .read_line(&mut line)
            .map_err(|e| format!("reading the server banner: {e}"))?;
        server.addr = line
            .trim()
            .rsplit("http://")
            .next()
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| format!("unexpected server banner '{}'", line.trim()))?;
        Ok(server)
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// One `GET` on a fresh connection: `(status, body)`.
    pub fn get(&self, path: &str) -> Result<(u16, Vec<u8>), String> {
        let mut conn = TcpStream::connect(self.addr).map_err(|e| format!("connect: {e}"))?;
        write_request(&mut conn, "GET", path, None).map_err(|e| format!("GET {path}: {e}"))?;
        read_response(&mut BufReader::new(conn)).map_err(|e| format!("GET {path}: {e}"))
    }

    /// Polls `/healthz` until it answers 200.
    pub fn wait_healthy(&self) -> Result<(), String> {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.get("/healthz") {
                Ok((200, _)) => return Ok(()),
                _ if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(5)),
                other => return Err(format!("/healthz never answered 200: {other:?}")),
            }
        }
    }

    /// The server's peak resident set (`VmHWM`), in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        vm_hwm_mb(&std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?)
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        // Best effort: the child may already have exited.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// `VmHWM` of a `/proc/<pid>/status` text, in MiB.
fn vm_hwm_mb(status: &str) -> Result<f64, String> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line".to_owned())
}

/// This process's peak resident set, in MiB.
pub fn own_peak_rss_mb() -> Result<f64, String> {
    vm_hwm_mb(&std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?)
}

/// One keep-alive client connection.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Result<Client, String> {
        let conn = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        conn.set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        conn.set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| format!("read timeout: {e}"))?;
        let writer = conn.try_clone().map_err(|e| format!("clone: {e}"))?;
        Ok(Client {
            reader: BufReader::new(conn),
            writer,
        })
    }

    fn solve(&mut self, body: &[u8]) -> Result<(u16, Vec<u8>), String> {
        write_request(&mut self.writer, "POST", SOLVE_TARGET, Some(body))
            .map_err(|e| format!("send: {e}"))?;
        read_response(&mut self.reader).map_err(|e| format!("receive: {e}"))
    }
}

/// Solves the workload's verification set once, checking every answer;
/// returns the total recomputed cost. This is the warm-up pass of every
/// set-up.
fn verification_pass(
    set: &[(Dataset, Vec<u8>)],
    server: Option<&ServerProcess>,
    solver: &Mc3Solver,
) -> Result<u64, String> {
    let mut total = 0u64;
    let mut client = server.map(|s| Client::connect(s.addr())).transpose()?;
    for (ds, wire) in set {
        let cost = match &mut client {
            Some(client) => {
                let (status, resp) = client.solve(wire)?;
                check::check_response(&ds.instance, status, &resp)?
            }
            None => {
                let report = solver
                    .solve_report(&ds.instance)
                    .map_err(|e| e.to_string())?;
                check::check_solution(&ds.instance, &report.solution)?
            }
        };
        total += cost;
    }
    Ok(total)
}

/// The solver configuration `solve-synthetic` measures: the defaults
/// (sequential, no cache) with `general`.
pub fn offline_solver() -> Mc3Solver {
    Mc3Solver::new().algorithm(Algorithm::General)
}

/// The system under test after set-up, ready for the timed loop.
pub struct Prepared {
    /// The median of the set-up times, in seconds.
    pub setup_s: f64,
    /// The verification set's total cost (identical across set-ups).
    pub solution_cost: u64,
    /// The live server, for the serve workloads.
    pub server: Option<ServerProcess>,
}

/// Sets the system up `setups` times — server spawn, `/healthz` 200 and
/// a warm-up pass over the verification set, or just the warm-up pass
/// in-process — and keeps the last one for the timed loop.
pub fn prepare(workload: Workload, mc3: &Path, setups: usize) -> Result<Prepared, String> {
    let solver = offline_solver();
    let set: Vec<(Dataset, Vec<u8>)> = workload
        .verification_set()
        .into_iter()
        .map(|ds| {
            let wire = body(&ds);
            (ds, wire)
        })
        .collect();
    let mut times = Vec::with_capacity(setups);
    let mut cost = None;
    let mut server = None;
    for _ in 0..setups {
        drop(server.take());
        let t0 = Instant::now();
        if workload.served() {
            let s = ServerProcess::spawn(mc3)?;
            s.wait_healthy()?;
            server = Some(s);
        }
        let c = verification_pass(&set, server.as_ref(), &solver)?;
        times.push(t0.elapsed().as_secs_f64());
        if cost.is_some_and(|prev| prev != c) {
            return Err(format!(
                "verification cost changed between set-ups: {cost:?} vs {c}"
            ));
        }
        cost = Some(c);
    }
    Ok(Prepared {
        setup_s: crate::stats::median(&times),
        solution_cost: cost.unwrap_or(0),
        server,
    })
}

/// One request as a load thread saw it.
enum Attempt {
    /// Answered after this many milliseconds; the verdict of the check.
    Done(f64, Result<u64, String>),
    /// Sent, but the connection broke before an answer arrived.
    Broken(String),
    /// Could not be sent at all; the thread stops.
    Stop(String),
}

/// Runs `clients` load threads until `seconds` have passed. Each thread
/// takes the next request index of the run and hands it to `attempt`
/// with its own state from `init`, starting its next request as soon as
/// the previous one finished.
fn drive<S>(
    clients: usize,
    seconds: f64,
    limit_ms: f64,
    init: impl Fn() -> S + Sync,
    attempt: impl Fn(&mut S, usize) -> Attempt + Sync,
) -> Outcome {
    let next = AtomicUsize::new(0);
    let total = Mutex::new(Outcome::default());
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..clients {
            scope.spawn(|| {
                let mut out = Outcome::default();
                let mut state = init();
                while start.elapsed().as_secs_f64() < seconds {
                    // A ticket counter: only uniqueness matters.
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    match attempt(&mut state, i) {
                        Attempt::Done(latency, verdict) => {
                            out.sent += 1;
                            out.elapsed_s = start.elapsed().as_secs_f64();
                            out.record(latency, verdict, limit_ms);
                        }
                        Attempt::Broken(e) => {
                            out.sent += 1;
                            out.fail(format!("request {i}: {e}"));
                        }
                        Attempt::Stop(e) => {
                            out.fail(e);
                            break;
                        }
                    }
                }
                total
                    .lock()
                    .expect("no load thread panics while holding the total")
                    .merge(out);
            });
        }
    });
    total.into_inner().expect("load threads finished")
}

/// The in-process timed loop of `solve-synthetic`: `clients` threads,
/// each solving the stream's next distinct instance as soon as its
/// previous solve finished, for `seconds`. Instances are generated and
/// answers checked outside the timed interval.
pub fn offline_loop(stream: &Stream, clients: usize, seconds: f64) -> Outcome {
    let limit = stream.workload().latency_limit_ms();
    drive(clients, seconds, limit, offline_solver, |solver, i| {
        let ds = stream.dataset(i);
        let t0 = Instant::now();
        let solved = solver.solve_report(std::hint::black_box(&ds.instance));
        let latency = ms(t0.elapsed());
        let verdict = solved
            .map_err(|e| e.to_string())
            .and_then(|r| check::check_solution(&ds.instance, &r.solution));
        Attempt::Done(latency, verdict)
    })
}

/// The closed loop of the serve workloads: `clients` connections, each
/// sending the next request of the stream as soon as its previous answer
/// arrived, until `seconds` have passed. Bodies are generated and answers
/// checked outside the timed interval.
pub fn closed_loop(addr: SocketAddr, stream: &Stream, clients: usize, seconds: f64) -> Outcome {
    let limit = stream.workload().latency_limit_ms();
    drive(
        clients,
        seconds,
        limit,
        || None,
        |client: &mut Option<Client>, i| {
            let conn = match client {
                Some(conn) => conn,
                None => match Client::connect(addr) {
                    Ok(conn) => client.insert(conn),
                    Err(e) => return Attempt::Stop(e),
                },
            };
            let ds = stream.dataset(i);
            let wire = body(&ds);
            let t0 = Instant::now();
            match conn.solve(&wire) {
                Ok((status, resp)) => Attempt::Done(
                    ms(t0.elapsed()),
                    check::check_response(&ds.instance, status, &resp),
                ),
                Err(e) => {
                    // The next request reconnects.
                    *client = None;
                    Attempt::Broken(e)
                }
            }
        },
    )
}
