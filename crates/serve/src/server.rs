//! The `polymem serve` daemon.
//!
//! A persistent compile service over plain TCP + line-delimited JSON
//! (std only; the build environment has no reachable crates-io
//! mirror). `threads` acceptor/worker threads all block on one shared
//! listener; each connection is served by the thread that accepted it,
//! one request per line, one JSON response per line. All connections
//! share:
//!
//! - one warm in-memory [`PlanLru`] of symbolic plans, keyed by the
//!   same content address as the on-disk store, with LRU eviction and
//!   generation-bumping invalidation;
//! - one [`ArtifactStore`] directory (when configured), so plans
//!   survive daemon restarts;
//! - one [`LaunchGate`] bounding how many block launches run
//!   concurrently on the executor's worker pool (requests over the
//!   limit queue on the gate, batching launches instead of
//!   oversubscribing the host).
//!
//! ## Protocol
//!
//! Requests (one JSON object per line):
//!
//! ```text
//! {"cmd":"run","kernel":"me","machine":"gpu","size":32}
//! {"cmd":"analyze","kernel":"jacobi2d","machine":"cell","size":32}
//! {"cmd":"ping"} | {"cmd":"stats"} | {"cmd":"invalidate"} | {"cmd":"shutdown"}
//! ```
//!
//! Optional request fields: `double_buffer`, `hierarchy`, `residency`
//! (booleans; defaults false/true/true like the CLI), and `tuned`
//! (boolean): resolve the autotuned mapping for the kernel from the
//! tune artifact store (`polymem tune` writes it; zero search cost
//! when warm, a fresh pruned search otherwise) and execute that
//! instead of the preset — the response's `mapping` field reports
//! which mapping ran. Any other field is ignored.
//! Responses always carry `"ok"`; failures add `"error"` and a
//! `"class"` (`usage` | `compile` | `runtime`) mirroring the CLI's
//! exit-code taxonomy. `run` responses carry the result `checksum`
//! (FNV-1a over the checked output array, bit-comparable with a direct
//! in-process `execute_blocked` of the same launch), `plan_source`
//! (`seeded` | `artifact` | `fresh` | `none`), wall-clock `elapsed_ns`
//! and the §3 `analysis_ns` actually spent compiling (zero on seed and
//! artifact hits). `stats` adds the per-phase ledger (`phases`: per
//! [`Phase`], the count, total, p50 and p99 of a
//! [`Ledger`](polymem_machine::Ledger)).
//!
//! Each reply line leaves in one write on a `TCP_NODELAY` socket: a
//! reply split across writes would park its tail behind Nagle until
//! the client's delayed ACK (~40 ms on Linux). Clients should likewise
//! send each request line in one write.
//!
//! [`ArtifactStore`]: polymem_core::smem::ArtifactStore

use crate::lru::PlanLru;
use crate::workload;
use crate::Json;
use polymem_kernels::builtins::{launch, Launch};
use polymem_machine::{
    execute_blocked_seeded, plan_artifact_key, warm_plan, Laps, LaunchToggles, Ledger,
    PassProfiler, PlanSource, Rows,
};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Reject request lines longer than this (a hostile client must not
/// grow the line buffer without bound): the read stops one byte past
/// it, answers a usage error and closes the connection.
const MAX_LINE_BYTES: usize = 1 << 20;

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address; port `0` picks a free port (the handle reports
    /// the resolved address).
    pub addr: String,
    /// Acceptor/worker threads (one connection each at a time).
    pub threads: usize,
    /// Artifact-store directory plans persist to across restarts;
    /// `None` keeps the cache in-memory only.
    pub artifact_dir: Option<String>,
    /// Warm-cache capacity in plans.
    pub lru_capacity: usize,
    /// Maximum concurrently executing launches; further `run`
    /// requests queue on the gate.
    pub launch_slots: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7311".into(),
            threads: 4,
            artifact_dir: None,
            lru_capacity: 64,
            launch_slots: 2,
        }
    }
}

/// A counting semaphore over `Mutex` + `Condvar`: bounds concurrent
/// launches without busy-waiting.
struct LaunchGate {
    slots: usize,
    busy: Mutex<usize>,
    cv: Condvar,
}

impl LaunchGate {
    fn new(slots: usize) -> LaunchGate {
        LaunchGate {
            slots: slots.max(1),
            busy: Mutex::new(0),
            cv: Condvar::new(),
        }
    }

    fn acquire(&self) -> GateGuard<'_> {
        let mut n = self.busy.lock().unwrap();
        while *n >= self.slots {
            n = self.cv.wait(n).unwrap();
        }
        *n += 1;
        GateGuard { gate: self }
    }
}

struct GateGuard<'a> {
    gate: &'a LaunchGate,
}

impl Drop for GateGuard<'_> {
    fn drop(&mut self) {
        let mut n = self.gate.busy.lock().unwrap();
        *n -= 1;
        self.gate.cv.notify_one();
    }
}

/// The phases of one request, in the order a request passes them;
/// `Request` is the whole interval, from the moment its line is
/// complete until its reply's write returns.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    /// Request JSON and, for `run` / `analyze`, the launch request.
    Parse,
    /// Machine lookup, `launch()`, the plan key, the warm-cache probe
    /// and a `run`'s seeded input store.
    Resolve,
    /// Waiting for a launch slot (`run` only: `analyze` takes none).
    Gate,
    /// `execute_blocked_seeded` / `warm_plan`.
    Execute,
    /// Everything after execution up to the reply string: cache
    /// insert, checksum, serialisation (the whole answer for the
    /// commands that do not launch).
    Reply,
    /// The one socket write of the reply line.
    Write,
    /// Line complete to write returned.
    Request,
}

impl Rows for Phase {
    const ALL: &'static [Phase] = &[
        Phase::Parse,
        Phase::Resolve,
        Phase::Gate,
        Phase::Execute,
        Phase::Reply,
        Phase::Write,
        Phase::Request,
    ];

    fn index(self) -> usize {
        self as usize
    }

    fn name(self) -> &'static str {
        match self {
            Phase::Parse => "parse",
            Phase::Resolve => "resolve",
            Phase::Gate => "gate",
            Phase::Execute => "execute",
            Phase::Reply => "reply",
            Phase::Write => "write",
            Phase::Request => "request",
        }
    }
}

/// State shared by all worker threads.
struct Shared {
    lru: PlanLru,
    gate: LaunchGate,
    artifact_dir: Option<String>,
    stop: AtomicBool,
    requests: AtomicU64,
    errors: AtomicU64,
    ledger: Ledger<Phase>,
    addr: SocketAddr,
    threads: usize,
}

impl Shared {
    /// Stop the daemon: raise `stop`, then wake every worker parked in
    /// `accept()` with one connection each (a worker serving a
    /// connection notices `stop` at its next read timeout).
    fn stop_and_wake(&self) {
        self.stop.store(true, Ordering::SeqCst);
        for _ in 0..self.threads {
            let _ = TcpStream::connect(self.addr);
        }
    }
}

/// The daemon. [`Server::start`] binds, spawns the workers and
/// returns a handle; the process keeps serving until `shutdown` (a
/// protocol request or [`ServerHandle::shutdown`]).
pub struct Server;

/// A running daemon: resolved address plus the join/shutdown handle.
pub struct ServerHandle {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind `cfg.addr` and start serving on `cfg.threads` threads.
    pub fn start(cfg: ServeConfig) -> io::Result<ServerHandle> {
        let listener = Arc::new(TcpListener::bind(&cfg.addr)?);
        let addr = listener.local_addr()?;
        let threads = cfg.threads.max(1);
        let shared = Arc::new(Shared {
            lru: PlanLru::new(cfg.lru_capacity),
            gate: LaunchGate::new(cfg.launch_slots),
            artifact_dir: cfg.artifact_dir.clone(),
            stop: AtomicBool::new(false),
            requests: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            ledger: Ledger::new(),
            addr,
            threads,
        });
        let workers = (0..threads)
            .map(|_| {
                let listener = listener.clone();
                let shared = shared.clone();
                std::thread::spawn(move || {
                    loop {
                        if shared.stop.load(Ordering::SeqCst) {
                            break;
                        }
                        match listener.accept() {
                            Ok((stream, _)) => {
                                if shared.stop.load(Ordering::SeqCst) {
                                    break;
                                }
                                let _ = serve_connection(stream, &shared);
                            }
                            // Transient accept errors (EMFILE, aborted
                            // handshakes) must not kill the worker.
                            Err(_) => {
                                if shared.stop.load(Ordering::SeqCst) {
                                    break;
                                }
                            }
                        }
                    }
                })
            })
            .collect();
        Ok(ServerHandle { shared, workers })
    }
}

impl ServerHandle {
    /// The resolved bind address (useful with port `0`).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Stop accepting, wake the workers and join them.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    /// Block until the daemon stops on its own (a protocol `shutdown`
    /// request) — the foreground `polymem serve` mode.
    pub fn join(mut self) {
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }

    fn stop_and_join(&mut self) {
        self.shared.stop_and_wake();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if !self.workers.is_empty() {
            self.stop_and_join();
        }
    }
}

/// Serve one accepted connection: request per line, response per line,
/// until EOF, a shutdown request, or daemon stop. Reads use a short
/// timeout so a worker parked on an idle connection notices `stop`
/// (otherwise [`ServerHandle::shutdown`] would join it forever);
/// `read_until` keeps partially received bytes across timeouts, and
/// reads at most one byte past [`MAX_LINE_BYTES`] of a line.
fn serve_connection(stream: TcpStream, shared: &Shared) -> io::Result<()> {
    stream.set_read_timeout(Some(std::time::Duration::from_millis(200)))?;
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut out = stream;
    let mut raw: Vec<u8> = Vec::new();
    loop {
        let room = (MAX_LINE_BYTES + 1 - raw.len()) as u64;
        match reader.by_ref().take(room).read_until(b'\n', &mut raw) {
            Ok(0) => return Ok(()),
            Ok(_) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if shared.stop.load(Ordering::SeqCst) {
                    return Ok(());
                }
                continue;
            }
            Err(e) => return Err(e),
        }
        if raw.len() > MAX_LINE_BYTES {
            shared.requests.fetch_add(1, Ordering::Relaxed);
            shared.errors.fetch_add(1, Ordering::Relaxed);
            let mut wire = err(
                "usage",
                &format!("request line exceeds {MAX_LINE_BYTES} bytes"),
            );
            wire.push('\n');
            return out.write_all(wire.as_bytes());
        }
        let mut laps = Laps::start();
        let line = String::from_utf8_lossy(&raw).trim().to_string();
        if line.is_empty() {
            raw.clear();
            continue;
        }
        shared.requests.fetch_add(1, Ordering::Relaxed);
        let (mut wire, shutdown) = handle_line(&line, shared, &mut laps);
        raw.clear();
        wire.push('\n');
        let sent = out.write_all(wire.as_bytes());
        laps.lap(Phase::Write);
        laps.commit(&shared.ledger, Phase::Request);
        sent?;
        if shutdown {
            shared.stop_and_wake();
            return Ok(());
        }
    }
}

fn obj(fields: Vec<(&str, Json)>) -> String {
    Json::obj(fields).to_string()
}

fn err(class: &str, msg: &str) -> String {
    obj(vec![
        ("ok", false.into()),
        ("class", class.into()),
        ("error", msg.into()),
    ])
}

fn source_str(source: Option<PlanSource>) -> &'static str {
    match source {
        Some(PlanSource::Seeded) => "seeded",
        Some(PlanSource::Artifact) => "artifact",
        Some(PlanSource::Fresh) => "fresh",
        None => "none",
    }
}

/// One parsed request: which launch, under which toggles.
struct Request {
    kernel: String,
    machine: String,
    size: i64,
    toggles: LaunchToggles,
    tuned: bool,
}

impl Request {
    fn from(v: &Json, artifact_dir: &Option<String>) -> Request {
        let defaults = LaunchToggles::default();
        let b = |k: &str, d: bool| v.get(k).and_then(Json::as_bool).unwrap_or(d);
        Request {
            kernel: v
                .get("kernel")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string(),
            machine: v
                .get("machine")
                .and_then(Json::as_str)
                .unwrap_or("gpu")
                .to_string(),
            size: v.get("size").and_then(Json::as_i64).unwrap_or(16),
            toggles: LaunchToggles {
                double_buffer: b("double_buffer", defaults.double_buffer),
                hierarchy: b("hierarchy", defaults.hierarchy),
                residency: b("residency", defaults.residency),
                artifact_dir: artifact_dir.clone(),
            },
            tuned: b("tuned", false),
        }
    }
}

/// Parse and dispatch one request line. Returns the response line and
/// whether the daemon should shut down; `laps` closes every phase up
/// to `reply`.
fn handle_line(line: &str, shared: &Shared, laps: &mut Laps<Phase>) -> (String, bool) {
    let v = Json::parse(line);
    let cmd = v
        .as_ref()
        .map(|v| v.get("cmd").and_then(Json::as_str).unwrap_or(""));
    let req = match (&v, cmd) {
        (Some(v), Some("run" | "analyze")) => Some(Request::from(v, &shared.artifact_dir)),
        _ => None,
    };
    laps.lap(Phase::Parse);
    let resp = match (cmd, &req) {
        (None, _) => {
            shared.errors.fetch_add(1, Ordering::Relaxed);
            err("usage", "request is not valid JSON")
        }
        (Some("run"), Some(req)) => handle_run(req, shared, laps),
        (Some("analyze"), Some(req)) => handle_analyze(req, shared, laps),
        (Some(cmd), _) => handle_command(cmd, shared),
    };
    laps.lap(Phase::Reply);
    (resp, cmd == Some("shutdown"))
}

/// The commands that launch nothing.
fn handle_command(cmd: &str, shared: &Shared) -> String {
    match cmd {
        "ping" => obj(vec![
            ("ok", true.into()),
            ("pong", true.into()),
            (
                "schema",
                format!("{:016x}", polymem_core::smem::artifact::schema_hash()).into(),
            ),
        ]),
        "stats" => {
            let s = shared.lru.stats();
            obj(vec![
                ("ok", true.into()),
                ("requests", shared.requests.load(Ordering::Relaxed).into()),
                ("errors", shared.errors.load(Ordering::Relaxed).into()),
                ("lru_hits", s.hits.into()),
                ("lru_misses", s.misses.into()),
                ("lru_evictions", s.evictions.into()),
                ("lru_resident", s.resident.into()),
                ("generation", s.generation.into()),
                ("artifact_dir", shared.artifact_dir.clone().into()),
                ("phases", shared.ledger.to_json()),
            ])
        }
        "invalidate" => {
            let g = shared.lru.invalidate();
            obj(vec![("ok", true.into()), ("generation", g.into())])
        }
        "shutdown" => obj(vec![("ok", true.into())]),
        other => {
            shared.errors.fetch_add(1, Ordering::Relaxed);
            err("usage", &format!("unknown cmd `{other}`"))
        }
    }
}

/// Resolve a request's launch and content address, plus the
/// warm-cache seed if the plan is already resident. Any registered
/// machine works (`cpu` stays an accepted alias for `host`). For
/// `tuned` requests the preset mapping (and the request's execution
/// toggles) are replaced by the autotuned winner — the search, if the
/// tune artifact is cold, runs under the launch gate; the returned
/// label reports which mapping runs.
#[allow(clippy::type_complexity)]
fn prepare(
    req: &Request,
    shared: &Shared,
) -> Result<
    (
        Launch,
        Option<String>,
        Option<Arc<polymem_core::smem::SymbolicPlan>>,
        Option<String>,
    ),
    String,
> {
    let Some(desc) = polymem_machine::desc::lookup(&req.machine) else {
        return Err(err("usage", &format!("unknown machine `{}`", req.machine)));
    };
    let resolved = {
        let _slot = req.tuned.then(|| shared.gate.acquire());
        launch(
            &req.kernel,
            req.size,
            &desc.config(),
            &req.toggles,
            req.tuned,
        )
    };
    let Some(l) = resolved else {
        return Err(err("usage", &format!("unknown kernel `{}`", req.kernel)));
    };
    let mapping = l.tune.as_ref().map(|t| match t {
        Ok(source) => format!("{} [{source}]", l.mapping.label()),
        Err(m) => format!("preset [tune failed: {m}]"),
    });
    let key_hex = match plan_artifact_key(&l.kernel, &l.params, &l.config) {
        Ok(k) => k.map(|k| k.to_string()),
        Err(e) => return Err(err("compile", &e.to_string())),
    };
    let seed = key_hex.as_deref().and_then(|k| shared.lru.get(k));
    Ok((l, key_hex, seed, mapping))
}

fn handle_run(req: &Request, shared: &Shared, laps: &mut Laps<Phase>) -> String {
    let prepared = prepare(req, shared).and_then(|(w, key_hex, seed, mapping)| {
        let st = w
            .seeded_store(42)
            .map_err(|e| err("compile", &e.to_string()))?;
        Ok((w, key_hex, seed, mapping, st))
    });
    laps.lap(Phase::Resolve);
    let (w, key_hex, seed, mapping, mut st) = match prepared {
        Ok(p) => p,
        Err(resp) => {
            shared.errors.fetch_add(1, Ordering::Relaxed);
            return resp;
        }
    };
    let profiler = PassProfiler::new();
    let t0 = Instant::now();
    let outcome = {
        let _slot = shared.gate.acquire();
        laps.lap(Phase::Gate);
        execute_blocked_seeded(
            &w.kernel,
            &w.params,
            &mut st,
            &w.config,
            true,
            Some(&profiler),
            seed.as_ref(),
        )
    };
    let elapsed = t0.elapsed();
    laps.lap(Phase::Execute);
    let (stats, warmed) = match outcome {
        Ok(r) => r,
        Err(e) => {
            shared.errors.fetch_add(1, Ordering::Relaxed);
            return err("runtime", &e.to_string());
        }
    };
    let source = warmed.as_ref().map(|(_, s)| *s);
    if let (Some(kh), Some((sp, _))) = (&key_hex, &warmed) {
        shared.lru.insert(kh.clone(), sp.clone());
    }
    let analysis_ns = profiler.report().compiler_total().as_nanos() as u64;
    let checksum = match st.data(w.check) {
        Ok(data) => workload::checksum(data),
        Err(e) => {
            shared.errors.fetch_add(1, Ordering::Relaxed);
            return err("runtime", &e.to_string());
        }
    };
    let mut fields = vec![
        ("ok", true.into()),
        ("kernel", req.kernel.as_str().into()),
        ("machine", req.machine.as_str().into()),
        ("size", req.size.into()),
        ("mapping", mapping.into()),
        ("plan_source", source_str(source).into()),
        ("key", key_hex.into()),
        ("checksum", format!("{checksum:016x}").into()),
        ("elapsed_ns", Json::Num(elapsed.as_nanos() as f64)),
        ("analysis_ns", analysis_ns.into()),
    ];
    // The launch counters a reply carries, under the names the one
    // stats schema gives them.
    let counters = stats.to_json();
    for name in [
        "blocks",
        "rounds",
        "instances",
        "plan_cache_hits",
        "plan_cache_misses",
    ] {
        fields.push((name, counters.get(name).expect("a stats counter").clone()));
    }
    fields.push(("generation", shared.lru.stats().generation.into()));
    obj(fields)
}

fn handle_analyze(req: &Request, shared: &Shared, laps: &mut Laps<Phase>) -> String {
    let prepared = prepare(req, shared);
    laps.lap(Phase::Resolve);
    let (w, key_hex, seed, mapping) = match prepared {
        Ok(p) => p,
        Err(resp) => {
            shared.errors.fetch_add(1, Ordering::Relaxed);
            return resp;
        }
    };
    let profiler = PassProfiler::new();
    let t0 = Instant::now();
    let warmed = warm_plan(
        &w.kernel,
        &w.params,
        &w.config,
        Some(&profiler),
        seed.as_ref(),
    );
    let elapsed = t0.elapsed();
    laps.lap(Phase::Execute);
    let warmed = match warmed {
        Ok(r) => r,
        Err(e) => {
            shared.errors.fetch_add(1, Ordering::Relaxed);
            return err("compile", &e.to_string());
        }
    };
    let source = warmed.as_ref().map(|(_, s)| *s);
    if let (Some(kh), Some((sp, _))) = (&key_hex, &warmed) {
        shared.lru.insert(kh.clone(), sp.clone());
    }
    let analysis_ns = profiler.report().compiler_total().as_nanos() as u64;
    let mut fields = vec![
        ("ok", true.into()),
        ("kernel", req.kernel.as_str().into()),
        ("machine", req.machine.as_str().into()),
        ("mapping", mapping.into()),
        ("plan_source", source_str(source).into()),
        ("key", key_hex.into()),
        ("elapsed_ns", Json::Num(elapsed.as_nanos() as f64)),
        ("analysis_ns", analysis_ns.into()),
    ];
    if let Some((sp, _)) = &warmed {
        fields.push(("buffers", sp.plan.buffers.len().into()));
        fields.push(("fixed", sp.fixed.clone().into()));
        fields.push(("hierarchy_plan", sp.hier.is_some().into()));
        fields.push(("residency_plan", sp.residency.is_some().into()));
    }
    obj(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn client(addr: SocketAddr) -> (BufReader<TcpStream>, TcpStream) {
        let stream = TcpStream::connect(addr).unwrap();
        (BufReader::new(stream.try_clone().unwrap()), stream)
    }

    /// One request line, sent in one write.
    fn request(reader: &mut BufReader<TcpStream>, out: &mut TcpStream, line: &str) -> Json {
        out.write_all(format!("{line}\n").as_bytes()).unwrap();
        let mut resp = String::new();
        reader.read_line(&mut resp).unwrap();
        Json::parse(resp.trim()).expect("response is JSON")
    }

    fn start_local() -> ServerHandle {
        Server::start(ServeConfig {
            addr: "127.0.0.1:0".into(),
            threads: 2,
            artifact_dir: None,
            lru_capacity: 8,
            launch_slots: 2,
        })
        .unwrap()
    }

    #[test]
    fn ping_stats_and_errors_round_trip() {
        let h = start_local();
        let (mut r, mut w) = client(h.addr());
        let pong = request(&mut r, &mut w, r#"{"cmd":"ping"}"#);
        assert_eq!(pong.get("ok").unwrap().as_bool(), Some(true));
        let bad = request(&mut r, &mut w, "not json");
        assert_eq!(bad.get("class").unwrap().as_str(), Some("usage"));
        let unknown = request(&mut r, &mut w, r#"{"cmd":"frobnicate"}"#);
        assert_eq!(unknown.get("ok").unwrap().as_bool(), Some(false));
        let stats = request(&mut r, &mut w, r#"{"cmd":"stats"}"#);
        assert!(stats.get("requests").unwrap().as_i64().unwrap() >= 3);
        h.shutdown();
    }

    /// A reply split across two writes waits for the client's delayed
    /// ACK (>= 40 ms on Linux) before its tail leaves; one write on a
    /// no-delay socket answers a ping in well under a millisecond.
    #[test]
    fn replies_do_not_wait_for_a_delayed_ack() {
        let h = start_local();
        let (mut r, mut w) = client(h.addr());
        w.set_nodelay(true).unwrap();
        let mut ms: Vec<f64> = (0..20)
            .map(|_| {
                let t0 = Instant::now();
                let pong = request(&mut r, &mut w, r#"{"cmd":"ping"}"#);
                assert_eq!(pong.get("pong").unwrap().as_bool(), Some(true));
                t0.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        ms.sort_by(f64::total_cmp);
        assert!(ms[10] < 10.0, "median ping round trip {:.3} ms", ms[10]);
        h.shutdown();
    }

    #[test]
    fn ledger_phases_count_what_they_reach_and_sum_to_the_request() {
        let h = start_local();
        let (mut r, mut w) = client(h.addr());
        let run = r#"{"cmd":"run","kernel":"me","machine":"gpu","size":8}"#;
        let analyze = r#"{"cmd":"analyze","kernel":"matmul","machine":"cell","size":8}"#;
        let mix = [
            run,
            "{nope",
            analyze,
            r#"{"cmd":"ping"}"#,
            run,
            analyze,
            run,
        ];
        for line in mix {
            request(&mut r, &mut w, line);
        }
        let stats = request(&mut r, &mut w, r#"{"cmd":"stats"}"#);
        let phases = stats.get("phases").expect("stats reports the ledger");
        let field = |phase: &str, k: &str| match phases.get(phase).and_then(|p| p.get(k)) {
            Some(Json::Num(x)) => *x,
            other => panic!("{phase}.{k}: {other:?}"),
        };
        // `stats` itself is committed after its reply is built.
        let (all, runs, launches) = (mix.len() as f64, 3.0, 5.0);
        for (phase, want) in [
            ("parse", all),
            ("resolve", launches),
            ("gate", runs),
            ("execute", launches),
            ("reply", all),
            ("write", all),
            ("request", all),
        ] {
            assert_eq!(field(phase, "count"), want, "{phase} count");
            assert!(field(phase, "p50_us") <= field(phase, "p99_us"), "{phase}");
        }
        let summed: f64 = ["parse", "resolve", "gate", "execute", "reply", "write"]
            .iter()
            .map(|p| field(p, "total_ms"))
            .sum();
        let request_ms = field("request", "total_ms");
        assert!(request_ms > 0.0);
        assert!(
            (summed / request_ms - 1.0).abs() <= 0.05,
            "phases sum to {summed} ms, requests took {request_ms} ms"
        );
        h.shutdown();
    }

    /// A line longer than `MAX_LINE_BYTES` is refused as soon as that
    /// many bytes have arrived, not after the client stops sending.
    #[test]
    fn an_over_long_line_is_refused_while_bytes_still_arrive() {
        let h = start_local();
        let (mut r, w) = client(h.addr());
        r.get_ref()
            .set_read_timeout(Some(std::time::Duration::from_secs(20)))
            .unwrap();
        let flood = std::thread::spawn(move || {
            let mut w = w;
            let chunk = vec![b'x'; 64 << 10];
            // 8 MiB, no newline; the daemon hangs up part-way.
            for _ in 0..128 {
                if w.write_all(&chunk).is_err() {
                    break;
                }
            }
        });
        let mut resp = String::new();
        let _ = r.read_line(&mut resp);
        let reply = Json::parse(resp.trim()).unwrap_or(Json::Null);
        assert_eq!(
            reply.get("ok").and_then(Json::as_bool),
            Some(false),
            "{resp:?}"
        );
        assert_eq!(reply.get("class").and_then(Json::as_str), Some("usage"));
        assert_eq!(
            reply.get("error").and_then(Json::as_str),
            Some("request line exceeds 1048576 bytes")
        );
        flood.join().unwrap();
        h.shutdown();
    }

    #[test]
    fn shutdown_request_wakes_every_worker() {
        let h = Server::start(ServeConfig {
            addr: "127.0.0.1:0".into(),
            threads: 32,
            artifact_dir: None,
            lru_capacity: 8,
            launch_slots: 2,
        })
        .unwrap();
        let (mut r, mut w) = client(h.addr());
        let bye = request(&mut r, &mut w, r#"{"cmd":"shutdown"}"#);
        assert_eq!(bye.get("ok").unwrap().as_bool(), Some(true));
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            h.join();
            let _ = tx.send(());
        });
        assert!(
            rx.recv_timeout(std::time::Duration::from_secs(5)).is_ok(),
            "a worker is still parked in accept() after `shutdown`"
        );
    }

    #[test]
    fn run_warms_the_cache_and_matches_direct_execution() {
        let h = start_local();
        let (mut r, mut w) = client(h.addr());
        let gpu = polymem_machine::desc::lookup("gpu").unwrap().config();
        // Every built-in, flat and double-buffered: the daemon's `run`
        // is the resolver's launch, bit for bit and key for key.
        for kernel in workload::KERNELS {
            for db in [false, true] {
                let req = format!(
                    r#"{{"cmd":"run","kernel":"{kernel}","machine":"gpu","size":8,"double_buffer":{db}}}"#
                );
                let first = request(&mut r, &mut w, &req);
                assert_eq!(first.get("ok").unwrap().as_bool(), Some(true), "{first:?}");
                let toggles = LaunchToggles {
                    double_buffer: db,
                    ..LaunchToggles::default()
                };
                let l = launch(kernel, 8, &gpu, &toggles, false).unwrap();
                let mut st = l.seeded_store(42).unwrap();
                polymem_machine::execute_blocked(&l.kernel, &l.params, &mut st, &l.config, true)
                    .unwrap();
                let direct = format!("{:016x}", workload::checksum(st.data(l.check).unwrap()));
                assert_eq!(
                    first.get("checksum").unwrap().as_str(),
                    Some(&direct[..]),
                    "{kernel} db={db}"
                );
                let key = plan_artifact_key(&l.kernel, &l.params, &l.config)
                    .unwrap()
                    .map(|k| k.to_string());
                assert_eq!(
                    first.get("key").unwrap().as_str(),
                    key.as_deref(),
                    "{kernel} db={db}"
                );
                // Unstaged launches (jacobi) have no plan to warm.
                let staged = key.is_some();
                let source = |v: &Json| v.get("plan_source").unwrap().as_str().map(str::to_string);
                assert_eq!(
                    source(&first).as_deref(),
                    Some(if staged { "fresh" } else { "none" })
                );
                let second = request(&mut r, &mut w, &req);
                assert_eq!(
                    source(&second).as_deref(),
                    Some(if staged { "seeded" } else { "none" })
                );
                assert_eq!(second.get("analysis_ns").unwrap().as_i64(), Some(0));
                assert_eq!(
                    first.get("checksum").unwrap().as_str(),
                    second.get("checksum").unwrap().as_str()
                );
            }
        }
        // Invalidate drops the warm cache: next run is fresh again.
        let req = r#"{"cmd":"run","kernel":"matmul","machine":"gpu","size":8}"#;
        let inv = request(&mut r, &mut w, r#"{"cmd":"invalidate"}"#);
        assert_eq!(inv.get("generation").unwrap().as_i64(), Some(1));
        let third = request(&mut r, &mut w, req);
        assert_eq!(third.get("plan_source").unwrap().as_str(), Some("fresh"));
        h.shutdown();
    }

    #[test]
    fn analyze_then_run_shares_the_warm_plan() {
        let h = start_local();
        let (mut r, mut w) = client(h.addr());
        let analyze = request(
            &mut r,
            &mut w,
            r#"{"cmd":"analyze","kernel":"conv2d","machine":"gpu","size":8}"#,
        );
        assert_eq!(analyze.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(analyze.get("plan_source").unwrap().as_str(), Some("fresh"));
        assert!(analyze.get("buffers").unwrap().as_i64().unwrap() > 0);
        let run = request(
            &mut r,
            &mut w,
            r#"{"cmd":"run","kernel":"conv2d","machine":"gpu","size":8}"#,
        );
        assert_eq!(run.get("plan_source").unwrap().as_str(), Some("seeded"));
        h.shutdown();
    }

    #[test]
    fn every_registered_machine_serves_and_unknown_names_are_usage_errors() {
        let h = start_local();
        let (mut r, mut w) = client(h.addr());
        // The same kernel is bit-exact on every registered machine:
        // the checksums all agree even as the mappings diverge.
        let mut checksums = Vec::new();
        for m in polymem_machine::desc::NAMES {
            let req = format!(r#"{{"cmd":"run","kernel":"matmul","machine":"{m}","size":8}}"#);
            let resp = request(&mut r, &mut w, &req);
            assert_eq!(
                resp.get("ok").unwrap().as_bool(),
                Some(true),
                "{m}: {resp:?}"
            );
            checksums.push(resp.get("checksum").unwrap().as_str().unwrap().to_string());
        }
        assert!(
            checksums.windows(2).all(|w| w[0] == w[1]),
            "machines disagree: {checksums:?}"
        );
        // Aliases resolve through the same registry.
        let alias = request(
            &mut r,
            &mut w,
            r#"{"cmd":"run","kernel":"matmul","machine":"cpu","size":8}"#,
        );
        assert_eq!(alias.get("ok").unwrap().as_bool(), Some(true));
        // Unknown names are usage-class errors, not crashes.
        let bad = request(
            &mut r,
            &mut w,
            r#"{"cmd":"run","kernel":"matmul","machine":"quantum","size":8}"#,
        );
        assert_eq!(bad.get("ok").unwrap().as_bool(), Some(false));
        assert_eq!(bad.get("class").unwrap().as_str(), Some("usage"));
        h.shutdown();
    }

    #[test]
    fn tuned_run_reports_the_winning_mapping() {
        let dir = std::env::temp_dir().join(format!("polymem-serve-tuned-{}", std::process::id()));
        let h = Server::start(ServeConfig {
            addr: "127.0.0.1:0".into(),
            threads: 2,
            artifact_dir: Some(dir.to_string_lossy().into_owned()),
            lru_capacity: 8,
            launch_slots: 2,
        })
        .unwrap();
        let (mut r, mut w) = client(h.addr());
        let req = r#"{"cmd":"run","kernel":"matmul","machine":"gpu","size":8,"tuned":true}"#;
        let first = request(&mut r, &mut w, req);
        assert_eq!(first.get("ok").unwrap().as_bool(), Some(true), "{first:?}");
        let mapping = first.get("mapping").unwrap().as_str().unwrap().to_string();
        assert!(
            mapping.contains("[search]"),
            "cold tune searches: {mapping}"
        );
        // Second request answers from the persisted tune artifact.
        let second = request(&mut r, &mut w, req);
        let mapping2 = second.get("mapping").unwrap().as_str().unwrap().to_string();
        assert!(
            mapping2.contains("[artifact]"),
            "warm tune loads: {mapping2}"
        );
        assert_eq!(
            first.get("checksum").unwrap().as_str(),
            second.get("checksum").unwrap().as_str()
        );
        h.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shutdown_request_stops_all_workers() {
        let h = start_local();
        let addr = h.addr();
        let (mut r, mut w) = client(addr);
        let bye = request(&mut r, &mut w, r#"{"cmd":"shutdown"}"#);
        assert_eq!(bye.get("ok").unwrap().as_bool(), Some(true));
        h.shutdown(); // joins; must not hang
                      // The port no longer accepts new work.
        std::thread::sleep(std::time::Duration::from_millis(50));
        if let Ok(s) = TcpStream::connect(addr) {
            // A connection may still be accepted by the OS backlog,
            // but no worker will serve it: expect EOF.
            let mut line = String::new();
            let mut rd = BufReader::new(s);
            let _ = rd.read_line(&mut line);
            assert!(line.is_empty());
        }
    }
}
