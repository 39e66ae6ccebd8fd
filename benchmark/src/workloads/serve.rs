//! `serve-mixed`: closed-loop clients against an in-process daemon
//! restarted on a populated artifact store — request handling and
//! transport, with plans arriving warm.

use super::launch::{model_counts, seeded_reference};
use super::{Args, Outcome, ScratchDir, Totals, SETUP_REPS, UNTRACED_SHARE};
use crate::api::{self, ExecStats, Json, ServeConfig, Server, ServerHandle};
use crate::metrics::Report;
use crate::mix::{self, Request};
use crate::stats::median;
use crate::trace::{self, Tracer};
use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// The daemon's fixed input seed (`polymem_serve::workload::init`):
/// `--seed` shuffles the request decks, not the served data.
const DAEMON_DATA_SEED: u64 = 42;
/// Pings timed before the traced window.
const PINGS: usize = 50;
/// Parse + re-serialise repetitions of one `run` reply.
const JSON_REPS: usize = 200;
/// A reply that takes longer than this is a failed request.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// One connection: a request is **one** `write` of `line + "\n"` on a
/// `TCP_NODELAY` socket, timed from that write to the reply line.
struct Client {
    out: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> io::Result<Client> {
        let out = TcpStream::connect(addr)?;
        out.set_nodelay(true)?;
        out.set_read_timeout(Some(REPLY_TIMEOUT))?;
        let reader = BufReader::new(out.try_clone()?);
        Ok(Client { out, reader })
    }

    /// Send one request; the reply and the round trip in ms.
    fn request(&mut self, line: &str) -> io::Result<(Json, f64)> {
        let mut wire = String::with_capacity(line.len() + 1);
        wire.push_str(line);
        wire.push('\n');
        let mut reply = String::new();
        let t0 = Instant::now();
        self.out.write_all(wire.as_bytes())?;
        self.reader.read_line(&mut reply)?;
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        Json::parse(reply.trim())
            .map(|v| (v, ms))
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "reply is not JSON"))
    }
}

/// What set-up learns without the daemon: per kernel the reference
/// interpreter's checksum, and for the ten (kernel, machine) launches
/// the daemon will serve, executed directly in this process and
/// compared with that reference, the modeled clock's totals.
struct Expected {
    checksums: BTreeMap<&'static str, String>,
    totals: Totals,
    stats: ExecStats,
    cycles_by_kernel: Vec<(&'static str, u64)>,
}

fn expected(tr: &mut Tracer) -> Result<Expected, String> {
    let mut e = Expected {
        checksums: BTreeMap::new(),
        totals: Totals::default(),
        stats: ExecStats::default(),
        cycles_by_kernel: Vec::new(),
    };
    for kernel in api::KERNELS {
        let w = api::resolve_workload(kernel, mix::SIZE, false)
            .ok_or_else(|| format!("unknown kernel `{kernel}`"))?;
        let (init, reference) = seeded_reference(kernel, &w, DAEMON_DATA_SEED, tr)?;
        e.checksums
            .insert(kernel, format!("{:016x}", api::checksum(&reference)));
        let mut cycles = 0;
        for machine in mix::MACHINES {
            // Default request fields: no double buffering, hierarchy
            // and residency on.
            let cfg = api::cli_config(machine, false, true);
            let mut st = init.clone();
            let stats =
                api::execute_blocked_profiled(&w.kernel, &w.params, &mut st, &cfg, true, None)
                    .map_err(|x| format!("{kernel}/{machine}: direct launch: {x}"))?;
            if st.data(w.check).map_err(|x| x.to_string())? != &reference[..] {
                return Err(format!(
                    "{kernel}/{machine}: direct launch differs from the reference"
                ));
            }
            e.totals.add_launch(&stats, &cfg);
            cycles += stats.modeled_cycles;
            e.stats.absorb(&stats);
        }
        e.cycles_by_kernel.push((kernel, cycles));
    }
    Ok(e)
}

fn start(artifact_dir: &str) -> Result<ServerHandle, String> {
    Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        threads: 2,
        artifact_dir: Some(artifact_dir.into()),
        lru_capacity: 64,
        launch_slots: 2,
    })
    .map_err(|e| format!("daemon start: {e}"))
}

/// Is `reply` a good answer to `req`?
fn good(req: &Request, reply: &Json, want: &Expected) -> bool {
    reply.get("ok").and_then(Json::as_bool) == Some(true)
        && (!req.run
            || reply.get("checksum").and_then(Json::as_str)
                == want.checksums.get(req.kernel).map(String::as_str))
}

/// Send every (kernel, machine) pair once as `run` (and, if `analyze`,
/// once more as `analyze`), requiring plans to come from `source`.
fn pass(
    addr: SocketAddr,
    want: &Expected,
    analyze: bool,
    source: &str,
    tally: &mut Totals,
) -> Result<(), String> {
    let mut c = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    for run in [true, false] {
        if !run && !analyze {
            break;
        }
        for kernel in api::KERNELS {
            for machine in mix::MACHINES {
                let req = Request {
                    run,
                    kernel,
                    machine,
                };
                tally.attempted += 1;
                let (reply, _) = c
                    .request(&req.line())
                    .map_err(|e| format!("{}: {e}", req.line()))?;
                if !good(&req, &reply, want) {
                    tally.failed += 1;
                }
                // `none`: the mapping stages nothing through a plan
                // (jacobi's overlapped tiling), so there is nothing to
                // keep warm.
                let got = reply.get("plan_source").and_then(Json::as_str);
                let expect = if run { source } else { "seeded" };
                if got != Some(expect) && got != Some("none") {
                    return Err(format!(
                        "{}: plan came `{}`, set-up expects `{expect}`",
                        req.line(),
                        got.unwrap_or("?")
                    ));
                }
            }
        }
    }
    Ok(())
}

/// One set-up: expectations, a first daemon that fills the artifact
/// store, and a second one restarted on it and warmed.
fn setup(
    rep: usize,
    tr: &mut Tracer,
    tally: &mut Totals,
) -> Result<(Expected, ServerHandle, ScratchDir), String> {
    let want = expected(tr)?;
    let dir = ScratchDir::new(&format!("serve-artifacts-{rep}"))
        .map_err(|e| format!("artifact dir: {e}"))?;
    let first = start(&dir.path())?;
    pass(first.addr(), &want, false, "fresh", tally)?;
    first.shutdown();
    let daemon = start(&dir.path())?;
    pass(daemon.addr(), &want, true, "artifact", tally)?;
    Ok((want, daemon, dir))
}

/// What one client thread brings back.
#[derive(Default)]
struct ClientLog {
    deck_ms: Vec<f64>,
    run_ms: Vec<f64>,
    analyze_ms: Vec<f64>,
    /// Server-side `elapsed_ns` of `run` replies, in ms.
    exec_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    seeded: u64,
    fresh: u64,
    spans: Vec<trace::Span>,
    error: Option<String>,
}

/// Closed loop: the next request goes out when the previous reply is
/// in. Deals the deck again and again until `budget` has passed and
/// one full deck is done; only full decks are sweep samples.
fn client_loop(
    addr: SocketAddr,
    deck: &[Request],
    want: &Expected,
    budget: Duration,
    tr: &mut Tracer,
    id: u64,
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut c = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            log.error = Some(format!("connect: {e}"));
            return log;
        }
    };
    let t0 = Instant::now();
    let mut sweep = 0u64;
    'window: loop {
        tr.set_sweep(id << 32 | sweep);
        sweep += 1;
        let d0 = Instant::now();
        let full = tr
            .span("sweep", |tr| {
                for req in deck {
                    if t0.elapsed() >= budget && !log.deck_ms.is_empty() {
                        return false;
                    }
                    log.attempted += 1;
                    let name = if req.run { "op:run" } else { "op:analyze" };
                    let line = req.line();
                    let got = tr
                        .span(name, |tr| tr.leaf("serve.request", || c.request(&line)))
                        .0;
                    let (reply, ms) = match got {
                        Ok(x) => x,
                        Err(e) => {
                            log.failed += 1;
                            log.error = Some(format!("{line}: {e}"));
                            return false;
                        }
                    };
                    if !good(req, &reply, want) {
                        log.failed += 1;
                        continue;
                    }
                    match reply.get("plan_source").and_then(Json::as_str) {
                        Some("seeded") => log.seeded += 1,
                        Some("fresh") => log.fresh += 1,
                        _ => {}
                    }
                    if req.run {
                        log.run_ms.push(ms);
                        log.exec_ms
                            .push(api::num(&reply, "elapsed_ns").unwrap_or(0.0) / 1e6);
                    } else {
                        log.analyze_ms.push(ms);
                    }
                }
                true
            })
            .0;
        if !full {
            break 'window;
        }
        log.deck_ms.push(d0.elapsed().as_secs_f64() * 1e3);
    }
    log.spans = std::mem::take(&mut tr.spans);
    log
}

/// Run the clients for `budget`; the merged log and the wall time.
fn clients(
    addr: SocketAddr,
    seed: u64,
    want: &Expected,
    budget: Duration,
    trace_on: bool,
    epoch: Instant,
    first_id: u64,
) -> (Vec<ClientLog>, f64) {
    // Never more generator threads than cores.
    let n = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2) as u64;
    let t0 = Instant::now();
    let logs = std::thread::scope(|s| {
        let handles: Vec<_> = (0..n)
            .map(|i| {
                s.spawn(move || {
                    let mut tr = Tracer::new(trace_on, epoch);
                    let deck = mix::deck(seed, i);
                    client_loop(addr, &deck, want, budget, &mut tr, first_id + i)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread does not panic"))
            .collect::<Vec<_>>()
    });
    (logs, t0.elapsed().as_secs_f64())
}

fn gather(logs: &[ClientLog], pick: impl Fn(&ClientLog) -> &Vec<f64>) -> Vec<f64> {
    logs.iter().flat_map(|l| pick(l).iter().copied()).collect()
}

/// Move the clients' tallies and spans into the pass's.
fn fold(logs: &mut [ClientLog], tally: &mut Totals, spans: &mut Vec<trace::Span>) {
    for l in logs.iter_mut() {
        tally.attempted += l.attempted;
        tally.failed += l.failed;
        trace::merge(spans, std::mem::take(&mut l.spans));
        if let Some(e) = l.error.take() {
            eprintln!("serve-mixed: a client stopped early: {e}");
        }
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let epoch = Instant::now();
    let mut tr = Tracer::new(args.trace, epoch);
    let mut tally = Totals::default();
    let mut setup_s = Vec::new();
    let mut kept = None;
    for rep in 0..SETUP_REPS {
        // Stop the previous repetition's daemon before the next binds.
        drop(kept.take());
        let t0 = Instant::now();
        api::poly_core_reset();
        tr.set_sweep(rep as u64);
        let (made, _) = tr.span("setup", |tr| setup(rep, tr, &mut tally));
        kept = Some(made?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let (want, daemon, _dir) = kept.expect("SETUP_REPS > 0");
    let addr = daemon.addr();
    let budget = Duration::from_secs_f64(args.seconds);
    let mut report = Report::default();
    let mut spans = std::mem::take(&mut tr.spans);

    if !args.trace {
        let (mut logs, wall) = clients(addr, args.seed, &want, budget, false, epoch, 0);
        fold(&mut logs, &mut tally, &mut spans);
        let done: u64 = logs.iter().map(|l| l.attempted - l.failed).sum();
        let decks = gather(&logs, |l| &l.deck_ms);
        report.time("setup_s", &setup_s);
        report.time("sweep_ms", &decks);
        report.time_value("ops_per_s", done as f64 / wall);
        report.count("modeled_cycles", want.totals.modeled_cycles as f64);
        report.count("global_traffic_bytes", want.totals.traffic_bytes as f64);
    } else {
        // Probes: transport alone, and the codec alone.
        let mut probe = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
        let mut ping_ms = Vec::new();
        for _ in 0..PINGS {
            tally.attempted += 1;
            match probe.request(r#"{"cmd":"ping"}"#) {
                Ok((v, ms)) if v.get("pong").is_some() => ping_ms.push(ms),
                _ => tally.failed += 1,
            }
        }
        let sample = Request {
            run: true,
            kernel: "matmul",
            machine: "gpu",
        };
        tally.attempted += 1;
        let (reply, _) = probe
            .request(&sample.line())
            .map_err(|e| format!("{}: {e}", sample.line()))?;
        let text = reply.to_string();
        let json_us: Vec<f64> = (0..JSON_REPS)
            .map(|_| {
                let t0 = Instant::now();
                let round = Json::parse(std::hint::black_box(&text)).map(|v| v.to_string());
                std::hint::black_box(round);
                t0.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        drop(probe);

        let (mut plain, _) = clients(
            addr,
            args.seed,
            &want,
            budget.mul_f64(UNTRACED_SHARE),
            false,
            epoch,
            0,
        );
        fold(&mut plain, &mut tally, &mut spans);
        api::poly_core_reset();
        let (mut logs, _) = clients(
            addr,
            args.seed,
            &want,
            budget.mul_f64(1.0 - UNTRACED_SHARE),
            true,
            epoch,
            SETUP_REPS as u64,
        );
        let core = api::poly_core_stats();
        fold(&mut logs, &mut tally, &mut spans);

        super::report_setup_ir(&spans, &mut report);
        let (run_ms, exec_ms) = (gather(&logs, |l| &l.run_ms), gather(&logs, |l| &l.exec_ms));
        let replies: u64 = logs.iter().map(|l| l.attempted - l.failed).sum();
        let decks = replies as f64 / mix::DECK as f64;
        report.time("serve.run_ms", &run_ms);
        report.time("serve.analyze_ms", &gather(&logs, |l| &l.analyze_ms));
        report.time("serve.exec_ms", &exec_ms);
        // By construction overhead + exec = the run round trip.
        report.time_value("serve.overhead_ms", median(&run_ms) - median(&exec_ms));
        report.time("serve.ping_ms", &ping_ms);
        report.time("serve.json_us", &json_us);
        report.info(
            "serve.seeded_share",
            logs.iter().map(|l| l.seeded).sum::<u64>() as f64 / replies as f64,
        );
        report.info(
            "serve.fresh_plans",
            logs.iter().map(|l| l.fresh).sum::<u64>() as f64,
        );
        // The daemon shares this process, so its polyhedral-core use
        // over the traced window is visible; per deck of requests.
        report.time_value("polycore.core_ms", core.core_ms() / decks);
        report.info("polycore.memo_hit_ratio", core.hit_rate());
        report.info("polycore.fm_rows", core.fm_rows_generated as f64 / decks);
        report.info("polycore.fm_pruned", core.fm_rows_pruned as f64 / decks);

        let mut stats = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
        tally.attempted += 1;
        let (s, _) = stats
            .request(r#"{"cmd":"stats"}"#)
            .map_err(|e| format!("stats: {e}"))?;
        for (metric, field) in [
            ("serve.lru_hits", "lru_hits"),
            ("serve.lru_misses", "lru_misses"),
            ("serve.requests", "requests"),
            ("serve.errors", "errors"),
        ] {
            report.info(metric, api::num(&s, field).unwrap_or(0.0));
        }

        for (kernel, cycles) in &want.cycles_by_kernel {
            report.count(&format!("model.cycles.{kernel}"), *cycles as f64);
        }
        model_counts(&want.stats, &mut report);

        let plain_run_ms = gather(&plain, |l| &l.run_ms);
        let base = median(&plain_run_ms);
        report.time_value("trace.overhead_pct", 100.0 * (median(&run_ms) / base - 1.0));
        report.time_value(
            "ledger.sum_gap_pct",
            100.0
                * ((report.value("serve.overhead_ms") + report.value("serve.exec_ms"))
                    / report.value("serve.run_ms")
                    - 1.0)
                    .abs(),
        );
        report.time_value("ledger.cover_pct", trace::cover_pct(&spans));
        println!(
            "  traced pass: {} untraced and {} traced run requests (medians {:.3} / {:.3} ms)",
            plain_run_ms.len(),
            run_ms.len(),
            base,
            median(&run_ms)
        );
    }
    daemon.shutdown();
    Ok(Outcome {
        report,
        attempted: tally.attempted,
        failed: tally.failed,
        spans,
    })
}
