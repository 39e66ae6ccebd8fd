//! Multi-tenant load generator for the `polymem serve` compile
//! service.
//!
//! Starts the daemon in-process on a loopback port with a fresh
//! artifact store, then drives it the way a fleet of clients would:
//!
//! * **cold phase** — one sequential pass over the five built-in
//!   kernels × {GPU, Cell}: each launch is first `analyze`d against
//!   the empty store (a fresh compile: the full §3 pipeline, timed
//!   end-to-end through the protocol), then `run`; the run's checksum
//!   must be bit-exact against a direct `execute_blocked` in this
//!   process (the same comparison `polymem run` makes);
//! * **warm phase** — N concurrent clients × kernels × machines ×
//!   M iterations of `analyze` + `run` against the shared warm cache:
//!   plans must come back `"seeded"`, and the best warm compile
//!   latency must cut the cold compiler-inclusive latency by ≥ 5× on
//!   ME and Jacobi-2D (reported always, gated outside `--smoke`);
//!   sustained throughput is measured over the whole phase;
//! * **transport** — warm `ping` round trips on the client's clock:
//!   the median must stay under 5 ms in both modes (`ping_p50_ms`; a
//!   reply that waits for a delayed ACK reads >= 40 ms);
//! * **restart phase** — a protocol `shutdown`, then a brand-new
//!   daemon on the same store directory: the first request must hit
//!   the on-disk artifact (`plan_source: "artifact"`) with zero
//!   analysis nanoseconds — the §3 passes never ran.
//!
//! Writes `BENCH_serve.json` and exits non-zero on any failure.
//!
//! ```sh
//! cargo run --release -p polymem-bench --bin serve            # full
//! cargo run --release -p polymem-bench --bin serve -- --smoke # CI
//! ```

use polymem_bench::harness::{conclude, smoke_mode};
use polymem_kernels::builtins::launch;
use polymem_machine::{execute_blocked, LaunchToggles};
use polymem_serve::workload::{self, KERNELS};
use polymem_serve::{Json, ServeConfig, Server};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

const MACHINES: [&str; 2] = ["gpu", "cell"];
/// Timed warm pings, and the bound on their median round trip.
const PINGS: usize = 21;
const PING_GATE_MS: f64 = 5.0;

/// One line-delimited JSON connection to the daemon.
struct Client {
    reader: BufReader<TcpStream>,
    out: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to daemon");
        Client {
            reader: BufReader::new(stream.try_clone().expect("clone stream")),
            out: stream,
        }
    }

    fn request(&mut self, req: &Json) -> Json {
        self.out
            .write_all(format!("{req}\n").as_bytes())
            .expect("send");
        self.out.flush().expect("flush");
        let mut resp = String::new();
        self.reader.read_line(&mut resp).expect("receive");
        Json::parse(resp.trim()).expect("daemon speaks JSON")
    }
}

/// A bare command (`ping`, `stats`, `shutdown`).
fn command(cmd: &str) -> Json {
    Json::obj([("cmd", cmd.into())])
}

/// A launch request (`run` / `analyze`).
fn launch_req(cmd: &str, kernel: &str, machine: &str, size: i64) -> Json {
    Json::obj([
        ("cmd", cmd.into()),
        ("kernel", kernel.into()),
        ("machine", machine.into()),
        ("size", size.into()),
    ])
}

fn field_str(v: &Json, k: &str) -> String {
    v.get(k).and_then(Json::as_str).unwrap_or("").to_string()
}

fn field_i64(v: &Json, k: &str) -> i64 {
    v.get(k).and_then(Json::as_i64).unwrap_or(-1)
}

fn is_ok(v: &Json) -> bool {
    v.get("ok").and_then(Json::as_bool) == Some(true)
}

/// The checksum a direct (daemon-free) run of this launch produces —
/// the bit-exactness oracle: the resolver's launch under the request
/// defaults (hierarchy and residency on, no double buffering).
fn direct_checksum(kernel: &str, machine: &str, size: i64) -> u64 {
    let base = polymem_machine::desc::lookup(machine)
        .expect("registered machine")
        .config();
    let l = launch(kernel, size, &base, &LaunchToggles::default(), false).expect("built-in kernel");
    let mut st = l.seeded_store(42).expect("store");
    execute_blocked(&l.kernel, &l.params, &mut st, &l.config, true).expect("direct run");
    workload::checksum(st.data(l.check).expect("output array"))
}

/// Per-(kernel, machine) aggregate across the phases.
#[derive(Default, Clone)]
struct CaseResult {
    /// Fresh-compile `analyze` latency against the empty store
    /// (compiler-inclusive cold latency).
    analyze_cold_ns: i64,
    /// Best warm `analyze` latency (cache hit).
    analyze_warm_ns: i64,
    /// First `run` latency (plan already warm from the cold analyze).
    run_first_ns: i64,
    /// Best warm `run` latency.
    run_warm_ns: i64,
    warm_samples: usize,
    source_cold: String,
    source_warm: String,
    checksum: String,
    bit_exact: bool,
}

/// What `plan_source` a request for this kernel must report once the
/// plan is warm — jacobi's canonical mapping is scratchpad-off, so it
/// never has a plan at all.
fn want_source(kernel: &str) -> &'static str {
    if kernel == "jacobi" {
        "none"
    } else {
        "seeded"
    }
}

fn main() {
    let smoke = smoke_mode();
    let size: i64 = if smoke { 8 } else { 16 };
    let clients = if smoke { 2 } else { 4 };
    let iters: usize = if smoke { 2 } else { 4 };

    let store_dir =
        std::env::temp_dir().join(format!("polymem_bench_serve_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    std::fs::create_dir_all(&store_dir).expect("store dir");
    let dir_string = store_dir.to_string_lossy().into_owned();

    let cfg = || ServeConfig {
        addr: "127.0.0.1:0".into(),
        threads: clients + 1,
        artifact_dir: Some(dir_string.clone()),
        lru_capacity: 64,
        launch_slots: 2,
    };

    let mut failures: Vec<String> = Vec::new();
    let mut results: HashMap<(String, String), CaseResult> = HashMap::new();

    // ---- cold phase -----------------------------------------------------
    let server = Server::start(cfg()).expect("daemon starts");
    let addr = server.addr();
    println!("daemon on {addr}, store {dir_string}");
    println!("\ncold pass (fresh store; analyze = compiler-inclusive):");
    {
        let mut c = Client::connect(addr);
        for kernel in KERNELS {
            for machine in MACHINES {
                // Fresh compile through the protocol.
                let an = c.request(&launch_req("analyze", kernel, machine, size));
                if !is_ok(&an) {
                    failures.push(format!(
                        "cold analyze {kernel}[{machine}]: {}",
                        field_str(&an, "error")
                    ));
                    continue;
                }
                let an_source = field_str(&an, "plan_source");
                let an_ns = field_i64(&an, "elapsed_ns");
                let want = if kernel == "jacobi" { "none" } else { "fresh" };
                if an_source != want {
                    failures.push(format!(
                        "cold analyze {kernel}[{machine}]: plan_source {an_source}, want {want}"
                    ));
                }
                // Execute; the analyze above warmed the shared cache,
                // so the launch must seed from it.
                let rn = c.request(&launch_req("run", kernel, machine, size));
                if !is_ok(&rn) {
                    failures.push(format!(
                        "cold run {kernel}[{machine}]: {}",
                        field_str(&rn, "error")
                    ));
                    continue;
                }
                let rn_source = field_str(&rn, "plan_source");
                if rn_source != want_source(kernel) {
                    failures.push(format!(
                        "first run {kernel}[{machine}]: plan_source {rn_source}, want {}",
                        want_source(kernel)
                    ));
                }
                let checksum = field_str(&rn, "checksum");
                let direct = format!("{:016x}", direct_checksum(kernel, machine, size));
                let exact = checksum == direct;
                if !exact {
                    failures.push(format!(
                        "{kernel}[{machine}]: daemon checksum {checksum} != direct {direct}"
                    ));
                }
                println!(
                    "  {kernel:>8}[{machine:>4}]  compile {:9.3} ms ({an_source:>5})  run {:9.3} ms  bit-exact {}",
                    an_ns as f64 / 1e6,
                    field_i64(&rn, "elapsed_ns") as f64 / 1e6,
                    if exact { "yes" } else { "NO" }
                );
                results.insert(
                    (kernel.to_string(), machine.to_string()),
                    CaseResult {
                        analyze_cold_ns: an_ns,
                        run_first_ns: field_i64(&rn, "elapsed_ns"),
                        source_cold: an_source,
                        checksum,
                        bit_exact: exact,
                        ..CaseResult::default()
                    },
                );
            }
        }
    }

    // ---- warm phase: N concurrent tenants -------------------------------
    println!("\nwarm pass ({clients} clients x {iters} iterations, analyze + run):");
    let t0 = Instant::now();
    type Sample = (String, String, &'static str, i64, String, u64);
    let mut samples: Vec<Sample> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(|| {
                    let mut c = Client::connect(addr);
                    let mut out: Vec<Sample> = Vec::new();
                    for _ in 0..iters {
                        for kernel in KERNELS {
                            for machine in MACHINES {
                                for cmd in ["analyze", "run"] {
                                    let resp = c.request(&launch_req(cmd, kernel, machine, size));
                                    let cs = u64::from_str_radix(&field_str(&resp, "checksum"), 16)
                                        .unwrap_or(0);
                                    out.push((
                                        kernel.to_string(),
                                        machine.to_string(),
                                        cmd,
                                        if is_ok(&resp) {
                                            field_i64(&resp, "elapsed_ns")
                                        } else {
                                            -1
                                        },
                                        field_str(&resp, "plan_source"),
                                        cs,
                                    ));
                                }
                            }
                        }
                    }
                    out
                })
            })
            .collect();
        for h in handles {
            samples.extend(h.join().expect("client thread"));
        }
    });
    let wall = t0.elapsed().as_secs_f64();
    let total_requests = samples.len();
    let throughput = total_requests as f64 / wall.max(1e-9);

    for (kernel, machine, cmd, elapsed, source, cs) in &samples {
        let Some(r) = results.get_mut(&(kernel.clone(), machine.clone())) else {
            continue;
        };
        if *elapsed < 0 {
            failures.push(format!("warm {cmd} {kernel}[{machine}]: request failed"));
            continue;
        }
        if source != want_source(kernel) {
            failures.push(format!(
                "warm {cmd} {kernel}[{machine}]: plan_source {source}, want {}",
                want_source(kernel)
            ));
        }
        match *cmd {
            "analyze" => {
                if r.analyze_warm_ns == 0 || *elapsed < r.analyze_warm_ns {
                    r.analyze_warm_ns = *elapsed;
                }
            }
            _ => {
                if format!("{cs:016x}") != r.checksum {
                    failures.push(format!(
                        "warm run {kernel}[{machine}]: checksum drifted across requests"
                    ));
                }
                if r.run_warm_ns == 0 || *elapsed < r.run_warm_ns {
                    r.run_warm_ns = *elapsed;
                }
            }
        }
        r.warm_samples += 1;
        r.source_warm = source.clone();
    }
    println!("  {total_requests} requests in {wall:.2} s -> {throughput:.0} req/s");

    // Warm-hit ratio from the daemon's own counters.
    let (hits, misses) = {
        let mut c = Client::connect(addr);
        let resp = c.request(&command("stats"));
        (field_i64(&resp, "lru_hits"), field_i64(&resp, "lru_misses"))
    };
    let warm_hit_ratio = hits as f64 / ((hits + misses).max(1)) as f64;
    println!("  lru hits/misses {hits}/{misses} (hit ratio {warm_hit_ratio:.2})");
    if hits <= 0 {
        failures.push("warm phase produced no LRU hits".into());
    }

    // Transport gate on the client's clock: a warm ping round trip.
    let ping_p50_ms = {
        let mut c = Client::connect(addr);
        c.request(&command("ping"));
        let mut ms: Vec<f64> = (0..PINGS)
            .map(|_| {
                let t0 = Instant::now();
                c.request(&command("ping"));
                t0.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        ms.sort_by(f64::total_cmp);
        ms[PINGS / 2]
    };
    println!("  warm ping round trip p50 {ping_p50_ms:.3} ms (gate < {PING_GATE_MS} ms)");
    if ping_p50_ms >= PING_GATE_MS {
        failures.push(format!(
            "warm ping p50 {ping_p50_ms:.3} ms >= {PING_GATE_MS} ms"
        ));
    }

    // Latency gate: a warm hit must cut the compiler-inclusive
    // latency >= 5x on the paper's two headline kernels (GPU model).
    let target = 5.0;
    println!("\nwarm vs cold compile latency (best warm sample):");
    let mut speedups: Vec<(String, String, f64)> = Vec::new();
    for kernel in KERNELS {
        if kernel == "jacobi" {
            continue; // no plan, nothing to cache
        }
        for machine in MACHINES {
            let r = &results[&(kernel.to_string(), machine.to_string())];
            if r.warm_samples == 0 || r.analyze_cold_ns <= 0 {
                continue;
            }
            let s = r.analyze_cold_ns as f64 / (r.analyze_warm_ns.max(1)) as f64;
            speedups.push((kernel.to_string(), machine.to_string(), s));
            println!(
                "  {kernel:>8}[{machine:>4}]  cold {:9.3} ms  warm {:9.3} ms  {s:7.1}x",
                r.analyze_cold_ns as f64 / 1e6,
                r.analyze_warm_ns as f64 / 1e6
            );
            let gated = machine == "gpu" && (kernel == "me" || kernel == "jacobi2d");
            if gated && s < target && !smoke {
                failures.push(format!(
                    "{kernel}[{machine}]: warm compile speedup {s:.2}x < {target}x"
                ));
            }
        }
    }

    // ---- restart phase ---------------------------------------------------
    println!("\nrestart (cold daemon, warm store):");
    {
        let mut c = Client::connect(addr);
        let resp = c.request(&command("shutdown"));
        assert!(is_ok(&resp), "shutdown acknowledged");
    }
    server.join();
    let server2 = Server::start(cfg()).expect("daemon restarts");
    let mut restart_source = String::new();
    let mut restart_analysis_ns: i64 = -1;
    {
        let mut c = Client::connect(server2.addr());
        for kernel in ["me", "jacobi2d"] {
            let resp = c.request(&launch_req("run", kernel, "gpu", size));
            let source = field_str(&resp, "plan_source");
            let analysis = field_i64(&resp, "analysis_ns");
            let checksum = field_str(&resp, "checksum");
            println!("  {kernel:>8}[ gpu]  source {source:>8}  analysis {analysis} ns");
            if source != "artifact" {
                failures.push(format!(
                    "restart {kernel}: plan_source {source}, want artifact"
                ));
            }
            if analysis != 0 {
                failures.push(format!(
                    "restart {kernel}: analysis_ns {analysis}, want 0 (S3 passes must not run)"
                ));
            }
            if checksum != results[&(kernel.to_string(), "gpu".to_string())].checksum {
                failures.push(format!("restart {kernel}: checksum drifted"));
            }
            if kernel == "me" {
                restart_source = source;
                restart_analysis_ns = analysis;
            }
        }
    }
    server2.shutdown();
    let _ = std::fs::remove_dir_all(&store_dir);

    // ---- report -----------------------------------------------------------
    let mut cases = Vec::new();
    for kernel in KERNELS {
        for machine in MACHINES {
            let r = &results[&(kernel.to_string(), machine.to_string())];
            let speedup = speedups
                .iter()
                .find(|(k, m, _)| k == kernel && m == machine)
                .map_or(0.0, |(_, _, s)| *s);
            cases.push(Json::obj([
                ("kernel", kernel.into()),
                ("machine", machine.into()),
                ("analyze_cold_ns", r.analyze_cold_ns.into()),
                ("analyze_warm_ns", r.analyze_warm_ns.into()),
                ("run_first_ns", r.run_first_ns.into()),
                ("run_warm_ns", r.run_warm_ns.into()),
                ("warm_samples", r.warm_samples.into()),
                ("compile_speedup", Json::fixed(speedup, 2)),
                ("plan_source_cold", r.source_cold.as_str().into()),
                ("plan_source_warm", r.source_warm.as_str().into()),
                ("bit_exact", r.bit_exact.into()),
            ]));
        }
    }
    let body = Json::obj([
        ("clients", clients.into()),
        ("iterations", iters.into()),
        ("size", size.into()),
        ("cases", cases.into()),
        ("throughput_rps", Json::fixed(throughput, 1)),
        ("ping_p50_ms", Json::fixed(ping_p50_ms, 3)),
        ("warm_hit_ratio", Json::fixed(warm_hit_ratio, 4)),
        (
            "restart",
            Json::obj([
                ("plan_source", restart_source.into()),
                ("analysis_ns", restart_analysis_ns.into()),
            ]),
        ),
        ("speedup_target", target.into()),
    ]);
    conclude("serve", smoke, body, &failures);
}
