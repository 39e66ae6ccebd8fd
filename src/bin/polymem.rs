//! The polymem command-line driver.
//!
//! ```text
//! polymem figures [4|5|6|7|8]        reproduce the paper's figures
//! polymem analyze <kernel>           print the §3 scratchpad plan
//! polymem emit <kernel> [--cuda]     print transformed code
//! polymem search <me|jacobi>         run the §4.3 tile-size search
//! polymem run <kernel> [--size N]    functional run on the simulator
//! polymem trace <me|jacobi>          phase timeline of a launch
//! ```
//!
//! `<kernel>` is a built-in name (`me`, `jacobi`, `jacobi2d`,
//! `matmul`, `conv2d`) or a path to a `.poly` source file (see
//! `examples/kernels/*.poly` and `polymem_ir::parse`); `--params a,b,c`
//! supplies the representative parameter values (default: the kernel
//! table's analysis parameters, or 64 per parameter of a file).

use polymem::core::emit::{emit_staged, EmitOptions};
use polymem::core::smem::{analyze_program_timed, ArtifactStore, SmemConfig, SmemPlan};
use polymem::ir::{exec_program, init_random_store, random_program, ArrayStore, Program};
use polymem::kernels::builtins::{launch, Builtin, Launch, BUILTINS};
use polymem::kernels::{jacobi, me, tunespace};
use polymem::machine::{
    execute_blocked_profiled, generic_candidates, launch_config, launch_representative,
    plan_artifact_key, tune, warm_plan, Json, LaunchToggles, MachineConfig, PassProfiler,
    TuneOptions, TuneOutcome,
};
use polymem::serve::{ServeConfig, Server};
use std::collections::HashMap;
use std::process::ExitCode;
use std::str::FromStr;

/// Store initializer threaded into `machine::tune` (boxed so built-in
/// and generated workloads share one code path).
type InitFn = Box<dyn Fn(&mut ArrayStore) + Sync>;

/// Exit code for usage errors: unknown command/kernel/flag, malformed
/// flag values.
const EXIT_USAGE: u8 = 2;
/// Exit code for compile errors: `.poly` parse failures, §3 analysis
/// failures.
const EXIT_COMPILE: u8 = 3;
/// Exit code for runtime errors: simulator failures and result
/// mismatches.
const EXIT_RUNTIME: u8 = 4;

/// Print a compile-class error and exit with [`EXIT_COMPILE`].
fn compile_error(msg: &str) -> ExitCode {
    eprintln!("compile error: {msg}");
    ExitCode::from(EXIT_COMPILE)
}

/// Print a runtime-class error and exit with [`EXIT_RUNTIME`].
fn runtime_error(msg: &str) -> ExitCode {
    eprintln!("runtime error: {msg}");
    ExitCode::from(EXIT_RUNTIME)
}

/// Flags each subcommand accepts. Anything else starting with `--`
/// (typo'd or misplaced) is an error, not a silent no-op.
fn allowed_flags(cmd: &str) -> &'static [&'static str] {
    match cmd {
        "analyze" => &[
            "--json",
            "--profile",
            "--params",
            "--machine",
            "--machine-file",
            "--double-buffer",
            "--no-compiled-exec",
            "--no-hierarchy",
            "--no-residency",
            "--artifact-dir",
        ],
        "emit" => &["--cuda", "--params"],
        "run" => &[
            "--size",
            "--profile",
            "--machine",
            "--machine-file",
            "--double-buffer",
            "--no-compiled-exec",
            "--no-hierarchy",
            "--no-residency",
            "--vector-width",
            "--artifact-dir",
            "--tuned",
        ],
        "tune" => &[
            "--size",
            "--params",
            "--machine",
            "--machine-file",
            "--top",
            "--reps",
            "--exhaustive",
            "--smoke",
            "--json",
            "--force",
            "--random",
            "--seed",
            "--artifact-dir",
        ],
        "key" => &[
            "--size",
            "--machine",
            "--machine-file",
            "--double-buffer",
            "--no-compiled-exec",
            "--no-hierarchy",
            "--no-residency",
            "--vector-width",
            "--artifact-dir",
        ],
        "serve" => &[
            "--addr",
            "--threads",
            "--lru",
            "--launch-slots",
            "--artifact-dir",
        ],
        _ => &[],
    }
}

/// Flags that take a value (the next argument).
const VALUED: &[&str] = &[
    "--size",
    "--params",
    "--vector-width",
    "--artifact-dir",
    "--addr",
    "--threads",
    "--lru",
    "--launch-slots",
    "--machine",
    "--machine-file",
    "--top",
    "--reps",
    "--random",
    "--seed",
];

/// The command line after the subcommand, parsed once: every helper
/// below reads this, none rescans the process arguments.
struct Cli {
    /// The word right after the subcommand: kernel, figure number, ….
    target: Option<String>,
    /// Each `--flag` present, with its value if it takes one.
    flags: Vec<(String, Option<String>)>,
}

impl Cli {
    /// Split `args` into flags and values. Unknown `--` flags (typo'd
    /// or misplaced, like `--no-heirarchy`) are an error up front, not
    /// a silent no-op that runs with the feature still on.
    fn parse(cmd: &str, args: &[String]) -> Result<Cli, String> {
        let allowed = allowed_flags(cmd);
        let mut flags = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if !a.starts_with("--") {
                continue;
            }
            if !allowed.contains(&a.as_str()) {
                return Err(format!("unknown flag `{a}` for `{cmd}`"));
            }
            let value = if VALUED.contains(&a.as_str()) {
                Some(
                    it.next()
                        .ok_or_else(|| format!("flag `{a}` needs a value"))?
                        .clone(),
                )
            } else {
                None
            };
            flags.push((a.clone(), value));
        }
        Ok(Cli {
            target: args.first().cloned(),
            flags,
        })
    }

    fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|(f, _)| f == flag)
    }

    /// The value following a `--flag`, if present.
    fn value(&self, flag: &str) -> Option<&str> {
        let (_, v) = self.flags.iter().find(|(f, _)| f == flag)?;
        v.as_deref()
    }

    /// A flag whose value must be an integer `>= 1`.
    fn positive<T: FromStr + PartialOrd + From<u8>>(
        &self,
        flag: &str,
    ) -> Result<Option<T>, String> {
        match self.value(flag) {
            None => Ok(None),
            Some(v) => match v.parse::<T>() {
                Ok(n) if n >= T::from(1) => Ok(Some(n)),
                _ => Err(format!("flag `{flag}` needs a positive integer")),
            },
        }
    }

    /// `--size N` (default 16).
    fn size(&self) -> Result<i64, String> {
        match self.value("--size") {
            None => Ok(16),
            Some(v) => v
                .parse()
                .map_err(|_| format!("flag `--size` needs an integer, got `{v}`")),
        }
    }

    /// `--params a,b,c`, if present and well-formed.
    fn params(&self) -> Option<Vec<i64>> {
        self.value("--params")?
            .split(',')
            .map(|x| x.trim().parse::<i64>().ok())
            .collect()
    }

    /// `--profile`, or `POLYMEM_PROFILE=1` in the environment: print
    /// the pass-level wall-clock profile.
    fn profile(&self) -> bool {
        self.has("--profile")
            || std::env::var("POLYMEM_PROFILE").is_ok_and(|v| v != "0" && !v.is_empty())
    }

    /// The base machine, pristine: `--machine-file PATH` loads a TOML
    /// description, `--machine NAME` looks up the registry (any
    /// registered name or alias, not a hardcoded list), default `gpu`.
    /// Returns the lowered config together with the description's name.
    fn machine(&self) -> Result<(MachineConfig, String), String> {
        use polymem::machine::desc;
        if let Some(path) = self.value("--machine-file") {
            if self.has("--machine") {
                return Err("--machine and --machine-file are mutually exclusive".into());
            }
            let d = desc::MachineDesc::from_file(path)?;
            return Ok((d.config(), d.name));
        }
        let name = self.value("--machine").unwrap_or("gpu");
        match desc::lookup(name) {
            Some(d) => Ok((d.config(), d.name)),
            None => Err(format!(
                "unknown machine `{name}` (registered: {})",
                desc::NAMES.join(", ")
            )),
        }
    }

    /// The execution flags every simulating subcommand shares —
    /// `analyze --json`, `key` and `run` must describe, address and
    /// execute the *same* launch.
    fn toggles(&self) -> Result<LaunchToggles, String> {
        Ok(LaunchToggles {
            double_buffer: self.has("--double-buffer"),
            compiled_exec: !self.has("--no-compiled-exec"),
            hierarchy: !self.has("--no-hierarchy"),
            residency: !self.has("--no-residency"),
            vector_width: self.positive("--vector-width")?,
            artifact_dir: self.value("--artifact-dir").map(str::to_string),
        })
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage("");
    };
    let cli = match Cli::parse(cmd, &args[1..]) {
        Ok(c) => c,
        Err(msg) => return usage(&msg),
    };
    let target = cli.target.as_deref();
    match cmd.as_str() {
        "figures" => figures(target),
        "analyze" => analyze(&cli),
        "emit" => emit(&cli),
        "search" => match target {
            Some("me") => {
                let gpu = MachineConfig::geforce_8800_gtx();
                let size = me::MeSize::square(1 << 22, 16);
                let out = me::search_tiles(&size, &gpu, 256);
                println!(
                    "ME tile search (4M positions): (ti, tj, tk, tl) = {:?}, cost {:.0}",
                    out.sizes, out.cost
                );
                ExitCode::SUCCESS
            }
            Some("jacobi") => {
                let gpu = MachineConfig::geforce_8800_gtx();
                let s = jacobi::JacobiSize {
                    n: 512 * 1024,
                    t: 4096,
                };
                let (tt, si, ms) = jacobi::search_tiles(&s, 128, 64, 512, &gpu);
                println!(
                    "Jacobi tile search (N = 512k, M_up = 512 words): (time, space) = ({tt}, {si}), {ms:.1} ms"
                );
                ExitCode::SUCCESS
            }
            other => usage(&format!("unknown search target {other:?}")),
        },
        "trace" => match target {
            Some("me") => {
                let gpu = MachineConfig::geforce_8800_gtx();
                let s = me::MeSize::square(16 << 20, 16);
                let p = me::profile(&s, (32, 16), 32, 256, true, &gpu);
                let tl = polymem::machine::Timeline::from_profile(&p, &gpu)
                    .expect("profile fits the machine");
                println!("ME, 16M positions, tiles (32,16,16,16):");
                print!("{}", tl.render(64));
                ExitCode::SUCCESS
            }
            Some("jacobi") => {
                let gpu = MachineConfig::geforce_8800_gtx();
                let s = jacobi::JacobiSize {
                    n: 512 * 1024,
                    t: 4096,
                };
                let p = jacobi::profile_tiled(&s, 32, 256, 128, 64, true, &gpu);
                let tl = polymem::machine::Timeline::from_profile(&p, &gpu)
                    .expect("profile fits the machine");
                println!("Jacobi, N = 512k, tiles (32, 256):");
                print!("{}", tl.render(64));
                ExitCode::SUCCESS
            }
            other => usage(&format!("unknown trace target {other:?}")),
        },
        "run" => run(&cli),
        "key" => key(&cli),
        "tune" => tune_cmd(&cli),
        "serve" => serve(&cli),
        _ => usage(""),
    }
}

fn usage(msg: &str) -> ExitCode {
    if !msg.is_empty() {
        eprintln!("error: {msg}\n");
    }
    eprintln!(
        "usage: polymem <command>\n\
         \n\
         commands:\n\
         \x20 figures [4|5|6|7|8]      reproduce the paper's evaluation figures\n\
         \x20 analyze <kernel>         print the scratchpad data-management plan\n\
         \x20                          (--json: machine-readable two-level dump)\n\
         \x20 emit <kernel> [--cuda]   print the transformed (staged) code\n\
         \x20 search <me|jacobi>       run the paper's tile-size search\n\
         \x20 run <kernel> [--size N]  functional run on the simulated machine\n\
         \x20 trace <me|jacobi>        phase timeline of a launch\n\
         \x20 key <kernel> [--size N]  print the launch's plan-artifact content address\n\
         \x20 tune <kernel|.poly>      cost-model-pruned mapping search\n\
         \x20      [--size N] [--machine NAME] [--top K] [--reps N]\n\
         \x20      [--exhaustive] [--smoke] [--json] [--force]\n\
         \x20      [--random N] [--seed S] [--artifact-dir DIR]\n\
         \x20 serve [--addr A] [--threads N] [--lru N] [--launch-slots N]\n\
         \x20       [--artifact-dir DIR]\n\
         \x20                          start the persistent compile service\n\
         \n\
         kernels: me, jacobi, jacobi2d, matmul, conv2d\n\
         machines: gpu, cell, host, pim, spatial (any registered name)\n\
         \n\
         `analyze`/`run`/`key`/`tune` target a machine with\n\
         --machine NAME (registry lookup) or --machine-file PATH (a\n\
         declarative TOML machine description; see DESIGN.md for the\n\
         schema). Unknown machine names are a usage error.\n\
         \n\
         `analyze` and `run` accept --profile (or POLYMEM_PROFILE=1) to\n\
         print a pass-level wall-clock profile; `run` also reports plan\n\
         cache hit/miss counters and which engine executed each block,\n\
         and accepts --double-buffer to map one tile dimension\n\
         sequentially and overlap its DMA with compute (DMA statistics\n\
         and the channel timeline appear under --profile).\n\
         `run` uses the compiled block execution engine by default —\n\
         including on register-tile (hierarchy) plans; --no-compiled-exec\n\
         selects the per-point interpreter instead, --vector-width N\n\
         sets the compiled engine's batched lane count (1 = scalar).\n\
         `run` stages per-inner-process register tiles when the mapping\n\
         distributes thread dims; --no-hierarchy keeps all staging in\n\
         the scratchpad. Across sequential sub-tiles `run` keeps each\n\
         group's overlapping window resident in scratchpad and\n\
         transfers only the delta; --no-residency re-stages the full\n\
         window every sub-tile. `analyze --json` honors the same\n\
         execution flags and describes the launch they would run.\n\
         `run`/`analyze`/`serve` accept --artifact-dir DIR to persist\n\
         compiled plans in a content-addressed store (and reuse them\n\
         across processes); `key` prints the store address a launch\n\
         would use. Unknown --flags are rejected.\n\
         `tune` scores every candidate mapping with the analytic cost\n\
         model, simulates only the top-K frontier (plus the pinned\n\
         preset) in parallel, and persists the winner under a\n\
         tune-keyed artifact (--artifact-dir) that `run --tuned` and\n\
         `serve` reload with zero search cost; --exhaustive disables\n\
         pruning, --json dumps the ranked predicted-vs-simulated\n\
         table, --random N tunes N generated affine programs\n\
         (POLYMEM_EXEC_CHECK=1 cross-checks every simulated block).\n\
         \n\
         exit codes: 0 ok, 2 usage error, 3 compile error, 4 runtime error."
    );
    ExitCode::from(EXIT_USAGE)
}

fn figures(which: Option<&str>) -> ExitCode {
    let all = [
        polymem_bench::figure4 as fn() -> polymem_bench::Figure,
        polymem_bench::figure5,
        polymem_bench::figure6,
        polymem_bench::figure7,
        polymem_bench::figure8,
    ];
    match which.and_then(|w| w.parse::<usize>().ok()) {
        Some(n) if (4..=8).contains(&n) => print!("{}", all[n - 4]().to_table()),
        None => {
            for f in all {
                println!("{}", f().to_table());
            }
        }
        Some(n) => return usage(&format!("no figure {n} (the paper has 4..8)")),
    }
    ExitCode::SUCCESS
}

/// Why a kernel argument failed to resolve — drives the exit-code
/// class (`Unknown`/`Usage` → 2, `Compile` → 3).
#[derive(Debug)]
enum KernelError {
    /// Not a built-in name and not a `.poly` path.
    Unknown,
    /// The `.poly` source failed to read or parse.
    Compile(String),
    /// The kernel exists but the flags around it are wrong.
    Usage(String),
}

/// A kernel instance small enough for interactive analysis/emission:
/// a built-in name or a `.poly` file path, at `--params` (default: the
/// table's analysis parameters for a built-in, 64 each for a file).
fn kernel_program(cli: &Cli, name: &str) -> Result<(Program, Vec<i64>), KernelError> {
    let (program, default_params) = if let Some(b) = Builtin::named(name) {
        ((b.program)(), b.analysis_params.to_vec())
    } else if name.ends_with(".poly") {
        let src = std::fs::read_to_string(name)
            .map_err(|e| KernelError::Compile(format!("cannot read `{name}`: {e}")))?;
        let program =
            polymem::ir::parse_program(&src).map_err(|e| KernelError::Compile(e.to_string()))?;
        let n = program.params.len();
        (program, vec![64; n])
    } else {
        return Err(KernelError::Unknown);
    };
    let params = cli.params().unwrap_or(default_params);
    if params.len() != program.params.len() {
        return Err(KernelError::Usage(format!(
            "--params needs {} values for {:?}",
            program.params.len(),
            program.params
        )));
    }
    Ok((program, params))
}

/// The subcommand's kernel argument, resolved; `Err` carries the exit
/// already taken.
fn resolve_kernel(cli: &Cli) -> Result<(&str, Program, Vec<i64>), ExitCode> {
    let Some(n) = cli.target.as_deref() else {
        return Err(usage("missing kernel name"));
    };
    match kernel_program(cli, n) {
        Ok((program, params)) => Ok((n, program, params)),
        Err(KernelError::Unknown) => Err(usage(&format!("unknown kernel `{n}`"))),
        Err(KernelError::Usage(msg)) => Err(usage(&msg)),
        Err(KernelError::Compile(msg)) => Err(compile_error(&msg)),
    }
}

fn plan_of_timed(
    program: &Program,
    params: &[i64],
) -> Result<(polymem::core::SmemPlan, polymem::core::smem::PassTimes), String> {
    analyze_program_timed(
        program,
        &SmemConfig {
            sample_params: params.to_vec(),
            ..SmemConfig::default()
        },
    )
    .map_err(|e| e.to_string())
}

/// One memory level of the `analyze --json` dump: buffers with their
/// concrete shapes, and per-buffer move volumes. `ext` is the plan's
/// full parameter vector (program params plus the block's fixed/thread
/// values); `extra` the level's own fields.
fn level_dump(label: &str, extra: Vec<(&str, Json)>, plan: &SmemPlan, ext: &[i64]) -> Json {
    let buffers = plan.buffers.iter().enumerate().map(|(i, b)| {
        Json::obj([
            ("id", i.into()),
            ("array", b.array_name.as_str().into()),
            ("extents", b.extents(ext).ok().into()),
            ("offsets", b.offsets(ext).ok().into()),
            ("size_words", b.size_words(ext).ok().into()),
        ])
    });
    let movement = plan.movement.iter().map(|mc| {
        Json::obj([
            ("buffer", mc.buffer.into()),
            ("array", plan.buffers[mc.buffer].array_name.as_str().into()),
            ("move_in", mc.move_in_count(ext).into()),
            ("move_out", mc.move_out_count(ext).into()),
        ])
    });
    let decisions = plan.decisions.iter().map(|(array, d)| {
        Json::obj([
            ("array", array.as_str().into()),
            ("beneficial", d.beneficial.into()),
            ("rank_deficient", d.order_of_magnitude.into()),
            (
                "overlap_fraction",
                d.overlap_fraction.map(|f| Json::fixed(f, 4)).into(),
            ),
        ])
    });
    let mut fields = vec![("level", label.into())];
    fields.extend(extra);
    fields.extend([
        ("total_words", plan.total_buffer_words(ext).ok().into()),
        ("buffers", buffers.collect()),
        ("movement", movement.collect()),
        ("decisions", decisions.collect()),
    ]);
    Json::obj(fields)
}

/// `analyze <kernel> --json`: the machine-readable two-level plan.
/// Built-in kernels dump the plan `run` would launch with under the
/// same `--machine` and execution flags — obtained from
/// [`warm_plan`], the daemon's `analyze` path, so the machine's
/// staging policy, the residency dim and the artifact store all apply
/// — evaluated at the representative block and thread the executor
/// analysed it for (the launch's first): the scratchpad level, plus the
/// register level when the mapping's thread dims yield one; a mapping
/// that stages nothing has no levels.
/// `.poly` sources have no blocked mapping, so they dump the
/// whole-program scratchpad plan only.
fn analyze_json(cli: &Cli, name: &str, program: &Program, params: &[i64]) -> ExitCode {
    let (base, toggles) = match launch_inputs(cli) {
        Ok(x) => x,
        Err(exit) => return exit,
    };
    let config = launch_config(&toggles, &base);
    let mut doc = vec![
        ("kernel", program.name.as_str().into()),
        ("params", params.to_vec().into()),
        (
            "config",
            Json::obj([
                ("double_buffer", config.double_buffer.into()),
                ("compiled_exec", config.compiled_exec.into()),
                ("hierarchy", config.hierarchy.into()),
                ("residency", config.residency.into()),
                ("vector_width", config.vector_width.into()),
            ]),
        ),
    ];
    let mut levels = Vec::new();
    match launch(name, 16, &base, &toggles, false) {
        Some(l) => {
            let kernel = &l.kernel;
            doc.push((
                "mapping",
                Json::obj([
                    ("round_dims", kernel.round_dims.clone().into()),
                    ("block_dims", kernel.block_dims.clone().into()),
                    ("seq_dims", kernel.seq_dims.clone().into()),
                    ("thread_dims", kernel.thread_dims.clone().into()),
                ]),
            ));
            let warmed = launch_representative(kernel, params, &l.config)
                .and_then(|rep| Ok(rep.zip(warm_plan(kernel, params, &l.config, None, None)?)));
            let warmed = match warmed {
                Ok(w) => w,
                Err(e) => return compile_error(&e.to_string()),
            };
            if let Some(((block, spec), (sp, _))) = warmed {
                let block: HashMap<String, i64> = block.into_iter().collect();
                let ext1 = sp.ext_params(params, &block).expect("fixed dims covered");
                levels.push(level_dump("scratchpad", vec![], &sp.plan, &ext1));
                if let (Some(h), Some(spec)) = (&sp.hier, spec) {
                    let threads: Vec<i64> = spec.thread_reps.iter().map(|(_, v)| *v).collect();
                    let ext2 = h
                        .ext_params(params, &block, &threads)
                        .expect("thread dims covered");
                    // Frames cache level-1 buffers; record which.
                    let extra = vec![
                        ("regs_per_inner", h.regs_per_inner.into()),
                        ("backing", h.backing.clone().into()),
                    ];
                    levels.push(level_dump("register", extra, &h.plan, &ext2));
                }
            }
        }
        None => {
            let (plan, _) = match plan_of_timed(program, params) {
                Ok(x) => x,
                Err(e) => return compile_error(&e),
            };
            levels.push(level_dump("scratchpad", vec![], &plan, params));
        }
    }
    doc.push(("levels", levels.into()));
    print!("{}", Json::obj(doc).pretty());
    ExitCode::SUCCESS
}

fn analyze(cli: &Cli) -> ExitCode {
    let (name, program, params) = match resolve_kernel(cli) {
        Ok(x) => x,
        Err(exit) => return exit,
    };
    if cli.has("--json") {
        return analyze_json(cli, name, &program, &params);
    }
    println!("== {} ==\n{program}", program.name);
    let (plan, times) = match plan_of_timed(&program, &params) {
        Ok(x) => x,
        Err(e) => return compile_error(&e),
    };
    println!("== Algorithm 1 decisions ==");
    for (array, d) in &plan.decisions {
        println!(
            "  {array}: beneficial = {}, rank-deficient = {}, overlap = {:?}",
            d.beneficial, d.order_of_magnitude, d.overlap_fraction
        );
    }
    println!("\n== Buffers (at {params:?}) ==");
    for b in &plan.buffers {
        println!(
            "  {}  // offsets {:?}, {} words",
            b.render_decl(&program.params),
            b.offsets(&params).expect("bounded"),
            b.size_words(&params).expect("bounded"),
        );
    }
    println!("\n== Movement ==");
    for mc in &plan.movement {
        let b = &plan.buffers[mc.buffer];
        println!(
            "  L{}: move in {} elements, move out {}",
            b.array_name,
            mc.move_in_count(&params),
            mc.move_out_count(&params)
        );
    }
    if cli.profile() {
        println!("\n== Pass profile ==");
        let pr = PassProfiler::new();
        pr.absorb_pass_times(&times);
        print!("{}", pr.report().render());
    }
    ExitCode::SUCCESS
}

fn emit(cli: &Cli) -> ExitCode {
    let (_, program, params) = match resolve_kernel(cli) {
        Ok(x) => x,
        Err(exit) => return exit,
    };
    let plan = match plan_of_timed(&program, &params) {
        Ok((plan, _)) => plan,
        Err(e) => return compile_error(&e),
    };
    let opts = EmitOptions {
        cuda: cli.has("--cuda"),
        block_dims: vec![],
        thread_dims: vec![],
    };
    print!("{}", emit_staged(&program, &plan, &opts));
    ExitCode::SUCCESS
}

/// The pristine `--machine` and the execution flags a built-in launch
/// resolves under. `--artifact-dir` is opened here, once: the library
/// degrades an unusable store to "no persistence", which someone who
/// asked for persistence should hear about before anything runs. `Err`
/// carries the exit already taken.
fn launch_inputs(cli: &Cli) -> Result<(MachineConfig, LaunchToggles), ExitCode> {
    let parsed = cli
        .machine()
        .and_then(|(base, _)| Ok((base, cli.toggles()?)));
    let (base, toggles) = parsed.map_err(|m| usage(&m))?;
    if let Some(dir) = &toggles.artifact_dir {
        ArtifactStore::open(dir).map_err(|e| runtime_error(&format!("artifact dir {dir}: {e}")))?;
    }
    Ok((base, toggles))
}

/// The subcommand's kernel under `--machine`, the execution flags and
/// `--size`, resolved against the built-in table: the launch `run`
/// executes and `key` addresses. `Err` carries the exit already taken
/// (usage text printed).
fn resolve_launch(cli: &Cli) -> Result<(&str, Launch, i64), ExitCode> {
    let Some(name) = cli.target.as_deref() else {
        return Err(usage("missing kernel name"));
    };
    let size = cli.size().map_err(|m| usage(&m))?;
    let unknown = || {
        let names: Vec<&str> = BUILTINS.iter().map(|b| b.name).collect();
        usage(&format!(
            "unknown kernel `{name}` (built in: {})",
            names.join(", ")
        ))
    };
    if Builtin::named(name).is_none() {
        return Err(unknown());
    }
    // Last: it creates the artifact dir, which a usage error must not.
    let (base, toggles) = launch_inputs(cli)?;
    launch(name, size, &base, &toggles, cli.has("--tuned"))
        .map(|l| (name, l, size))
        .ok_or_else(unknown)
}

fn run(cli: &Cli) -> ExitCode {
    let (name, l, size) = match resolve_launch(cli) {
        Ok(x) => x,
        Err(exit) => return exit,
    };
    // `--tuned`: the autotuned winner ran the search on the pristine
    // machine `polymem tune <name>` uses (run's execution toggles are
    // superseded by the winner's anyway), so a prior `tune` with the
    // same --artifact-dir is found, not re-searched.
    let tuned_note = match &l.tune {
        Some(Ok(source)) => Some(format!("tuned mapping ({source}): {}", l.mapping.label())),
        Some(Err(msg)) => {
            eprintln!("tune: {msg}; falling back to the preset mapping");
            None
        }
        None => None,
    };
    let (gpu, kernel, params, check) = (&l.config, &l.kernel, &l.params, l.check);
    let mut st = match l.seeded_store(42) {
        Ok(st) => st,
        Err(e) => return compile_error(&format!("no store for size {size}: {e}")),
    };
    let mut reference = st.clone();
    if let Err(e) = exec_program(&l.program, params, &mut reference) {
        return runtime_error(&format!("reference run failed: {e}"));
    }
    let profiler = cli.profile().then(PassProfiler::new);
    let stats =
        match execute_blocked_profiled(kernel, params, &mut st, gpu, true, profiler.as_ref()) {
            Ok(s) => s,
            Err(e) => return runtime_error(&format!("simulation failed: {e}")),
        };
    let ok = st.data(check).expect("array") == reference.data(check).expect("array");
    println!(
        "{name} (size {size}): {}",
        if ok {
            "result matches reference ✓"
        } else {
            "MISMATCH ✗"
        }
    );
    if let Some(note) = &tuned_note {
        println!("  {note}");
    }
    println!(
        "  blocks {}, rounds {}, instances {}",
        stats.blocks, stats.rounds, stats.instances
    );
    println!(
        "  global reads/writes {}/{}, smem reads/writes {}/{}",
        stats.global_reads, stats.global_writes, stats.smem_reads, stats.smem_writes
    );
    println!(
        "  moved in/out {}/{}, peak scratchpad {} words",
        stats.moved_in, stats.moved_out, stats.max_smem_words
    );
    println!(
        "  plan cache hits/misses {}/{}",
        stats.plan_cache_hits, stats.plan_cache_misses
    );
    if stats.residency_groups > 0 {
        println!(
            "  residency: {} group instances, {} elements retained, {} via delta transfers, {} flushed as deltas",
            stats.residency_groups, stats.retained_elems, stats.delta_elems,
            stats.flushed_delta_elems
        );
    }
    if stats.hier_groups > 0 {
        println!(
            "  register level: {} frame groups, {} smem loads saved, {} bytes through registers",
            stats.hier_groups, stats.smem_loads_saved, stats.reg_bytes_moved
        );
    }
    // Which engine actually executed, from the per-block tallies —
    // not inferred from the config, so silent fallbacks are visible.
    let engine = if stats.interpreted_blocks == 0 && stats.compiled_blocks > 0 {
        "compiled engine".to_string()
    } else if stats.compiled_blocks == 0 {
        "interpreted".to_string()
    } else {
        format!(
            "mixed: {} compiled / {} interpreted blocks",
            stats.compiled_blocks, stats.interpreted_blocks
        )
    };
    println!(
        "  compute phase {:.3} ms cpu (summed over block workers) ({engine})",
        stats.compute_ns as f64 / 1e6
    );
    if stats.interpreted_blocks > 0 {
        let f = &stats.fallback;
        println!(
            "  interpreter fallbacks: {} engine-off, {} shape-uncompiled, {} runtime-decline",
            f.engine_off, f.shape_uncompiled, f.runtime_decline
        );
    }
    if stats.dma.descriptors > 0 {
        println!(
            "  dma: {} descriptors, {} bytes ({:.1} B/desc), overlap fraction {:.2}, prefetched/forced-sync groups {}/{}",
            stats.dma.descriptors,
            stats.dma.bytes,
            stats.dma.mean_descriptor_bytes(),
            stats.dma.overlap_fraction(),
            stats.overlap_groups,
            stats.sync_groups,
        );
    }
    if let Some(pr) = &profiler {
        print!("{}", pr.report().render());
        if stats.dma.total_busy_cycles() > 0 {
            println!("DMA channel timeline (hidden vs exposed):");
            print!(
                "{}",
                polymem::machine::Timeline::from_dma(&stats.dma, gpu).render(64)
            );
            print!("{}", stats.dma.render());
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(EXIT_RUNTIME)
    }
}

/// `key <kernel> [--size N]`: print the content address under which
/// this launch's plan artifact is (or would be) stored. The address
/// is a pure function of the program, the mapping-relevant machine
/// configuration, and the block-shape parametrization — stable across
/// processes, so two invocations must print the same 32 hex digits.
fn key(cli: &Cli) -> ExitCode {
    let l = match resolve_launch(cli) {
        Ok((_, l, _)) => l,
        Err(exit) => return exit,
    };
    match plan_artifact_key(&l.kernel, &l.params, &l.config) {
        Ok(Some(k)) => {
            println!("{k}");
            ExitCode::SUCCESS
        }
        Ok(None) => {
            // The mapping stages nothing (e.g. jacobi's canonical one):
            // nothing to address, but not an error.
            println!("none");
            ExitCode::SUCCESS
        }
        Err(e) => compile_error(&e.to_string()),
    }
}

/// The search options `tune` and `run --tuned` must agree on: both
/// derive the artifact key from them, so a tuned run can only reuse a
/// search performed with the same shape.
fn tune_options(cli: &Cli, label: String) -> Result<TuneOptions, String> {
    let defaults = TuneOptions::default();
    Ok(TuneOptions {
        top_k: cli.positive("--top")?.unwrap_or(defaults.top_k),
        reps: cli.positive("--reps")?.unwrap_or(defaults.reps),
        exhaustive: cli.has("--exhaustive"),
        force: cli.has("--force"),
        space_label: label,
        ..defaults
    })
}

/// Render one [`TuneOutcome`] — human table or `--json` dump of the
/// ranked predicted-vs-simulated table.
fn print_tune_outcome(target: &str, machine: &str, out: &TuneOutcome, json: bool) {
    if json {
        // An infeasible candidate has no prediction (`u64::MAX`).
        let predicted = |p: u64| Json::from((p != u64::MAX).then_some(p));
        let rows = out.rows.iter().map(|r| {
            Json::obj([
                ("mapping", r.desc.label().into()),
                ("predicted", predicted(r.predicted)),
                ("simulated", r.simulated.into()),
                ("exact", r.exact.into()),
                ("preset", r.preset.into()),
                ("note", r.note.as_str().into()),
            ])
        });
        let doc = Json::obj([
            ("kernel", target.into()),
            ("machine", machine.into()),
            ("key", out.key.to_string().into()),
            ("plan_source", out.plan_source.into()),
            ("simulated", out.simulated.into()),
            ("total", out.total.into()),
            (
                "winner",
                Json::obj([
                    ("mapping", out.winner.label().into()),
                    ("predicted", predicted(out.winner_predicted)),
                    ("cycles", out.winner_cycles.into()),
                ]),
            ),
            ("rows", rows.collect()),
        ]);
        print!("{}", doc.pretty());
        return;
    }
    println!(
        "tune {target} ({machine}): {} candidates, {} simulated, plan source: {}",
        out.total, out.simulated, out.plan_source
    );
    println!("  key {}", out.key);
    println!(
        "  winner: {} (predicted {}, simulated {})",
        out.winner.label(),
        out.winner_predicted,
        out.winner_cycles
    );
    println!(
        "  {:>4}  {:>12}  {:>12}  {:5}  mapping",
        "rank", "predicted", "simulated", "exact"
    );
    for (i, r) in out.rows.iter().enumerate() {
        println!(
            "  {:>4}  {:>12}  {:>12}  {:5}  {}{}{}",
            i + 1,
            if r.predicted == u64::MAX {
                "-".into()
            } else {
                r.predicted.to_string()
            },
            r.simulated.map_or("-".into(), |c| c.to_string()),
            if r.simulated.is_some() {
                if r.exact {
                    "yes"
                } else {
                    "NO"
                }
            } else {
                "-"
            },
            if r.preset { "*" } else { "" },
            r.desc.label(),
            if r.note.is_empty() {
                String::new()
            } else {
                format!("  [{}]", r.note)
            }
        );
    }
}

/// `tune <kernel|.poly>` / `tune --random N`: run the cost-model-pruned
/// mapping search and print (or persist) the ranked table.
fn tune_cmd(cli: &Cli) -> ExitCode {
    // The base machine the search prices and simulates against is the
    // pristine description (default `gpu`) plus the artifact store.
    let parsed = cli
        .machine()
        .and_then(|(base, machine)| Ok((base, machine, cli.size()?)));
    let (mut base, machine, size) = match parsed {
        Ok(x) => x,
        Err(m) => return usage(&m),
    };
    base.artifact_dir = cli.value("--artifact-dir").map(str::to_string);
    let json = cli.has("--json");
    let smoke = cli.has("--smoke");
    let menu: &[i64] = if smoke { &[2, 4, 8] } else { &[2, 4, 8, 16] };

    match cli.positive::<u64>("--random") {
        Ok(Some(n)) => return tune_random(cli, n, size, &base, &machine, menu),
        Ok(None) => {}
        Err(m) => return usage(&m),
    }

    let Some(target) = cli.target.as_ref().filter(|a| !a.starts_with("--")) else {
        return usage("`tune` needs a kernel name, a .poly path, or --random N");
    };

    // Built-in kernels bring their own candidate table (with the CLI
    // preset pinned); .poly programs get the band-derived generic one.
    let (program, params, candidates, init): (Program, Vec<i64>, _, InitFn) =
        match tunespace::candidates(target, &base, smoke) {
            Some(cands) => {
                let (program, params, _) =
                    tunespace::workload(target, size).expect("space implies workload");
                let name = target.clone();
                (
                    program,
                    params,
                    cands,
                    Box::new(move |st: &mut ArrayStore| tunespace::init_store(&name, st, 42)),
                )
            }
            None => {
                let (program, params) = match kernel_program(cli, target) {
                    Ok(x) => x,
                    Err(KernelError::Unknown) => {
                        return usage(&format!("unknown kernel `{target}`"))
                    }
                    Err(KernelError::Usage(m)) => return usage(&m),
                    Err(KernelError::Compile(m)) => return compile_error(&m),
                };
                let cands = match generic_candidates(&program, &params, &base, menu) {
                    Ok(c) => c,
                    Err(e) => return compile_error(&format!("candidate derivation failed: {e}")),
                };
                let p = program.clone();
                (
                    program,
                    params,
                    cands,
                    Box::new(move |st: &mut ArrayStore| init_random_store(&p, st, 42)),
                )
            }
        };
    let opts = match tune_options(cli, format!("cli:{target}:size={size}")) {
        Ok(o) => o,
        Err(m) => return usage(&m),
    };
    match tune(&program, &params, init.as_ref(), &candidates, &base, &opts) {
        Ok(out) => {
            print_tune_outcome(target, &machine, &out, json);
            ExitCode::SUCCESS
        }
        Err(e) => runtime_error(&format!("tune failed: {e}")),
    }
}

/// `tune --random N [--seed S]`: fuzz the whole pipeline — generate N
/// random affine programs, derive generic candidate spaces, and tune
/// each one (set `POLYMEM_EXEC_CHECK=1` to cross-check every simulated
/// block against the interpreter).
fn tune_random(
    cli: &Cli,
    n: u64,
    size: i64,
    base: &MachineConfig,
    machine: &str,
    menu: &[i64],
) -> ExitCode {
    let seed0 = cli
        .value("--seed")
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(1);
    let json = cli.has("--json");
    let mut failures = 0u64;
    for k in 0..n {
        let seed = seed0 + k;
        let program = random_program(seed);
        let params = vec![size];
        let candidates = match generic_candidates(&program, &params, base, menu) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("seed {seed}: candidate derivation failed: {e}");
                failures += 1;
                continue;
            }
        };
        let opts = match tune_options(cli, format!("cli:random:{seed}:size={size}")) {
            Ok(o) => o,
            Err(m) => return usage(&m),
        };
        let p = program.clone();
        let init = move |st: &mut ArrayStore| init_random_store(&p, st, 42);
        match tune(&program, &params, &init, &candidates, base, &opts) {
            Ok(out) => {
                if json {
                    print_tune_outcome(&format!("random:{seed}"), machine, &out, true);
                } else {
                    println!(
                        "seed {seed}: {} stmts, {} candidates, {} simulated, winner {} ({} cycles)",
                        program.stmts.len(),
                        out.total,
                        out.simulated,
                        out.winner.label(),
                        out.winner_cycles
                    );
                }
            }
            Err(e) => {
                eprintln!("seed {seed}: tune failed: {e}");
                failures += 1;
            }
        }
    }
    if failures == 0 {
        ExitCode::SUCCESS
    } else {
        runtime_error(&format!("{failures} of {n} random programs failed"))
    }
}

fn serve_config(cli: &Cli) -> Result<ServeConfig, String> {
    let defaults = ServeConfig::default();
    Ok(ServeConfig {
        addr: cli.value("--addr").map_or(defaults.addr, str::to_string),
        threads: cli.positive("--threads")?.unwrap_or(defaults.threads),
        lru_capacity: cli.positive("--lru")?.unwrap_or(defaults.lru_capacity),
        launch_slots: cli
            .positive("--launch-slots")?
            .unwrap_or(defaults.launch_slots),
        artifact_dir: cli.value("--artifact-dir").map(str::to_string),
    })
}

/// `serve [--addr A] [--threads N] [--lru N] [--launch-slots N]
/// [--artifact-dir DIR]`: start the persistent compile service and
/// block until a protocol `shutdown` request.
fn serve(cli: &Cli) -> ExitCode {
    let cfg = match serve_config(cli) {
        Ok(c) => c,
        Err(msg) => return usage(&msg),
    };
    match Server::start(cfg) {
        Ok(handle) => {
            println!("polymem serve listening on {}", handle.addr());
            handle.join();
            ExitCode::SUCCESS
        }
        Err(e) => runtime_error(&format!("cannot start server: {e}")),
    }
}
