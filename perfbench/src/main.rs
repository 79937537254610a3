//! The repository benchmark: runs one named workload as a closed loop
//! (one caller; each `execute` starts after the previous one returns),
//! times every call from outside, checks every output bit-for-bit
//! against the reference interpreter, and prints its metrics by name
//! with their units. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`.
//!
//!     perfbench --workload fig3-inproc --seed 1 --seconds 20 --trace 0
//!
//! `--trace 0` runs untraced passes and reports the end-to-end metrics;
//! `--trace 1` alternates untraced and metered passes and reports the
//! per-layer breakdown of the median metered pass. Build and run it
//! through `perfbench/run.py`, which also builds the release
//! `fgdsm-node` worker the `tcp` backend spawns. See README.md.

mod host;
mod names;
mod stats;
mod workload;

use fgdsm_apps::AppSpec;
use fgdsm_hpf::{analyze, execute_reference, try_execute, ExecConfig, ReferenceResult, RunResult};
use fgdsm_section::Env;
use fgdsm_tempest::WireSpan;
use names::Emitter;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use workload::{BackendKind, Workload, NPROCS};

/// Set-up repeats at least this often and for at least this long
/// before the first pass, and once more after every pass; `setup_s` is
/// the median repetition, net of steal.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MIN_SECONDS: f64 = 2.0;

/// Environment variables refused because they change what is measured:
/// the first two make `execute` write files mid-run, the third changes
/// the socket family of the `tcp` backend.
const REFUSED_ENV: [&str; 3] = ["FGDSM_TRACE", "FGDSM_CHROME", "FGDSM_NET"];

/// Table 1's message cost: 40 µs fixed plus 20 MB/s (50 ns per byte).
const TABLE1_ALPHA_US: f64 = 40.0;
const TABLE1_BETA_NS_PER_BYTE: f64 = 50.0;

const USAGE: &str = "usage: perfbench --workload <fig3-inproc|fig3-tcp|irregular> --seed <n> \
                     --seconds <n> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse()
                        .map_err(|e| format!("--seed {value:?}: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|e| format!("--seconds {value:?}: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds {value}: want 0 < s <= 3600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value:?}: want 0 or 1")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// Locate the release `fgdsm-node` (built next to this binary) before
/// anything is timed, and pin it through `FGDSM_NODE_BIN` so
/// `fgdsm_net::node_command` can never fall back to `cargo run` (which
/// would build a debug worker inside a timed run).
fn pin_node_bin() -> Result<PathBuf, String> {
    let path = std::env::current_exe()
        .map_err(|e| format!("current_exe: {e}"))?
        .with_file_name(format!("fgdsm-node{}", std::env::consts::EXE_SUFFIX));
    let path = path
        .canonicalize()
        .map_err(|e| format!("release fgdsm-node not found at {}: {e}", path.display()))?;
    if path.parent().and_then(|d| d.file_name()) != Some("release".as_ref()) {
        return Err(format!(
            "{} is not a release build (want target/release/fgdsm-node)",
            path.display()
        ));
    }
    let probe = std::process::Command::new(&path)
        .args(["--probe", "tcp"])
        .status()
        .map_err(|e| format!("cannot start {}: {e}", path.display()))?;
    if !probe.success() {
        return Err(format!(
            "{} --probe tcp failed ({probe}): loopback TCP is unavailable",
            path.display()
        ));
    }
    std::env::set_var("FGDSM_NODE_BIN", &path);
    Ok(path)
}

/// The workload's programs and their reference-interpreter outputs.
struct Prepared {
    apps: Vec<AppSpec>,
    refs: Vec<ReferenceResult>,
}

/// Build the programs and run the reference interpreter on each:
/// returns the result and the two phases' seconds.
fn prepare(w: Workload) -> (Prepared, f64, f64) {
    let t0 = Instant::now();
    let apps = w.build_apps();
    let build_s = t0.elapsed().as_secs_f64();
    let names: Vec<&str> = apps.iter().map(|a| a.name).collect();
    assert_eq!(names, w.app_names(), "app suite changed order");
    let t1 = Instant::now();
    let refs = apps
        .iter()
        .map(|a| execute_reference(&a.program, &ExecConfig::sm_unopt(NPROCS)))
        .collect();
    let ref_s = t1.elapsed().as_secs_f64();
    (Prepared { apps, refs }, build_s, ref_s)
}

/// Every set-up repetition's times, in seconds.
#[derive(Default)]
struct SetupTimes {
    build: Vec<f64>,
    reference: Vec<f64>,
    raw: Vec<f64>,
    net: Vec<f64>,
}

impl SetupTimes {
    /// One timed set-up repetition.
    fn rep(&mut self, w: Workload) -> Prepared {
        let steal0 = host::steal_ticks();
        let (p, b, r) = prepare(w);
        let stolen = host::steal_ticks().saturating_sub(steal0);
        self.build.push(b);
        self.reference.push(r);
        self.raw.push(b + r);
        self.net.push(b + r - host::ticks_to_s(stolen));
        p
    }
}

/// What one `execute` call left behind, with the outputs themselves
/// already compared and dropped.
struct RunRecord {
    app: usize,
    backend: BackendKind,
    outside_ns: u64,
    error: Option<String>,
    stats: RunStats,
}

/// A successful run's figures (all zero for a run that failed).
#[derive(Default)]
struct RunStats {
    inner_ns: u64,
    route_ns: u64,
    virtual_s: f64,
    compute_s: f64,
    comm_s: f64,
    msgs: u64,
    bytes: u64,
    misses: u64,
    ctl_calls: u64,
    wire_frames: u64,
    wire_payload_bytes: u64,
    spans: Vec<WireSpan>,
    encode_ns: u64,
    decode_ns: u64,
    apply_ns: u64,
    node_apply_ns: u64,
}

/// First difference between a run's outputs and the reference's.
fn compare(prog: &fgdsm_hpf::Program, r: &RunResult, want: &ReferenceResult) -> Option<String> {
    for (i, decl) in prog.arrays.iter().enumerate() {
        let (g, w) = (&r.metas[i], &want.metas[i]);
        let got = &r.data[g.base..g.base + decl.len()];
        let exp = &want.data[w.base..w.base + decl.len()];
        if let Some(k) = (0..exp.len()).find(|&k| got[k].to_bits() != exp[k].to_bits()) {
            return Some(format!(
                "array `{}` differs at {k}: reference {} vs {}",
                decl.name, exp[k], got[k]
            ));
        }
    }
    for (k, v) in &want.scalars {
        if r.scalars.get(k).map(|x| x.to_bits()) != Some(v.to_bits()) {
            return Some(format!(
                "scalar `{k}`: reference {v} vs {:?}",
                r.scalars.get(k)
            ));
        }
    }
    None
}

/// Sum of the histogram sums whose keys start with `prefix`.
fn hist_sum(r: &RunResult, prefix: &str) -> u64 {
    r.metrics().map_or(0, |reg| {
        reg.iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .filter_map(|(_, m)| m.as_hist().map(|h| h.sum()))
            .sum()
    })
}

/// Sum of the `node<i>.apply.*` histogram sums (the workers' own apply).
fn node_apply_sum(r: &RunResult) -> u64 {
    r.metrics().map_or(0, |reg| {
        reg.iter()
            .filter(|(k, _)| {
                k.strip_prefix("node")
                    .and_then(|rest| rest.split_once('.'))
                    .is_some_and(|(id, key)| {
                        id.bytes().all(|c| c.is_ascii_digit()) && key.starts_with("apply.")
                    })
            })
            .filter_map(|(_, m)| m.as_hist().map(|h| h.sum()))
            .sum()
    })
}

fn record(
    prep: &Prepared,
    app: usize,
    backend: BackendKind,
    outside: Duration,
    res: Result<RunResult, fgdsm_hpf::ExecError>,
) -> RunRecord {
    let mut rec = RunRecord {
        app,
        backend,
        outside_ns: outside.as_nanos() as u64,
        error: None,
        stats: RunStats::default(),
    };
    let r = match res {
        Ok(r) => r,
        Err(e) => {
            rec.error = Some(e.to_string());
            return rec;
        }
    };
    rec.error = compare(&prep.apps[app].program, &r, &prep.refs[app])
        .or_else(|| r.check_metrics_conservation().err());
    let rep = &r.report;
    let s = &mut rec.stats;
    s.inner_ns = rep.wall_ns;
    s.route_ns = r.wire_route_ns();
    s.virtual_s = r.total_s();
    s.compute_s = rep.compute_s();
    s.comm_s = rep.comm_s();
    for n in &rep.nodes {
        s.msgs += n.msgs_sent;
        s.bytes += n.bytes_sent;
        s.misses += n.misses();
        s.ctl_calls += n.mk_writable_calls
            + n.implicit_writable_calls
            + n.implicit_invalidate_calls
            + n.send_range_calls
            + n.ready_recv_calls
            + n.flush_range_calls;
    }
    s.wire_frames = r.wire_frames;
    s.wire_payload_bytes = r.wire_payload_bytes;
    s.encode_ns = hist_sum(&r, "coord.encode.");
    s.decode_ns = hist_sum(&r, "coord.decode.");
    s.apply_ns = hist_sum(&r, "coord.apply.");
    s.node_apply_ns = node_apply_sum(&r);
    s.spans = r.wire_spans;
    rec
}

/// One pass: every (app, backend) pair once, in the seed's order.
struct Pass {
    metered: bool,
    wall_ns: u64,
    /// Harness time between and around the calls: output comparison,
    /// record keeping, dropping results.
    other_ns: u64,
    steal_ticks: u64,
    /// CPU seconds of this process and the node processes it reaped.
    cpu_s: f64,
    runs: Vec<RunRecord>,
}

impl Pass {
    /// Σ `RunResult::total_s`, summed in canonical (app, backend) order
    /// so it does not depend on the seed.
    fn virtual_s(&self) -> f64 {
        let mut v: Vec<&RunRecord> = self.runs.iter().collect();
        v.sort_by_key(|r| (r.app, r.backend.name()));
        v.iter().map(|r| r.stats.virtual_s).sum()
    }

    /// Wall seconds less the CPU time the hypervisor stole during the
    /// pass: the pass as it would have run on an uncontended host.
    fn net_wall_s(&self) -> f64 {
        secs(self.wall_ns) - host::ticks_to_s(self.steal_ticks)
    }

    fn failed(&self) -> usize {
        self.runs.iter().filter(|r| r.error.is_some()).count()
    }

    fn sum(&self, b: Option<BackendKind>, f: impl Fn(&RunRecord) -> u64) -> u64 {
        self.runs
            .iter()
            .filter(|r| b.is_none() || Some(r.backend) == b)
            .map(f)
            .sum()
    }
}

fn run_pass(prep: &Prepared, order: &[(usize, BackendKind)], metered: bool) -> Pass {
    let steal0 = host::steal_ticks();
    let cpu0 = host::cpu_s();
    let start = Instant::now();
    let mut mark = start;
    let mut other = Duration::ZERO;
    let mut runs = Vec::with_capacity(order.len());
    for &(app, backend) in order {
        let cfg = backend.config(metered);
        let t0 = Instant::now();
        let res = try_execute(&prep.apps[app].program, &cfg);
        let t1 = Instant::now();
        other += t0 - mark;
        runs.push(record(prep, app, backend, t1 - t0, res));
        mark = t1;
    }
    let end = Instant::now();
    other += end - mark;
    Pass {
        metered,
        wall_ns: (end - start).as_nanos() as u64,
        other_ns: other.as_nanos() as u64,
        steal_ticks: host::steal_ticks().saturating_sub(steal0),
        cpu_s: host::cpu_s() - cpu0,
        runs,
    }
}

/// The conservation checks of a metered pass; `Err` names the first
/// one that fails.
fn check_conservation(p: &Pass) -> Result<(), String> {
    for r in &p.runs {
        if r.error.is_none() && r.stats.inner_ns > r.outside_ns {
            return Err(format!(
                "run {} of app #{}: inner wall_ns {} exceeds outside time {}",
                r.backend.name(),
                r.app,
                r.stats.inner_ns,
                r.outside_ns
            ));
        }
    }
    let calls = p.sum(None, |r| r.outside_ns);
    if calls + p.other_ns != p.wall_ns {
        return Err(format!(
            "Σ run_s ({calls} ns) + harness.other_s ({} ns) != wall ({} ns)",
            p.other_ns, p.wall_ns
        ));
    }
    let span_frames = p.sum(None, |r| {
        r.stats.spans.iter().map(|s| u64::from(s.frames)).sum()
    });
    let frames = p.sum(None, |r| r.stats.wire_frames);
    if span_frames != frames {
        return Err(format!(
            "Σ span frames {span_frames} != wire.frames {frames}"
        ));
    }
    let span_ns = p.sum(None, |r| r.stats.spans.iter().map(|s| s.dur_ns).sum());
    let route = p.sum(None, |r| r.stats.route_ns);
    if span_ns > route {
        return Err(format!(
            "Σ span durations {span_ns} ns exceed wire.route_s {route} ns"
        ));
    }
    Ok(())
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// Per-layer metrics of one metered pass (plus the run-level extras).
fn layer_metrics(w: Workload, p: &Pass, prep: &Prepared, extras: &[(&str, f64)]) -> Emitter {
    let mut e = Emitter::new(names::per_layer());
    for (n, v) in extras {
        e.set(n, *v);
    }
    for (app, backend) in workload::all_run_names() {
        let ns = p
            .runs
            .iter()
            .filter(|r| {
                prep.apps.get(r.app).map(|a| a.name) == Some(app) && r.backend.name() == backend
            })
            .map(|r| r.outside_ns)
            .sum();
        e.set(&format!("run_s.{app}.{backend}"), secs(ns));
    }
    for b in BackendKind::ALL {
        let name = b.name();
        let on = Some(b);
        let inner = p.sum(on, |r| r.stats.inner_ns);
        let post = p.sum(on, |r| r.outside_ns.saturating_sub(r.stats.inner_ns));
        e.set(&format!("exec.inner_s.{name}"), secs(inner));
        e.set(&format!("verify.post_run_s.{name}"), secs(post));
        e.set(
            &format!("protocol.msgs.{name}"),
            p.sum(on, |r| r.stats.msgs) as f64,
        );
        e.set(
            &format!("protocol.bytes.{name}"),
            p.sum(on, |r| r.stats.bytes) as f64,
        );
        e.set(
            &format!("protocol.misses.{name}"),
            p.sum(on, |r| r.stats.misses) as f64,
        );
        e.set(
            &format!("protocol.ctl_calls.{name}"),
            p.sum(on, |r| r.stats.ctl_calls) as f64,
        );
    }
    e.set("virtual_s", p.virtual_s());
    e.set(
        "virtual.compute_s",
        p.runs.iter().map(|r| r.stats.compute_s).sum(),
    );
    e.set(
        "virtual.comm_s",
        p.runs.iter().map(|r| r.stats.comm_s).sum(),
    );
    e.set("error_rate", p.failed() as f64 / p.runs.len() as f64);

    let spans: Vec<&WireSpan> = p.runs.iter().flat_map(|r| &r.stats.spans).collect();
    let route_ns = p.sum(None, |r| r.stats.route_ns);
    let span_ns: u64 = spans.iter().map(|s| s.dur_ns).sum();
    let frames = p.sum(None, |r| r.stats.wire_frames);
    let mut durs: Vec<u64> = spans.iter().map(|s| s.dur_ns).collect();
    durs.sort_unstable();
    let pts: Vec<(f64, f64)> = spans
        .iter()
        .map(|s| (s.bytes as f64, s.dur_ns as f64))
        .collect();
    let (alpha_ns, beta) = stats::fit_line(&pts);
    e.set("wire.frames", frames as f64);
    e.set(
        "wire.payload_bytes",
        p.sum(None, |r| r.stats.wire_payload_bytes) as f64,
    );
    e.set("wire.route_s", secs(route_ns));
    e.set("wire.route_share", route_ns as f64 / p.wall_ns as f64);
    e.set("wire.route_gap_s", secs(route_ns - span_ns));
    e.set("wire.batches", spans.len() as f64);
    e.set(
        "wire.frames_per_batch",
        if spans.is_empty() {
            0.0
        } else {
            frames as f64 / spans.len() as f64
        },
    );
    e.set(
        "wire.batch_us.p50",
        stats::percentile(&durs, 50.0) as f64 / 1e3,
    );
    e.set(
        "wire.batch_us.p99",
        stats::percentile(&durs, 99.0) as f64 / 1e3,
    );
    e.set("wire.batch_samples", durs.len() as f64);
    e.set("wire.alpha_us", alpha_ns / 1e3);
    e.set("wire.beta_ns_per_byte", beta);
    e.set("wire.encode_s", secs(p.sum(None, |r| r.stats.encode_ns)));
    e.set("wire.decode_s", secs(p.sum(None, |r| r.stats.decode_ns)));
    e.set("wire.apply_s", secs(p.sum(None, |r| r.stats.apply_ns)));
    e.set(
        "wire.node_apply_s",
        secs(p.sum(None, |r| r.stats.node_apply_ns)),
    );
    e.set("harness.other_s", secs(p.other_ns));
    e.set("trace.wall_s", secs(p.wall_ns));
    if w.uses_tcp() {
        let one_size = spans.iter().all(|s| s.bytes == spans[0].bytes);
        println!(
            "cost-form fit over {} batches: alpha = {:.2} us (Table 1: {TABLE1_ALPHA_US} us), \
             beta = {:.3} ns/B (Table 1: {TABLE1_BETA_NS_PER_BYTE} ns/B = 20 MB/s){}",
            spans.len(),
            alpha_ns / 1e3,
            beta,
            if one_size {
                "; every batch had one size, so beta is undetermined and reads 0"
            } else {
                ""
            }
        );
    }
    e
}

/// Seconds to run every static loop's access analysis once.
fn time_analysis(prep: &Prepared) -> f64 {
    let env = Env::new();
    let t0 = Instant::now();
    for a in &prep.apps {
        for l in a.program.par_loops() {
            if l.is_static() {
                black_box(analyze(&a.program, l, &env, NPROCS));
            }
        }
    }
    t0.elapsed().as_secs_f64()
}

/// Seconds for one 8-node `SocketTransport::spawn` plus `shutdown`.
fn time_spawn(prep: &Prepared) -> Result<f64, String> {
    let geom = fgdsm_net::NetGeometry {
        nprocs: NPROCS,
        wpb: ExecConfig::sm_unopt(NPROCS).cost.words_per_block() as u32,
        seg_words: prep.refs.iter().map(|r| r.data.len()).max().unwrap_or(0) as u64,
    };
    let t0 = Instant::now();
    let mut t = fgdsm_net::SocketTransport::spawn(geom, fgdsm_net::SocketOpts::default())
        .map_err(|e| format!("net.spawn_s: {e}"))?;
    t.shutdown();
    Ok(t0.elapsed().as_secs_f64())
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn print_pass(prep: &Prepared, label: &str, p: &Pass) {
    println!(
        "{{\"pass\": {}, \"metered\": {}, \"wall_s\": {}, \"cpu_s\": {:.2}, \"virtual_s\": {}, \
         \"steal_ticks\": {}, \"failed\": {}}}",
        json_str(label),
        p.metered,
        secs(p.wall_ns),
        p.cpu_s,
        p.virtual_s(),
        p.steal_ticks,
        p.failed()
    );
    for r in p.runs.iter().filter(|r| r.error.is_some()) {
        eprintln!(
            "perfbench: {} on {} failed: {}",
            prep.apps[r.app].name,
            r.backend.name(),
            r.error.as_deref().unwrap_or("")
        );
    }
}

fn fail(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    std::process::exit(1);
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    for var in REFUSED_ENV {
        if std::env::var_os(var).is_some() {
            fail(&format!(
                "refusing to run with {var} set: it changes what is measured"
            ));
        }
    }
    let w = args.workload;
    let node_bin = if w.uses_tcp() {
        let p = pin_node_bin().unwrap_or_else(|e| fail(&e));
        p.display().to_string()
    } else {
        "unused".to_string()
    };
    let order = w.order(args.seed);
    let order_names: Vec<String> = order
        .iter()
        .map(|&(a, b)| json_str(&format!("{}/{}", w.app_names()[a], b.name())))
        .collect();
    println!(
        "{{\"context\": {{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"seconds\": {}, \
         \"nproc\": {}, \"git_rev\": {}, \"node_bin\": {}, \"order\": [{}]}}}}",
        json_str(w.name()),
        args.seed,
        u8::from(args.trace),
        args.seconds,
        host::nproc(),
        json_str(&host::git_rev()),
        json_str(&node_bin),
        order_names.join(", ")
    );

    // Set-up, repeated; the last repetition's programs are measured.
    let mut setup = SetupTimes::default();
    let mut prep = setup.rep(w);
    while setup.raw.len() < SETUP_MIN_REPS || setup.raw.iter().sum::<f64>() < SETUP_MIN_SECONDS {
        drop(prep);
        prep = setup.rep(w);
    }

    // One warm-up pass, checked but not timed: first-touch page faults
    // and the node binary's first start land here. It runs in canonical
    // order, so the peak resident set it leaves does not depend on the
    // seed (later passes may raise it through allocator fragmentation
    // that depends on the order).
    let warm = run_pass(&prep, &w.pairs(), false);
    print_pass(&prep, "warm-up", &warm);
    let peak_rss_mb = host::peak_rss_mb();

    // Measurement: passes until the time is up. Untraced passes only
    // with --trace 0; alternating untraced / metered with --trace 1.
    let budget = Duration::from_secs_f64(args.seconds);
    let t0 = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    let mut analyze_s = Vec::new();
    let mut spawn_s = Vec::new();
    loop {
        let metered = args.trace && passes.len() % 2 == 1;
        let p = run_pass(&prep, &order, metered);
        print_pass(&prep, &passes.len().to_string(), &p);
        if metered {
            if let Err(e) = check_conservation(&p) {
                fail(&format!("conservation check failed: {e}"));
            }
            analyze_s.push(time_analysis(&prep));
            if w.uses_tcp() {
                spawn_s.push(time_spawn(&prep).unwrap_or_else(|e| fail(&e)));
            }
        }
        passes.push(p);
        // One more set-up repetition per pass, so `setup_s` samples the
        // host over the whole run as `wall_s` does, not only its start.
        drop(setup.rep(w));
        let enough = !args.trace || passes.len() >= 2;
        if enough && t0.elapsed() >= budget {
            break;
        }
    }

    // The warm-up pass counts towards correctness, not towards timing.
    let checked = || std::iter::once(&warm).chain(&passes);
    let attempted: usize = checked().map(|p| p.runs.len()).sum();
    let failed: usize = checked().map(Pass::failed).sum();
    let virt: Vec<f64> = checked().map(Pass::virtual_s).collect();
    let virtual_same = virt.iter().all(|v| v.to_bits() == virt[0].to_bits());
    if !virtual_same {
        eprintln!("perfbench: virtual_s differs between passes: {virt:?}");
    }
    let correct = failed == 0 && virtual_same;
    let walls = |metered: bool, net: bool| -> Vec<f64> {
        passes
            .iter()
            .filter(|p| p.metered == metered)
            .map(|p| if net { p.net_wall_s() } else { secs(p.wall_ns) })
            .collect()
    };
    let untraced = walls(false, true);
    let error_rate = failed as f64 / attempted as f64;
    println!(
        "{} seed {}: {} pass(es), {attempted} runs, {failed} failed",
        w.name(),
        args.seed,
        passes.len()
    );
    println!(
        "  wall_s      = {:.4} s (median of {} untraced passes net of steal; raw {:.4} s)",
        stats::median(&untraced),
        untraced.len(),
        stats::median(&walls(false, false))
    );
    println!(
        "  setup_s     = {:.4} s (median of {} repetitions net of steal; raw {:.4} s)",
        stats::median(&setup.net),
        setup.net.len(),
        stats::median(&setup.raw)
    );
    println!(
        "  virtual_s   = {:.6} virt_s (identical on every pass: {virtual_same})",
        virt[0]
    );
    println!("  error_rate  = {error_rate} ({failed}/{attempted})");
    println!("  peak_rss_mb = {peak_rss_mb:.1} MB (after set-up and the warm-up pass)");

    let metrics = if args.trace {
        let traced = walls(true, true);
        let metered: Vec<&Pass> = passes.iter().filter(|p| p.metered).collect();
        let mid = metered[stats::median_index(&traced)];
        let steal: u64 = passes.iter().map(|p| p.steal_ticks).sum();
        let extras = [
            ("host.nproc", host::nproc() as f64),
            ("host.steal_ticks", steal as f64),
            ("apps.build_s", stats::median(&setup.build)),
            ("reference.run_s", stats::median(&setup.reference)),
            ("analysis.analyze_s", stats::median(&analyze_s)),
            ("net.spawn_s", stats::median(&spawn_s)),
            (
                "trace.overhead_s",
                stats::median(&traced) - stats::median(&untraced),
            ),
        ];
        layer_metrics(w, mid, &prep, &extras).finish()
    } else {
        let mut e = Emitter::new(names::end_to_end());
        e.set("wall_s", stats::median(&untraced));
        e.set("setup_s", stats::median(&setup.net));
        e.set("peak_rss_mb", peak_rss_mb);
        e.finish()
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "{}: {{\"value\": {v:?}, \"unit\": {}}}",
                json_str(n),
                json_str(u)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A metered pass of `w` whose runs each took 10 ns outside, 6 ns
    /// inside, with one two-frame wire batch.
    fn fake_pass(w: Workload) -> Pass {
        let runs: Vec<RunRecord> = w
            .pairs()
            .into_iter()
            .map(|(app, backend)| RunRecord {
                app,
                backend,
                outside_ns: 10,
                error: None,
                stats: RunStats {
                    inner_ns: 6,
                    route_ns: 4,
                    virtual_s: 1.0,
                    wire_frames: 2,
                    spans: vec![WireSpan {
                        dst: 0,
                        start_ns: 0,
                        dur_ns: 3,
                        frames: 2,
                        bytes: 100,
                    }],
                    ..RunStats::default()
                },
            })
            .collect();
        let calls = 10 * runs.len() as u64;
        Pass {
            metered: true,
            wall_ns: calls + 5,
            other_ns: 5,
            steal_ticks: 0,
            cpu_s: 0.0,
            runs,
        }
    }

    #[test]
    fn layer_metrics_emit_exactly_the_documented_list() {
        let extras = [
            ("host.nproc", 1.0),
            ("host.steal_ticks", 0.0),
            ("apps.build_s", 0.0),
            ("reference.run_s", 0.0),
            ("analysis.analyze_s", 0.0),
            ("net.spawn_s", 0.0),
            ("trace.overhead_s", 0.0),
        ];
        for w in Workload::ALL {
            let prep = Prepared {
                apps: w.build_apps(),
                refs: Vec::new(),
            };
            let p = fake_pass(w);
            assert_eq!(check_conservation(&p), Ok(()));
            let out = layer_metrics(w, &p, &prep, &extras).finish();
            let got: Vec<&str> = out.iter().map(|(n, _, _)| n.as_str()).collect();
            let want = names::per_layer();
            let want: Vec<&str> = want.iter().map(|(n, _)| n.as_str()).collect();
            assert_eq!(got, want);
            let value = |name: &str| out.iter().find(|(n, _, _)| n == name).unwrap().1;
            for (a, b) in w.pairs() {
                let name = format!("run_s.{}.{}", w.app_names()[a], b.name());
                assert!(value(&name) > 0.0, "{name} not attributed");
            }
            assert_eq!(value("wire.frames_per_batch"), 2.0);
        }
    }

    #[test]
    fn conservation_checks_catch_each_imbalance() {
        let w = Workload::Irregular;
        let mut p = fake_pass(w);
        p.other_ns += 1;
        assert!(check_conservation(&p)
            .unwrap_err()
            .contains("harness.other_s"));
        let mut p = fake_pass(w);
        p.runs[0].stats.inner_ns = 11;
        assert!(check_conservation(&p)
            .unwrap_err()
            .contains("exceeds outside"));
        let mut p = fake_pass(w);
        p.runs[0].stats.wire_frames = 3;
        assert!(check_conservation(&p).unwrap_err().contains("span frames"));
        let mut p = fake_pass(w);
        p.runs[0].stats.route_ns = 0;
        assert!(check_conservation(&p).unwrap_err().contains("route"));
    }

    #[test]
    fn args_parse_and_reject() {
        let argv = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv(
            "--workload irregular --seed 7 --seconds 20 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::Irregular, 7, 20.0, true)
        );
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload irregular --seed x --seconds 1 --trace 0",
            "--workload irregular --seed 1 --seconds 0 --trace 0",
            "--workload irregular --seed 1 --seconds 1 --trace 2",
            "--workload irregular --seed 1 --seconds 1",
            "--workload irregular --seed 1 --seconds 1 --trace 0 --extra 1",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }
}
