//! `membench` — end-to-end and per-layer host-time benchmark of the
//! memento-sim workspace.
//!
//! ```text
//! cargo run --release --offline --manifest-path membench/Cargo.toml -- \
//!     --workload machine_sweep --seed 1 --seconds 35 --trace 0
//! ```
//!
//! Each run builds its inputs from `--seed`, then runs closed-loop passes
//! (each pass starts when the previous one ends) for `--seconds`, setting
//! up again between some of them, and checks every pass's simulated
//! outputs. It prints
//! one line per metric and, last, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. With `--trace 0` the metrics are
//! the end-to-end ones; with `--trace 1` it makes the traced run instead
//! (see `traced.rs`) and reports the per-layer ones. See `README.md`.

mod golden;
mod machine_sweep;
mod measure;
mod paper_eval;
mod region_fleet;
mod spans;
mod traced;
mod unit_costs;

use measure::{median, peak_rss_mb, quantile, secs, steal_s, Checks, Metrics, PassLog};
use memento_simcore::json::Value;
use std::process::ExitCode;
use std::time::Instant;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    PaperEval,
    MachineSweep,
    RegionFleet,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::PaperEval,
        Workload::MachineSweep,
        Workload::RegionFleet,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperEval => "paper_eval",
            Workload::MachineSweep => "machine_sweep",
            Workload::RegionFleet => "region_fleet",
        }
    }

    /// Set-ups per run; the median is reported as `setup_s`.
    fn setup_reps(self) -> usize {
        match self {
            Workload::RegionFleet => 5,
            _ => 10,
        }
    }

    /// What one unit of `work_per_s` is.
    fn work_unit(self) -> &'static str {
        match self {
            Workload::RegionFleet => "simulated invocations per host second in simulate",
            _ => "trace events stepped per host second of machine runs",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: membench --workload <paper_eval|machine_sweep|region_fleet> \
                     --seed <n> --seconds <n> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or(format!("unknown workload '{value}'"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds: {e}"))? as f64;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not '{value}'")),
                };
            }
            _ => return Err(format!("unknown argument '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Passes every run makes even when `--seconds` has elapsed, so the
/// medians rest on at least this many samples.
const MIN_PASSES: usize = 3;

/// A workload's inputs, as its set-up builds them.
enum State {
    Paper(paper_eval::State),
    Machine(machine_sweep::State),
    Region(region_fleet::State),
}

impl State {
    fn setup(w: Workload, seed: u64) -> State {
        match w {
            Workload::PaperEval => State::Paper(paper_eval::setup()),
            Workload::MachineSweep => State::Machine(machine_sweep::setup(seed)),
            Workload::RegionFleet => State::Region(region_fleet::setup(seed)),
        }
    }

    /// Runs one pass and logs it.
    fn pass(&mut self, log: &mut PassLog) -> PassOut {
        match self {
            State::Paper(s) => {
                paper_eval::pass(s, log);
                PassOut::default()
            }
            State::Machine(s) => {
                let runs = machine_sweep::pass(s, false, log);
                PassOut {
                    event_rates: Some((rate(&runs, false), rate(&runs, true))),
                    digest: machine_sweep::sweep_digest(&runs),
                }
            }
            State::Region(s) => PassOut {
                event_rates: None,
                digest: region_fleet::matrix_digest(&region_fleet::pass(s, log)),
            },
        }
    }

    /// Threads a pass keeps busy.
    fn threads(&self) -> usize {
        match self {
            State::Paper(s) => s.jobs.max(1),
            _ => 1,
        }
    }

    /// The first pass's result digests, which later passes must repeat.
    fn reference(&mut self) -> Option<&mut Option<Vec<u64>>> {
        match self {
            State::Paper(_) => None,
            State::Machine(s) => Some(&mut s.reference),
            State::Region(s) => Some(&mut s.reference),
        }
    }
}

/// What a pass yields besides its log.
#[derive(Default)]
struct PassOut {
    /// Cold and warm trace events per host second (`machine_sweep`).
    event_rates: Option<(f64, f64)>,
    /// Digest of the pass's simulated outputs (0 on `paper_eval`).
    digest: u64,
}

fn rate(runs: &[machine_sweep::PointRun], warm: bool) -> f64 {
    let (events, secs) = runs
        .iter()
        .filter(|r| r.warm == warm)
        .fold((0u64, 0.0), |(e, s), r| (e + r.events, s + r.secs));
    events as f64 / secs
}

/// One timed pass of the untraced run, with the host's steal taken out.
struct PassRecord {
    wall_s: f64,
    work_per_s: f64,
    items_s: Vec<f64>,
    event_rates: Option<(f64, f64)>,
}

/// The slowest quarter of the passes, rounded up, slowest first.
///
/// Host time on a shared host alternates between a contended state and
/// faster spells whose share of a run varies from run to run; the
/// contended state recurs in nearly every run and reads the same each
/// time, so the timings are medians over these passes.
fn contended(mut passes: Vec<PassRecord>) -> Vec<PassRecord> {
    passes.sort_by(|a, b| b.wall_s.total_cmp(&a.wall_s));
    passes.truncate(passes.len().div_ceil(4));
    passes
}

/// The untraced run: one warm-up pass, then closed-loop passes for
/// `seconds` (the clock starts before set-up). Set-up is repeated
/// between passes, evenly over the run (`setup_reps` set-ups in all), so
/// its samples see the same host as the passes do; every pass runs on the
/// latest set-up, which must give the same outputs. The timings leave out
/// the host's steal and are taken over the slowest quarter of the passes
/// (see `contended`).
fn untraced(args: &Args) -> (Metrics, Checks) {
    let w = args.workload;
    let start = Instant::now();
    let setup_interval = args.seconds / w.setup_reps() as f64;
    let mut last_setup = Instant::now();
    let mut state = State::setup(w, args.seed);
    let mut setup_s = vec![secs(last_setup)];

    let mut checks = Checks::default();
    let mut passes = Vec::new();
    let mut digest = 0;
    // One untimed warm-up pass: it fills the host caches and the
    // allocator's free lists, and fixes the reference outputs.
    let mut warmup = PassLog::default();
    state.pass(&mut warmup);
    checks.merge(warmup.checks);
    let mut stolen_s = 0.0;
    while passes.len() < MIN_PASSES || secs(start) < args.seconds {
        let mut log = PassLog::default();
        let steal_before = steal_s();
        let t = Instant::now();
        let out = state.pass(&mut log);
        let wall = secs(t);
        // Time the hypervisor ran other guests on the pass's CPUs is not
        // the program's: every timing of the pass is scaled by the share
        // left. The tick-granular counter can overshoot on a short pass.
        let stolen = (steal_s() - steal_before) / state.threads() as f64;
        stolen_s += stolen;
        let kept = 1.0 - (stolen / wall).min(0.5);
        passes.push(PassRecord {
            wall_s: wall * kept,
            work_per_s: log.work / (log.work_s * kept),
            items_s: log.items_s.iter().map(|s| s * kept).collect(),
            event_rates: out.event_rates.map(|(c, w)| (c / kept, w / kept)),
        });
        digest = out.digest;
        checks.merge(log.checks);

        if setup_s.len() < w.setup_reps() && secs(last_setup) >= setup_interval {
            let reference = state.reference().and_then(Option::take);
            drop(state);
            last_setup = Instant::now();
            state = State::setup(w, args.seed);
            setup_s.push(secs(last_setup));
            if let Some(slot) = state.reference() {
                *slot = reference;
            }
        }
    }

    let ms: Vec<String> = passes
        .iter()
        .map(|p| format!("{:.1}", p.wall_s * 1e3))
        .collect();
    let all_walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let total = passes.len();
    let passes = contended(passes);
    let wall: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let rates: Vec<f64> = passes.iter().map(|p| p.work_per_s).collect();
    let items: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.items_s.iter().copied())
        .collect();
    let event_rates: Vec<(f64, f64)> = passes.iter().filter_map(|p| p.event_rates).collect();

    let mut m = Metrics::default();
    m.put("wall_s", median(&wall), "s");
    m.put("setup_s", median(&setup_s), "s");
    m.put("work_per_s", median(&rates), "1/s");
    m.put("item_p50_ms", quantile(&items, 0.5) * 1e3, "ms");
    m.put("item_p90_ms", quantile(&items, 0.9) * 1e3, "ms");
    m.put("peak_rss_mb", peak_rss_mb(), "MB");

    println!(
        "membench {} seed={} passes={total} contended={} items={} setups={}",
        w.name(),
        args.seed,
        passes.len(),
        items.len(),
        setup_s.len()
    );
    println!(
        "  all passes: median {:.4} s, p25 {:.4} s, p75 {:.4} s; work_per_s is {}",
        median(&all_walls),
        quantile(&all_walls, 0.25),
        quantile(&all_walls, 0.75),
        w.work_unit()
    );
    println!("  pass times (ms, steal taken out): {}", ms.join(" "));
    println!("  host steal over the timed passes: {stolen_s:.2} s per thread");
    match &state {
        State::Paper(s) => {
            println!(
                "  jobs={}; seed not applied (golden reference uses pinned seeds)",
                s.jobs
            );
        }
        State::Machine(_) => {
            let (cold, warm): (Vec<f64>, Vec<f64>) = event_rates.into_iter().unzip();
            println!("  cold_events_per_s {:.1} 1/s", median(&cold));
            println!("  warm_events_per_s {:.1} 1/s", median(&warm));
            println!("  statistics digest {digest:016x}");
        }
        State::Region(_) => {
            println!("  fleet_inv_per_s {:.1} 1/s", median(&rates));
            println!("  cell results digest {digest:016x}");
        }
    }
    (m, checks)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let (metrics, checks) = if args.trace {
        traced::run(args.workload, args.seed, args.seconds)
    } else {
        untraced(&args)
    };

    let mut out = Value::object();
    for (name, value, unit) in metrics.entries() {
        println!("  {name:<40} {value:>16.6} {unit}");
        let mut v = Value::object();
        v.set("value", *value).set("unit", *unit);
        out.set(name, v);
    }
    println!(
        "  {:<40} {:>16.6} ({} of {} checks failed)",
        "failed_frac",
        checks.failed_frac(),
        checks.failed,
        checks.attempted
    );
    let mut result = Value::object();
    result
        .set("correct", checks.failed == 0)
        .set("attempted", checks.attempted as f64)
        .set("failed", checks.failed as f64)
        .set("metrics", out);
    println!("{result}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pass(wall_s: f64) -> PassRecord {
        PassRecord {
            wall_s,
            work_per_s: 1.0 / wall_s,
            items_s: vec![wall_s],
            event_rates: None,
        }
    }

    #[test]
    fn contended_keeps_the_slowest_quarter() {
        let walls = [1.2, 1.8, 1.3, 1.9, 1.25, 1.35, 1.85, 1.4, 1.3];
        let kept: Vec<f64> = contended(walls.map(pass).into())
            .iter()
            .map(|p| p.wall_s)
            .collect();
        assert_eq!(kept, [1.9, 1.85, 1.8]);
        assert_eq!(contended(vec![pass(1.0)]).len(), 1);
    }
}
