//! `perfbench`: the end-to-end and per-layer benchmark of the
//! HD-VideoBench codecs and their served path.
//!
//! ```text
//! perfbench --workload <paper_720p|live_720p|segments_wire> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run measures the workload untraced and prints
//! the end-to-end metrics; with `--trace 1` it measures half its time
//! untraced and half with hdvb-trace on, and prints the per-layer
//! metrics. The last line of standard output is the JSON result; the
//! line before it is the provenance header. See `README.md`.

mod check;
mod live;
mod paper;
mod report;
mod segments;
mod stats;
mod sys;

use hdvb_frame::{BufferPool, FramePool, PoolStats};
use report::Metrics;
use std::time::Instant;

#[global_allocator]
static ALLOC: sys::CountingAlloc = sys::CountingAlloc;

/// The end-to-end metrics every workload reports, with their units.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("cpu_ms_per_frame", "ms"),
    ("psnr_db", "dB"),
    ("kbps", "kbit/s"),
    ("fps", "frame/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
];

/// The per-layer metrics of the traced run, with their units. A layer
/// that a workload does not cross reads 0 on that workload.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("hdvb-seq.frame_ms", "ms"),
    ("hdvb-mpeg2.encode_ms", "ms"),
    ("hdvb-mpeg4.encode_ms", "ms"),
    ("hdvb-h264.encode_ms", "ms"),
    ("hdvb-mpeg2.decode_ms", "ms"),
    ("hdvb-mpeg4.decode_ms", "ms"),
    ("hdvb-h264.decode_ms", "ms"),
    ("hdvb-mpeg2.motion_estimation_ms", "ms"),
    ("hdvb-mpeg2.motion_comp_ms", "ms"),
    ("hdvb-mpeg2.transform_quant_ms", "ms"),
    ("hdvb-mpeg2.entropy_coding_ms", "ms"),
    ("hdvb-mpeg2.reconstruct_ms", "ms"),
    ("hdvb-mpeg4.motion_estimation_ms", "ms"),
    ("hdvb-mpeg4.motion_comp_ms", "ms"),
    ("hdvb-mpeg4.transform_quant_ms", "ms"),
    ("hdvb-mpeg4.entropy_coding_ms", "ms"),
    ("hdvb-mpeg4.reconstruct_ms", "ms"),
    ("hdvb-h264.motion_estimation_ms", "ms"),
    ("hdvb-h264.motion_comp_ms", "ms"),
    ("hdvb-h264.transform_quant_ms", "ms"),
    ("hdvb-h264.entropy_coding_ms", "ms"),
    ("hdvb-h264.reconstruct_ms", "ms"),
    ("hdvb-h264.deblock_ms", "ms"),
    ("hdvb-core.push_ms", "ms"),
    ("hdvb-frame.frame_pool_hit_rate", "ratio"),
    ("hdvb-frame.buffer_pool_hit_rate", "ratio"),
    ("hdvb-frame.allocs_per_frame", "count"),
    ("hdvb-net.wire_encode_ms", "ms"),
    ("hdvb-net.wire_decode_ms", "ms"),
    ("hdvb-net.bytes_per_frame", "byte"),
    ("hdvb-net.write_wait_ms", "ms"),
    ("hdvb-net.connect_ms", "ms"),
    ("hdvb-net.open_ms", "ms"),
    ("hdvb-net.send_ms", "ms"),
    ("hdvb-net.finish_ms", "ms"),
    ("hdvb-net.threads_max", "count"),
    ("hdvb-serve.input_mean_ms", "ms"),
    ("loadgen.late_p95_ms", "ms"),
    ("coverage", "ratio"),
    ("trace_overhead", "ratio"),
];

/// The workloads, by name.
pub const WORKLOADS: [&str; 3] = ["paper_720p", "live_720p", "segments_wire"];

/// Parsed command line.
pub struct Args {
    /// Which workload to run.
    pub workload: String,
    /// Seed for every input choice.
    pub seed: u64,
    /// Length of the measured phase, in seconds.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => {
                return Err(bad("expected one of paper_720p, live_720p, segments_wire"))
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("expected seconds"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("expected 0 < seconds <= 600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Runs `setup` `repeats` times, timing each, and keeps the last
/// result; earlier results go to `discard` after their clock has
/// stopped. Returns the result and the median set-up time in seconds.
pub fn repeated_setup<T>(
    repeats: usize,
    mut setup: impl FnMut() -> Result<T, String>,
    mut discard: impl FnMut(T),
) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(repeats);
    let mut kept = None;
    for _ in 0..repeats.max(1) {
        let t = Instant::now();
        let value = setup()?;
        times.push(t.elapsed().as_secs_f64());
        if let Some(old) = kept.replace(value) {
            discard(old);
        }
    }
    Ok((
        kept.expect("set-up ran at least once"),
        stats::median(&times),
    ))
}

/// Process counters at the start of a measured phase.
pub struct Probe {
    start: Instant,
    cpu: f64,
    allocs: u64,
    frames: PoolStats,
    buffers: PoolStats,
}

/// What a measured phase cost the process.
pub struct PhaseCost {
    /// Wall time, seconds.
    pub wall_s: f64,
    /// User plus system CPU time, seconds.
    pub cpu_s: f64,
    /// Heap allocations.
    pub allocs: u64,
    /// Frame-pool hits ÷ takes.
    pub frame_pool_hit_rate: f64,
    /// Buffer-pool hits ÷ takes.
    pub buffer_pool_hit_rate: f64,
}

impl Probe {
    /// Samples the counters now.
    pub fn start() -> Probe {
        Probe {
            start: Instant::now(),
            cpu: sys::cpu_seconds(),
            allocs: sys::allocs(),
            frames: FramePool::global().stats(),
            buffers: BufferPool::global().stats(),
        }
    }

    /// The counters' growth since [`start`](Self::start).
    pub fn finish(&self) -> PhaseCost {
        let frames = FramePool::global().stats().delta_since(&self.frames);
        let buffers = BufferPool::global().stats().delta_since(&self.buffers);
        PhaseCost {
            wall_s: self.start.elapsed().as_secs_f64(),
            cpu_s: sys::cpu_seconds() - self.cpu,
            allocs: sys::allocs() - self.allocs,
            frame_pool_hit_rate: frames.hit_rate(),
            buffer_pool_hit_rate: buffers.hit_rate(),
        }
    }
}

impl PhaseCost {
    /// Puts the metrics every workload derives from its phase cost:
    /// CPU per input frame (end-to-end) or pool and allocation figures
    /// (per-layer).
    pub fn report(&self, metrics: &mut Metrics, frames: usize, traced: bool) {
        let frames = frames.max(1) as f64;
        if traced {
            metrics.put(
                "hdvb-frame.frame_pool_hit_rate",
                self.frame_pool_hit_rate,
                "ratio",
            );
            metrics.put(
                "hdvb-frame.buffer_pool_hit_rate",
                self.buffer_pool_hit_rate,
                "ratio",
            );
            metrics.put(
                "hdvb-frame.allocs_per_frame",
                self.allocs as f64 / frames,
                "count",
            );
        } else {
            metrics.put("cpu_ms_per_frame", self.cpu_s * 1e3 / frames, "ms");
        }
    }
}

/// Milliseconds in a nanosecond total.
pub fn ms(ns: u128) -> f64 {
    ns as f64 / 1e6
}

fn provenance(args: &Args) -> String {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    let fields = [
        ("commit", env("PERFBENCH_COMMIT")),
        ("rustc", env("PERFBENCH_RUSTC")),
        (
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .into(),
        ),
        ("cpu_model", sys::cpu_model()),
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        (
            "simd_tier",
            hdvb_dsp::SimdLevel::preferred()
                .effective()
                .tier_name()
                .into(),
        ),
        (
            "heartbeat_ms",
            hdvb_net::NetConfig::default()
                .heartbeat
                .as_millis()
                .to_string(),
        ),
        ("workload", args.workload.clone()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
    ];
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {}", report::quote(k), report::quote(v)))
        .collect();
    format!("provenance {{{}}}", body.join(", "))
}

/// Orders a workload's metrics as the mode's list names them. Every
/// end-to-end metric must be present and nonzero; per-layer metrics a
/// workload did not measure read 0.
fn finish_metrics(measured: &Metrics, trace: bool) -> Result<Metrics, String> {
    let mut out = Metrics::default();
    if trace {
        for (name, unit) in PER_LAYER {
            out.put(name, measured.get(name).unwrap_or(0.0), unit);
        }
    } else {
        for (name, unit) in END_TO_END {
            match measured.get(name) {
                Some(v) if v.is_finite() && v != 0.0 => out.put(name, v, unit),
                other => return Err(format!("end-to-end metric {name} reads {other:?}")),
            }
        }
    }
    let bad = out.non_finite();
    if !bad.is_empty() {
        return Err(format!("non-finite metrics: {bad:?}"));
    }
    Ok(out)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    println!("{}", provenance(&args));
    let result = match args.workload.as_str() {
        "paper_720p" => paper::run(&args),
        "live_720p" => live::run(&args),
        _ => segments::run(&args),
    };
    let outcome = result.and_then(|(mut outcome, check)| {
        match check {
            Ok(()) => outcome.metrics = finish_metrics(&outcome.metrics, args.trace)?,
            Err(e) => {
                eprintln!("perfbench: output check failed: {e}");
                outcome.correct = false;
            }
        }
        Ok(outcome)
    });
    match outcome {
        Ok(outcome) => {
            println!("{}", outcome.json());
            if !outcome.correct {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists here and in `BENCHMARK.json` name the same
    /// metrics with the same units.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let at = json
                .find(&format!("\"name\": \"{name}\""))
                .unwrap_or_else(|| panic!("{name} missing from BENCHMARK.json"));
            let rest = &json[at..];
            let u = rest.find("\"unit\": \"").expect("every metric has a unit") + 9;
            let listed = &rest[u..u + rest[u..].find('"').expect("closing quote")];
            assert_eq!(listed, *unit, "unit of {name}");
        }
        for w in WORKLOADS {
            assert!(json.contains(&format!("\"name\": \"{w}\"")), "{w} missing");
        }
        let entries = json.matches("\"name\":").count();
        assert_eq!(
            entries,
            WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len()
        );
    }
}
