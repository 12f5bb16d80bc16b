//! `segments_wire`: short transcode sessions served over TCP, in a
//! closed loop on two connections at a time. Each segment is a new
//! connection that transcodes one 12-frame MPEG-2 segment at 288×160 to
//! H.264; segments rotate over the four paper sequences. Codec work is
//! tens of milliseconds per segment, so the per-session path (accept,
//! connection thread, OPEN, drain, DONE) dominates.

use crate::check::{self, LumaPsnr};
use crate::report::{Metrics, Outcome};
use crate::stats::{self, pick};
use crate::{ms, repeated_setup, sys, Args, Probe};
use hdvb_core::{
    create_decoder, CodecId, CodecSession, CodingOptions, Packet, Priority, SessionInput,
    SessionOutput, SessionSpec,
};
use hdvb_frame::{BufferPool, Frame, FramePool, Resolution};
use hdvb_net::{NetClient, NetConfig, NetServer};
use hdvb_seq::{Sequence, SequenceId, FRAME_COUNT};
use hdvb_trace::{Stage, CODEC_STAGES};
use std::net::SocketAddr;
use std::sync::Mutex;
use std::time::Instant;

/// Set-up repeats per run. One set-up takes about 0.6 s, so nine spread
/// the median over enough of the host's varying speed to keep it steady
/// from run to run.
const SETUP_REPEATS: usize = 9;

/// Frames per segment.
pub const SEGMENT_FRAMES: u32 = 12;

/// Client threads, each holding one connection at a time.
pub const CLIENTS: usize = 2;

/// Segment resolution: a low-rate rung, 288×160.
fn resolution() -> Resolution {
    Resolution::new(288, 160)
}

/// The session each segment opens.
pub fn spec() -> SessionSpec {
    SessionSpec::transcode(CodecId::Mpeg2, CodecId::H264, resolution())
}

/// One pre-encoded input segment.
struct Segment {
    id: SequenceId,
    frames: Vec<Frame>,
    mpeg2: Vec<Packet>,
}

struct Setup {
    segments: Vec<Segment>,
    server: NetServer,
}

/// Renders one segment per paper sequence (seeded first frames),
/// pre-encodes each to MPEG-2 at the paper's options, and binds the
/// server.
fn setup(seed: u64, render_ns: &mut u128) -> Result<Setup, String> {
    let options = CodingOptions::default();
    let segments = SequenceId::ALL
        .iter()
        .enumerate()
        .map(|(k, &id)| {
            let start = pick(seed, k as u64, u64::from(FRAME_COUNT - SEGMENT_FRAMES + 1)) as u32;
            let seq = Sequence::new(id, resolution());
            let t = Instant::now();
            let frames: Vec<Frame> = (start..start + SEGMENT_FRAMES)
                .map(|i| seq.frame(i))
                .collect();
            *render_ns += t.elapsed().as_nanos();
            let mut session = CodecSession::encoder(CodecId::Mpeg2, resolution(), &options)
                .map_err(|e| e.to_string())?;
            let mut out = SessionOutput::new();
            for f in &frames {
                session
                    .push_into(SessionInput::Frame(f.clone()), &mut out)
                    .map_err(|e| e.to_string())?;
            }
            session.finish_into(&mut out).map_err(|e| e.to_string())?;
            Ok(Segment {
                id,
                frames,
                mpeg2: out.packets,
            })
        })
        .collect::<Result<_, String>>()?;
    let server =
        NetServer::bind("127.0.0.1:0", NetConfig::default()).map_err(|e| format!("bind: {e}"))?;
    Ok(Setup { segments, server })
}

/// Times of one segment's client calls, in nanoseconds.
#[derive(Default, Clone, Copy)]
struct Calls {
    connect: u128,
    open: u128,
    send: u128,
    finish: u128,
}

/// One segment through the server: connect, OPEN, every packet, FLUSH
/// and the wait for DONE.
fn serve_segment(addr: SocketAddr, seg: &Segment) -> Result<(Vec<Packet>, Calls, usize), String> {
    let mut calls = Calls::default();
    let e = |what: &str, err: hdvb_net::NetError| format!("{} {what}: {err}", seg.id.name());
    let t = Instant::now();
    let mut client = NetClient::connect(addr).map_err(|err| e("connect", err))?;
    calls.connect = t.elapsed().as_nanos();
    let t = Instant::now();
    client
        .open(spec(), Priority::Batch)
        .map_err(|err| e("open", err))?;
    calls.open = t.elapsed().as_nanos();
    let threads = sys::threads();
    let t = Instant::now();
    for p in &seg.mpeg2 {
        // A pooled copy: the client returns it to the pool once sent.
        let mut data = BufferPool::global().take(p.data.len());
        data.extend_from_slice(&p.data);
        let packet = Packet {
            data,
            kind: p.kind,
            display_index: p.display_index,
        };
        client.send_packet(packet).map_err(|err| e("send", err))?;
    }
    calls.send = t.elapsed().as_nanos();
    let t = Instant::now();
    let result = client.finish().map_err(|err| e("finish", err))?;
    calls.finish = t.elapsed().as_nanos();
    if result.stats.completed != seg.mpeg2.len() as u64 || result.stats.discarded != 0 {
        return Err(format!(
            "{}: DONE reports {} completed, {} discarded of {} inputs",
            seg.id.name(),
            result.stats.completed,
            result.stats.discarded,
            seg.mpeg2.len()
        ));
    }
    Ok((result.packets, calls, threads))
}

/// One client thread's log.
#[derive(Default)]
struct ClientLog {
    latencies_ms: Vec<f64>,
    calls: Calls,
    segments: usize,
    threads_max: usize,
}

/// Totals of one measured phase.
struct Phase {
    latencies_ms: Vec<f64>,
    calls: Calls,
    segments: usize,
    threads_max: usize,
    cost: crate::PhaseCost,
}

/// Each client runs whole rounds (its share of the four sequences) while
/// its next round fits in `seconds`. Every segment's output must equal
/// the first output served for its sequence, kept in `first`.
fn measure(
    setup: &Setup,
    seconds: f64,
    first: &Mutex<Vec<Option<Vec<Packet>>>>,
) -> Result<Phase, String> {
    let addr = setup.server.local_addr();
    let probe = Probe::start();
    let client = |c: usize| -> Result<ClientLog, String> {
        let mut log = ClientLog::default();
        let mut last_round = 0.0f64;
        let mut rounds = 0;
        loop {
            if rounds > 0 && probe.start.elapsed().as_secs_f64() + last_round > seconds {
                return Ok(log);
            }
            let round_start = Instant::now();
            for k in (c..setup.segments.len()).step_by(CLIENTS) {
                let seg = &setup.segments[k];
                let t = Instant::now();
                let (packets, calls, threads) = serve_segment(addr, seg)?;
                log.latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
                log.calls.connect += calls.connect;
                log.calls.open += calls.open;
                log.calls.send += calls.send;
                log.calls.finish += calls.finish;
                log.threads_max = log.threads_max.max(threads);
                log.segments += 1;
                let mut kept = first.lock().map_err(|_| "a client thread panicked")?;
                match &kept[k] {
                    Some(want) => {
                        check::same_packets(&packets, want)
                            .map_err(|e| format!("{}: {e}", seg.id.name()))?;
                        for p in packets {
                            BufferPool::global().put(p.data);
                        }
                    }
                    None => kept[k] = Some(packets),
                }
            }
            rounds += 1;
            last_round = round_start.elapsed().as_secs_f64();
        }
    };
    let logs: Vec<Result<ClientLog, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| scope.spawn(move || client(c)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let cost = probe.finish();
    let mut phase = Phase {
        latencies_ms: Vec::new(),
        calls: Calls::default(),
        segments: 0,
        threads_max: 0,
        cost,
    };
    for log in logs {
        let log = log?;
        phase.latencies_ms.extend(log.latencies_ms);
        phase.calls.connect += log.calls.connect;
        phase.calls.open += log.calls.open;
        phase.calls.send += log.calls.send;
        phase.calls.finish += log.calls.finish;
        phase.segments += log.segments;
        phase.threads_max = phase.threads_max.max(log.threads_max);
    }
    Ok(phase)
}

/// In-process reference for one segment: the same packets through
/// `CodecSession::transcoder`. Returns the H.264 packets and the mean
/// time per push (flush included).
fn reference(seg: &Segment) -> Result<(Vec<Packet>, f64), String> {
    let simd = NetConfig::default().simd;
    let mut session = CodecSession::transcoder(
        CodecId::Mpeg2,
        CodecId::H264,
        resolution(),
        &spec().options(simd),
    )
    .map_err(|e| e.to_string())?;
    let mut out = SessionOutput::new();
    let mut ns = 0u128;
    for p in &seg.mpeg2 {
        let input = SessionInput::Packet(p.data.clone());
        let t = Instant::now();
        session
            .push_into(input, &mut out)
            .map_err(|e| e.to_string())?;
        ns += t.elapsed().as_nanos();
    }
    let t = Instant::now();
    session.finish_into(&mut out).map_err(|e| e.to_string())?;
    ns += t.elapsed().as_nanos();
    Ok((out.packets, ms(ns) / seg.mpeg2.len().max(1) as f64))
}

/// Output checks after the measured phases: every sequence's served
/// output equals the in-process transcode; PSNR of the decoded H.264
/// against the rendered source; one flipped bit fails. Returns
/// per-segment (PSNR, kbps) and the mean push time.
fn check_segments(
    segments: &[Segment],
    first: &[Option<Vec<Packet>>],
) -> Result<(Vec<(f64, f64)>, f64), String> {
    let mut quality = Vec::new();
    let mut push_ms = Vec::new();
    for (k, seg) in segments.iter().enumerate() {
        let got = first[k]
            .as_ref()
            .ok_or_else(|| format!("{} was never served", seg.id.name()))?;
        let (want, push) = reference(seg)?;
        push_ms.push(push);
        check::same_packets(got, &want).map_err(|e| format!("{}: {e}", seg.id.name()))?;
        if k == 0 && check::same_packets(&check::flip_one_bit(got, 0x5EED), &want).is_ok() {
            return Err("self-test: a flipped bit passed the packet check".into());
        }
        let mut decoder = create_decoder(CodecId::H264, NetConfig::default().simd);
        let mut frames = Vec::new();
        for p in got {
            decoder
                .decode_packet_into(&p.data, &mut frames)
                .map_err(|e| e.to_string())?;
        }
        decoder.finish_into(&mut frames);
        if frames.len() != seg.frames.len() {
            return Err(format!(
                "{}: decoded {} frames",
                seg.id.name(),
                frames.len()
            ));
        }
        let mut psnr = LumaPsnr::default();
        for (src, dec) in seg.frames.iter().zip(&frames) {
            psnr.add(src, dec)?;
        }
        for f in frames {
            FramePool::global().put(f);
        }
        quality.push((
            psnr.checked_db()?,
            check::kbps(check::stream_bits(got), seg.frames.len()),
        ));
    }
    Ok((quality, stats::mean(&push_ms)))
}

/// Runs `segments_wire`.
pub fn run(args: &Args) -> Result<(Outcome, Result<(), String>), String> {
    let mut render_ns = 0u128;
    let (setup, setup_s) = repeated_setup(
        SETUP_REPEATS,
        || setup(args.seed, &mut render_ns),
        |old| old.server.shutdown(),
    )?;
    let rendered = SETUP_REPEATS * setup.segments.len() * SEGMENT_FRAMES as usize;
    let first = Mutex::new(vec![None; setup.segments.len()]);
    let mut metrics = Metrics::default();

    let measured = if args.trace {
        measure(&setup, args.seconds / 2.0, &first).and_then(|untraced| {
            let before = setup.server.stats().latency[Priority::Batch.index()].clone();
            hdvb_trace::set_enabled(true);
            let traced = measure(&setup, args.seconds / 2.0, &first);
            hdvb_trace::set_enabled(false);
            let traced = traced?;
            let after = setup.server.stats().latency[Priority::Batch.index()].clone();
            let inputs = after.count().saturating_sub(before.count()).max(1);
            let input_ms = (after.sum_ns() - before.sum_ns()) as f64 / 1e6 / inputs as f64;
            Ok((traced, Some((untraced, input_ms, hdvb_trace::collect()))))
        })
    } else {
        measure(&setup, args.seconds, &first).map(|p| (p, None))
    };
    setup.server.shutdown();
    let (phase, traced) = measured?;
    let first = first.into_inner().map_err(|_| "a client thread panicked")?;
    let check = check_segments(&setup.segments, &first);
    let frames = phase.segments * SEGMENT_FRAMES as usize;
    let p50 = stats::percentile(&phase.latencies_ms, 0.5);

    if let Some((untraced, input_ms, trace)) = traced {
        metrics.put("hdvb-seq.frame_ms", ms(render_ns) / rendered as f64, "ms");
        let encoded = trace.stage_count(Stage::EncodeFrame).max(1) as f64;
        let decoded = trace.stage_count(Stage::DecodeFrame).max(1) as f64;
        metrics.put(
            "hdvb-h264.encode_ms",
            trace.stage_total(Stage::EncodeFrame) as f64 / 1e6 / encoded,
            "ms",
        );
        metrics.put(
            "hdvb-mpeg2.decode_ms",
            trace.stage_total(Stage::DecodeFrame) as f64 / 1e6 / decoded,
            "ms",
        );
        for stage in CODEC_STAGES {
            metrics.put(
                format!("hdvb-h264.{}_ms", stage.name()),
                trace.pair_total(stage, Some(Stage::EncodeFrame)) as f64 / 1e6 / encoded,
                "ms",
            );
        }
        if let Ok((_, push_ms)) = &check {
            metrics.put("hdvb-core.push_ms", *push_ms, "ms");
        }
        phase.cost.report(&mut metrics, frames, true);
        let n = phase.segments.max(1) as f64;
        let connect = ms(phase.calls.connect) / n;
        let open = ms(phase.calls.open) / n;
        let send = ms(phase.calls.send) / n;
        let finish = ms(phase.calls.finish) / n;
        metrics.put("hdvb-net.connect_ms", connect, "ms");
        metrics.put("hdvb-net.open_ms", open, "ms");
        metrics.put("hdvb-net.send_ms", send, "ms");
        metrics.put("hdvb-net.finish_ms", finish, "ms");
        metrics.put("hdvb-net.threads_max", phase.threads_max as f64, "count");
        metrics.put("hdvb-serve.input_mean_ms", input_ms, "ms");
        metrics.put(
            "coverage",
            (connect + open + send + finish) / stats::mean(&phase.latencies_ms),
            "ratio",
        );
        metrics.put(
            "trace_overhead",
            p50 / stats::percentile(&untraced.latencies_ms, 0.5),
            "ratio",
        );
    } else {
        metrics.put("setup_s", setup_s, "s");
        phase.cost.report(&mut metrics, frames, false);
        if let Ok((quality, _)) = &check {
            let psnr: Vec<f64> = quality.iter().map(|q| q.0).collect();
            let kbps: Vec<f64> = quality.iter().map(|q| q.1).collect();
            metrics.put("psnr_db", stats::mean(&psnr), "dB");
            metrics.put("kbps", stats::mean(&kbps), "kbit/s");
        }
        metrics.put("fps", frames as f64 / phase.cost.wall_s, "frame/s");
        metrics.put("latency_p50_ms", p50, "ms");
        metrics.put(
            "latency_p95_ms",
            stats::percentile(&phase.latencies_ms, 0.95),
            "ms",
        );
        metrics.put("peak_rss_mb", sys::peak_rss_mb(), "MB");
    }
    let outcome = Outcome {
        correct: true,
        attempted: phase.segments as u64,
        failed: 0,
        metrics,
    };
    Ok((outcome, check.map(|_| ())))
}
