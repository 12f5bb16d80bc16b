//! `paper_720p`: the paper's own codec measurement. On one thread, the
//! three codecs encode and then decode the four paper sequences at
//! 720p25 with the paper's coding options (IPBB, qscale 5, search range
//! 24, best SIMD tier). No server, no socket.

use crate::check::{self, LumaPsnr};
use crate::report::{Metrics, Outcome};
use crate::stats::{self, pick};
use crate::{ms, repeated_setup, Args, Probe};
use hdvb_core::{create_decoder, create_encoder, CodecId, CodingOptions, Packet};
use hdvb_dsp::SimdLevel;
use hdvb_frame::{BufferPool, Frame, FramePool, Resolution};
use hdvb_seq::{Sequence, SequenceId};
use hdvb_trace::CODEC_STAGES;
use std::time::Instant;

/// Frames per clip: with IPBB coding, one I, one P and two B pictures,
/// so every clip holds all three picture types. Rendering a 720p frame
/// costs 60–310 ms, which bounds how many frames set-up can afford.
pub const CLIP_FRAMES: u32 = 4;

/// Set-up repeats per run (each renders every clip).
const SETUP_REPEATS: usize = 3;

/// The seed shifts each clip's first frame by up to this many frames.
pub const OFFSET_RANGE: u32 = 8;

const RESOLUTION: Resolution = Resolution::HD_720;

/// One rendered source clip.
pub struct Clip {
    id: SequenceId,
    frames: Vec<Frame>,
}

/// Renders the four clips; the seed picks each clip's first frame.
/// Returns the clips and the mean time per `Sequence::frame`.
fn render(seed: u64) -> (Vec<Clip>, f64) {
    let mut render_ns = 0u128;
    let clips: Vec<Clip> = SequenceId::ALL
        .iter()
        .enumerate()
        .map(|(k, &id)| {
            let start = pick(seed, k as u64, u64::from(OFFSET_RANGE)) as u32;
            let seq = Sequence::new(id, RESOLUTION);
            let frames = (start..start + CLIP_FRAMES)
                .map(|i| {
                    let t = Instant::now();
                    let f = seq.frame(i);
                    render_ns += t.elapsed().as_nanos();
                    f
                })
                .collect();
            Clip { id, frames }
        })
        .collect();
    let n = clips.len() * CLIP_FRAMES as usize;
    (clips, ms(render_ns) / n as f64)
}

/// The first round's outputs of one (codec, clip) pass, which every
/// later round must reproduce exactly.
struct Reference {
    packets: Vec<Packet>,
    digests: Vec<u64>,
    psnr_db: f64,
    bits: u64,
}

/// Per-codec totals of one measured phase.
#[derive(Default, Clone, Copy)]
struct CodecTotals {
    encode_ns: u128,
    decode_ns: u128,
    frames: usize,
    /// Self time per codec stage during encode calls (traced only).
    stage_ns: [u64; 6],
}

struct Phase {
    rounds: usize,
    /// Per (codec, clip) pass, one entry per round: ms per frame of the
    /// encode and decode calls.
    pass_ms: Vec<Vec<f64>>,
    codecs: [CodecTotals; 3],
    passes: u64,
    frames: usize,
    cost: crate::PhaseCost,
}

impl Phase {
    /// Each (codec, clip) pass's median over the rounds, ms per frame.
    fn median_passes(&self) -> Vec<f64> {
        self.pass_ms.iter().map(|v| stats::median(v)).collect()
    }

    /// Source frames per second through all three codecs, from the
    /// median pass of every (codec, clip). Every pass codes the same
    /// number of frames, so the per-frame medians of one clip add up to
    /// its time per source frame.
    fn fps(&self) -> f64 {
        let clips = self.pass_ms.len() / CodecId::ALL.len();
        1e3 * clips as f64 / self.median_passes().iter().sum::<f64>()
    }
}

/// Encodes and decodes one clip with one codec, adding the time of the
/// codec calls alone to `totals`. Returns the packets and the decoded
/// frames.
fn pass(
    codec: CodecId,
    clip: &Clip,
    options: &CodingOptions,
    totals: &mut CodecTotals,
) -> Result<(Vec<Packet>, Vec<Frame>), String> {
    let err =
        |what: &str, e: hdvb_core::BenchError| format!("{codec} {what} {}: {e}", clip.id.name());
    let mut encoder = create_encoder(codec, RESOLUTION, options).map_err(|e| err("encoder", e))?;
    let mut packets = Vec::new();
    let stages_before = hdvb_trace::codec_stage_totals_local();
    let t = Instant::now();
    for frame in &clip.frames {
        encoder
            .encode_frame_into(frame, &mut packets)
            .map_err(|e| err("encode", e))?;
    }
    encoder
        .finish_into(&mut packets)
        .map_err(|e| err("flush", e))?;
    totals.encode_ns += t.elapsed().as_nanos();
    let stages_after = hdvb_trace::codec_stage_totals_local();
    for (i, slot) in totals.stage_ns.iter_mut().enumerate() {
        *slot += stages_after[i] - stages_before[i];
    }

    let mut decoder = create_decoder(codec, options.simd);
    let mut frames = Vec::with_capacity(clip.frames.len());
    let t = Instant::now();
    for p in &packets {
        decoder
            .decode_packet_into(&p.data, &mut frames)
            .map_err(|e| err("decode", e))?;
    }
    decoder.finish_into(&mut frames);
    totals.decode_ns += t.elapsed().as_nanos();
    totals.frames += clip.frames.len();
    Ok((packets, frames))
}

/// Checks one pass against the first round's outputs (or records them
/// in the first round) and returns the frames to the pool.
fn check_pass(
    clip: &Clip,
    packets: Vec<Packet>,
    frames: Vec<Frame>,
    reference: &mut Option<Reference>,
) -> Result<(), String> {
    if frames.len() != clip.frames.len() {
        return Err(format!(
            "{}: decoded {} frames from {}",
            clip.id.name(),
            frames.len(),
            clip.frames.len()
        ));
    }
    let digests: Vec<u64> = frames.iter().map(check::frame_digest).collect();
    match reference {
        Some(r) => {
            check::same_packets(&packets, &r.packets)?;
            if digests != r.digests {
                return Err(format!("{}: decode differs between rounds", clip.id.name()));
            }
            for p in packets {
                BufferPool::global().put(p.data);
            }
        }
        None => {
            let mut psnr = LumaPsnr::default();
            for (src, dec) in clip.frames.iter().zip(&frames) {
                psnr.add(src, dec)?;
            }
            *reference = Some(Reference {
                bits: check::stream_bits(&packets),
                psnr_db: psnr.checked_db()?,
                packets,
                digests,
            });
        }
    }
    for f in frames {
        FramePool::global().put(f);
    }
    Ok(())
}

/// Runs whole rounds (every clip through every codec, encode then
/// decode) while the next round fits in `seconds`.
fn measure(
    clips: &[Clip],
    options: &CodingOptions,
    seconds: f64,
    references: &mut [Option<Reference>],
) -> Result<Phase, String> {
    let probe = Probe::start();
    let mut phase = Phase {
        rounds: 0,
        pass_ms: vec![Vec::new(); CodecId::ALL.len() * clips.len()],
        codecs: [CodecTotals::default(); 3],
        passes: 0,
        frames: 0,
        cost: probe.finish(),
    };
    let mut last_round = 0.0f64;
    loop {
        let elapsed = probe.start.elapsed().as_secs_f64();
        if phase.rounds > 0 && elapsed + last_round > seconds {
            break;
        }
        let round_start = Instant::now();
        for (k, clip) in clips.iter().enumerate() {
            for (c, codec) in CodecId::ALL.into_iter().enumerate() {
                let totals = &mut phase.codecs[c];
                let before = totals.encode_ns + totals.decode_ns;
                let (packets, frames) = pass(codec, clip, options, totals)?;
                let pass_ns = totals.encode_ns + totals.decode_ns - before;
                let i = c * clips.len() + k;
                phase.pass_ms[i].push(ms(pass_ns) / clip.frames.len() as f64);
                check_pass(clip, packets, frames, &mut references[i])?;
                phase.passes += 2;
            }
            phase.frames += clip.frames.len();
        }
        phase.rounds += 1;
        last_round = round_start.elapsed().as_secs_f64();
    }
    phase.cost = probe.finish();
    Ok(phase)
}

/// Scalar-tier decodes of the reference packets must reproduce the
/// SIMD-tier decodes byte for byte, and one flipped bit must fail the
/// packet check.
fn scalar_and_self_test(references: &[Option<Reference>], clips: usize) -> Result<(), String> {
    for (i, r) in references.iter().enumerate() {
        let r = r.as_ref().ok_or("a pass never ran")?;
        let codec = CodecId::ALL[i / clips];
        let mut decoder = create_decoder(codec, SimdLevel::Scalar);
        let mut frames = Vec::new();
        for p in &r.packets {
            decoder
                .decode_packet_into(&p.data, &mut frames)
                .map_err(|e| format!("{codec} scalar decode: {e}"))?;
        }
        decoder.finish_into(&mut frames);
        let digests: Vec<u64> = frames.iter().map(check::frame_digest).collect();
        if digests != r.digests {
            return Err(format!(
                "{codec}: scalar decode differs from the SIMD decode"
            ));
        }
        for f in frames {
            FramePool::global().put(f);
        }
        if i == 0 {
            let flipped = check::flip_one_bit(&r.packets, 0x5EED);
            if check::same_packets(&flipped, &r.packets).is_ok() {
                return Err("self-test: a flipped bit passed the packet check".into());
            }
        }
    }
    Ok(())
}

/// Runs `paper_720p`.
pub fn run(args: &Args) -> Result<(Outcome, Result<(), String>), String> {
    let options = CodingOptions::default();
    let ((clips, frame_ms), setup_s) =
        repeated_setup(SETUP_REPEATS, || Ok(render(args.seed)), drop)?;
    let mut references: Vec<Option<Reference>> = (0..3 * clips.len()).map(|_| None).collect();
    let mut metrics = Metrics::default();

    let phase = if args.trace {
        let untraced = measure(&clips, &options, args.seconds / 2.0, &mut references)?;
        hdvb_trace::set_enabled(true);
        let traced = measure(&clips, &options, args.seconds / 2.0, &mut references);
        hdvb_trace::set_enabled(false);
        let traced = traced?;
        metrics.put("trace_overhead", untraced.fps() / traced.fps(), "ratio");
        traced
    } else {
        measure(&clips, &options, args.seconds, &mut references)?
    };
    let check = scalar_and_self_test(&references, clips.len());

    let refs: Vec<&Reference> = references.iter().flatten().collect();
    if args.trace {
        metrics.put("hdvb-seq.frame_ms", frame_ms, "ms");
        let mut codec_ns = 0u128;
        for (codec, t) in CodecId::ALL.into_iter().zip(&phase.codecs) {
            let n = t.frames.max(1) as f64;
            let name = format!("hdvb-{}", codec.name());
            metrics.put(format!("{name}.encode_ms"), ms(t.encode_ns) / n, "ms");
            metrics.put(format!("{name}.decode_ms"), ms(t.decode_ns) / n, "ms");
            for (stage, &ns) in CODEC_STAGES.iter().zip(&t.stage_ns) {
                if codec == CodecId::H264 || *stage != hdvb_trace::Stage::Deblock {
                    metrics.put(
                        format!("{name}.{}_ms", stage.name()),
                        ns as f64 / 1e6 / n,
                        "ms",
                    );
                }
            }
            codec_ns += t.encode_ns + t.decode_ns;
        }
        metrics.put(
            "hdvb-net.threads_max",
            crate::sys::threads() as f64,
            "count",
        );
        metrics.put(
            "coverage",
            codec_ns as f64 / 1e9 / phase.cost.wall_s,
            "ratio",
        );
        phase.cost.report(&mut metrics, phase.frames, true);
    } else {
        metrics.put("setup_s", setup_s, "s");
        phase.cost.report(&mut metrics, phase.frames, false);
        metrics.put(
            "psnr_db",
            stats::mean(&refs.iter().map(|r| r.psnr_db).collect::<Vec<_>>()),
            "dB",
        );
        metrics.put(
            "kbps",
            stats::mean(
                &refs
                    .iter()
                    .map(|r| check::kbps(r.bits, CLIP_FRAMES as usize))
                    .collect::<Vec<_>>(),
            ),
            "kbit/s",
        );
        metrics.put("fps", phase.fps(), "frame/s");
        let passes = phase.median_passes();
        metrics.put("latency_p50_ms", stats::percentile(&passes, 0.5), "ms");
        metrics.put("latency_p95_ms", stats::percentile(&passes, 0.95), "ms");
        metrics.put("peak_rss_mb", crate::sys::peak_rss_mb(), "MB");
    }
    let outcome = Outcome {
        correct: true,
        attempted: phase.passes,
        failed: 0,
        metrics,
    };
    Ok((outcome, check))
}
