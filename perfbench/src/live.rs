//! `live_720p`: two live, low-delay MPEG-2 streams (no B pictures, so
//! one FRAME yields one PACKET) of raw 720p frames, 25 fps each, sent
//! open-loop over loopback to an in-process `NetServer`.
//!
//! The load comes from two client threads: this thread sends both
//! streams' FRAMEs on their schedule, and one receiver thread polls both
//! sockets and timestamps each PACKET as it completes. A frame's
//! latency runs from its due send time to its PACKET's arrival, so a
//! stall also charges the frames queued behind it.

use crate::check::{self, LumaPsnr};
use crate::report::{Metrics, Outcome};
use crate::stats::{self, pick, schedule};
use crate::{ms, repeated_setup, sys, Args, Probe};
use hdvb_core::{
    create_decoder, CodecId, CodecSession, Packet, Priority, SessionInput, SessionOutput,
    SessionSpec,
};
use hdvb_frame::{BufferPool, Frame, FramePool, Resolution};
use hdvb_net::wire::{self, HEADER_LEN};
use hdvb_net::{Msg, MsgType, NetConfig, NetServer};
use hdvb_seq::{Sequence, SequenceId};
use hdvb_trace::{Stage, CODEC_STAGES};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// Concurrent live streams (and connections).
pub const STREAMS: usize = 2;

/// Frames per session: each round opens one session per stream and
/// sends this many frames, 2 s of video at 25 fps.
pub const STREAM_FRAMES: u32 = 50;

const RESOLUTION: Resolution = Resolution::HD_720;

/// How long a round may wait for its outputs before the run fails.
const ROUND_TIMEOUT: Duration = Duration::from_secs(30);

/// The session every stream opens: MPEG-2 at the paper's qscale, with
/// no B pictures.
pub fn spec() -> SessionSpec {
    SessionSpec::encode(CodecId::Mpeg2, RESOLUTION).with_b_frames(0)
}

/// Set-up repeats per run (each renders both streams). One set-up takes
/// under 2 s, so five spread the median over enough of the host's
/// varying speed to keep it steady from run to run.
const SETUP_REPEATS: usize = 5;

/// The seed shifts each stream's first rendered frame by up to this
/// many frames.
pub const OFFSET_RANGE: u32 = 8;

/// Distinct rendered frames per stream; a session plays them forward
/// and back ([`stats::ping_pong`]).
pub const DISTINCT_FRAMES: u32 = 8;

/// The two streams' sequences. Riverbed is left out: its low-delay
/// MPEG-2 encode takes about 36 ms per 720p frame on the reference
/// host, so with it two 25 fps streams saturate two CPUs and an
/// open-loop queue grows for as long as the run lasts. Blue sky costs
/// 310 ms per rendered frame, five times rush hour.
pub const SEQUENCES: [SequenceId; STREAMS] = [SequenceId::PedestrianArea, SequenceId::RushHour];

/// One stream's source: FRAME messages built once, encoded by
/// reference on every send.
struct Source {
    id: SequenceId,
    msgs: Vec<Msg>,
}

impl Source {
    /// The FRAME message sent at position `i` of a session.
    fn msg(&self, i: usize) -> &Msg {
        &self.msgs[stats::ping_pong(i as u32, DISTINCT_FRAMES) as usize]
    }

    /// The session's source frames in send order.
    fn frames(&self) -> impl Iterator<Item = &Frame> {
        (0..STREAM_FRAMES as usize).map(|i| match self.msg(i) {
            Msg::Frame(f) => f,
            _ => unreachable!("sources hold only FRAME messages"),
        })
    }
}

struct Setup {
    sources: Vec<Source>,
    server: NetServer,
    conns: Vec<TcpStream>,
}

/// Renders both streams (seeded first frames), binds the server and
/// opens the TCP connections. The HELLO exchange is left to the first
/// round, so set-up holds none of the accept loop's poll sleeps.
fn setup(seed: u64, render_ns: &mut u128) -> Result<Setup, String> {
    let sources = SEQUENCES
        .iter()
        .enumerate()
        .map(|(s, &id)| {
            let seq = Sequence::new(id, RESOLUTION);
            let start = pick(seed, s as u64, u64::from(OFFSET_RANGE)) as u32;
            let msgs = (start..start + DISTINCT_FRAMES)
                .map(|i| {
                    let t = Instant::now();
                    let f = seq.frame(i);
                    *render_ns += t.elapsed().as_nanos();
                    Msg::Frame(f)
                })
                .collect();
            Source { id, msgs }
        })
        .collect();
    let server =
        NetServer::bind("127.0.0.1:0", NetConfig::default()).map_err(|e| format!("bind: {e}"))?;
    let conns = (0..STREAMS)
        .map(|_| TcpStream::connect(server.local_addr()))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("connect: {e}"))?;
    Ok(Setup {
        sources,
        server,
        conns,
    })
}

/// The sending half of one connection.
struct Conn {
    tcp: TcpStream,
    seq: u32,
    buf: Vec<u8>,
}

/// Time and size of one sent message.
struct Sent {
    encode_ns: u128,
    write_ns: u128,
    bytes: usize,
}

impl Conn {
    fn send(&mut self, msg: &Msg) -> Result<Sent, String> {
        self.buf.clear();
        let t = Instant::now();
        wire::encode(msg, self.seq, &mut self.buf);
        let encode_ns = t.elapsed().as_nanos();
        self.seq = self.seq.wrapping_add(1);
        let t = Instant::now();
        self.tcp
            .write_all(&self.buf)
            .map_err(|e| format!("write: {e}"))?;
        Ok(Sent {
            encode_ns,
            write_ns: t.elapsed().as_nanos(),
            bytes: self.buf.len(),
        })
    }

    /// Blocking read of one whole message (handshake only).
    fn recv(&mut self) -> Result<Msg, String> {
        let mut header = [0u8; HEADER_LEN];
        self.tcp
            .read_exact(&mut header)
            .map_err(|e| format!("read: {e}"))?;
        let parsed = wire::parse_header(&header).map_err(|e| e.to_string())?;
        let mut rest = vec![0u8; wire::frame_len(&parsed) - HEADER_LEN];
        self.tcp
            .read_exact(&mut rest)
            .map_err(|e| format!("read: {e}"))?;
        let len = parsed.len as usize;
        if len > 0 {
            wire::check_trailer(&rest[..len], &rest[len..]).map_err(|e| e.to_string())?;
        }
        wire::decode_payload(parsed.msg_type, &rest[..len]).map_err(|e| e.to_string())
    }

    /// HELLO and OPEN on a fresh connection; returns the time spent.
    fn handshake(tcp: TcpStream) -> Result<(Conn, u128), String> {
        let t = Instant::now();
        let _ = tcp.set_nodelay(true);
        tcp.set_read_timeout(Some(ROUND_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let mut conn = Conn {
            tcp,
            seq: 0,
            buf: Vec::new(),
        };
        conn.send(&Msg::Hello { server: false })?;
        match conn.recv()? {
            Msg::Hello { server: true } => {}
            other => return Err(format!("expected HELLO, got {:?}", other.msg_type())),
        }
        conn.send(&Msg::Open {
            spec: spec(),
            priority: Priority::Live,
            resume: false,
        })?;
        match conn.recv()? {
            Msg::OpenOk { .. } => Ok((conn, t.elapsed().as_nanos())),
            Msg::Error { detail, .. } => Err(format!("OPEN refused: {detail}")),
            other => Err(format!("expected OPEN_OK, got {:?}", other.msg_type())),
        }
    }
}

/// What the receiver saw on one connection in one round.
#[derive(Default)]
struct Received {
    inbuf: Vec<u8>,
    arrivals: Vec<Instant>,
    packets: Vec<Packet>,
    decode_ns: u128,
    done: bool,
}

impl Received {
    /// Decodes every whole message in the buffer; `now` is when the
    /// bytes that completed them arrived.
    fn parse(&mut self, now: Instant) -> Result<(), String> {
        let mut pos = 0;
        while self.inbuf.len() - pos >= HEADER_LEN {
            let t = Instant::now();
            let avail = &self.inbuf[pos..];
            let header: &[u8; HEADER_LEN] = avail[..HEADER_LEN]
                .try_into()
                .expect("slice is HEADER_LEN long");
            let parsed = wire::parse_header(header).map_err(|e| e.to_string())?;
            let total = wire::frame_len(&parsed);
            if avail.len() < total {
                break;
            }
            let len = parsed.len as usize;
            let payload = &avail[HEADER_LEN..HEADER_LEN + len];
            if len > 0 {
                wire::check_trailer(payload, &avail[HEADER_LEN + len..total])
                    .map_err(|e| e.to_string())?;
            }
            let msg = wire::decode_payload(parsed.msg_type, payload).map_err(|e| e.to_string())?;
            if parsed.msg_type == MsgType::Packet {
                self.decode_ns += t.elapsed().as_nanos();
            }
            pos += total;
            match msg {
                Msg::Packet(p) => {
                    self.arrivals.push(now);
                    self.packets.push(p);
                }
                Msg::Done(_) => self.done = true,
                Msg::Error { detail, .. } => return Err(format!("server error: {detail}")),
                _ => {}
            }
        }
        self.inbuf.drain(..pos);
        Ok(())
    }
}

/// The receiver thread: polls both sockets until each has delivered
/// DONE.
fn receive(mut socks: Vec<TcpStream>) -> Result<Vec<Received>, String> {
    let deadline = Instant::now() + ROUND_TIMEOUT;
    let mut got: Vec<Received> = socks.iter().map(|_| Received::default()).collect();
    let mut chunk = vec![0u8; 1 << 16];
    while got.iter().any(|r| !r.done) {
        if Instant::now() > deadline {
            return Err("timed out waiting for PACKETs".into());
        }
        let open: Vec<usize> = (0..socks.len()).filter(|&i| !got[i].done).collect();
        let fds: Vec<_> = open.iter().map(|&i| socks[i].as_raw_fd()).collect();
        let ready = sys::poll_readable(&fds, 100).map_err(|e| format!("poll: {e}"))?;
        for (&i, _) in open.iter().zip(ready).filter(|(_, r)| *r) {
            let n = socks[i]
                .read(&mut chunk)
                .map_err(|e| format!("read: {e}"))?;
            let now = Instant::now();
            if n == 0 {
                return Err("server closed the connection before DONE".into());
            }
            got[i].inbuf.extend_from_slice(&chunk[..n]);
            got[i].parse(now)?;
        }
    }
    Ok(got)
}

/// Totals of one measured phase.
#[derive(Default)]
struct Phase {
    latencies_ms: Vec<f64>,
    /// Per round (one session per stream): frame latency p50 and p95.
    round_p50_ms: Vec<f64>,
    round_p95_ms: Vec<f64>,
    late_ms: Vec<f64>,
    frames: usize,
    rounds: usize,
    wire_encode_ns: u128,
    write_ns: u128,
    frame_bytes: usize,
    wire_decode_ns: u128,
    connect_ns: u128,
    connects: usize,
    open_ns: u128,
    handshakes: usize,
    threads_max: usize,
    cost: Option<crate::PhaseCost>,
}

/// Runs whole rounds while the next one fits in `seconds`. The first
/// round's packets per stream are kept in `first` for the checks; later
/// rounds must match them byte for byte.
fn measure(
    setup: &mut Setup,
    seed: u64,
    seconds: f64,
    first: &mut Vec<Vec<Packet>>,
) -> Result<Phase, String> {
    let dues: Vec<Vec<Duration>> = (0..STREAMS)
        .map(|s| schedule(seed, s as u32, STREAMS as u32, STREAM_FRAMES))
        .collect();
    let mut order: Vec<(Duration, usize, usize)> = dues
        .iter()
        .enumerate()
        .flat_map(|(s, d)| d.iter().enumerate().map(move |(i, &at)| (at, s, i)))
        .collect();
    order.sort();
    let addr: SocketAddr = setup.server.local_addr();
    let mut fresh = std::mem::take(&mut setup.conns);
    let probe = Probe::start();
    let mut phase = Phase::default();
    let mut last_round = 0.0f64;
    loop {
        if phase.rounds > 0 && probe.start.elapsed().as_secs_f64() + last_round > seconds {
            break;
        }
        let round_start = Instant::now();
        let mut conns = Vec::with_capacity(STREAMS);
        for _ in 0..STREAMS {
            let tcp = match fresh.pop() {
                Some(tcp) => tcp,
                None => {
                    let t = Instant::now();
                    let tcp = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
                    phase.connect_ns += t.elapsed().as_nanos();
                    phase.connects += 1;
                    tcp
                }
            };
            let (conn, open_ns) = Conn::handshake(tcp)?;
            phase.open_ns += open_ns;
            phase.handshakes += 1;
            conns.push(conn);
        }
        let readers = conns
            .iter()
            .map(|c| c.tcp.try_clone())
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("clone socket: {e}"))?;
        let t0 = Instant::now();
        let received = std::thread::scope(|scope| {
            let rx = scope.spawn(move || receive(readers));
            let sent = send_round(&mut conns, &setup.sources, &order, t0, &mut phase);
            let got = rx
                .join()
                .map_err(|_| "receiver thread panicked".to_string());
            sent.and(got?)
        })?;
        let mut round_ms = Vec::with_capacity(STREAMS * STREAM_FRAMES as usize);
        for (s, mut r) in received.into_iter().enumerate() {
            check_round(&r, s)?;
            for (i, at) in r.arrivals.iter().enumerate() {
                let due = t0 + dues[s][i];
                round_ms.push(at.saturating_duration_since(due).as_secs_f64() * 1e3);
            }
            phase.wire_decode_ns += r.decode_ns;
            match first.get(s) {
                Some(want) => {
                    check::same_packets(&r.packets, want)
                        .map_err(|e| format!("stream {s}: {e}"))?;
                    for p in r.packets.drain(..) {
                        BufferPool::global().put(p.data);
                    }
                }
                None => first.push(std::mem::take(&mut r.packets)),
            }
        }
        phase.round_p50_ms.push(stats::percentile(&round_ms, 0.5));
        phase.round_p95_ms.push(stats::percentile(&round_ms, 0.95));
        phase.latencies_ms.extend(round_ms);
        phase.frames += STREAMS * STREAM_FRAMES as usize;
        phase.rounds += 1;
        last_round = round_start.elapsed().as_secs_f64();
    }
    phase.cost = Some(probe.finish());
    Ok(phase)
}

/// Sends every FRAME at its due time (both streams interleaved in due
/// order), then FLUSH on both connections.
fn send_round(
    conns: &mut [Conn],
    sources: &[Source],
    order: &[(Duration, usize, usize)],
    t0: Instant,
    phase: &mut Phase,
) -> Result<(), String> {
    for (k, &(at, s, i)) in order.iter().enumerate() {
        let due = t0 + at;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        phase
            .late_ms
            .push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
        let sent = conns[s].send(sources[s].msg(i))?;
        phase.wire_encode_ns += sent.encode_ns;
        phase.write_ns += sent.write_ns;
        phase.frame_bytes += sent.bytes;
        if k == order.len() / 2 {
            phase.threads_max = phase.threads_max.max(sys::threads());
        }
    }
    for c in conns.iter_mut() {
        c.send(&Msg::Flush)?;
    }
    Ok(())
}

/// Exactly one PACKET per FRAME, in order.
fn check_round(r: &Received, stream: usize) -> Result<(), String> {
    if r.packets.len() != STREAM_FRAMES as usize {
        return Err(format!(
            "stream {stream}: {} PACKETs for {STREAM_FRAMES} FRAMEs",
            r.packets.len()
        ));
    }
    for (i, p) in r.packets.iter().enumerate() {
        if p.display_index as usize != i {
            return Err(format!(
                "stream {stream}: PACKET {i} carries display index {}",
                p.display_index
            ));
        }
    }
    Ok(())
}

/// In-process reference per stream: the same frames through
/// `CodecSession::encoder`. Returns the packets and the mean time per
/// push (flush included).
fn reference(source: &Source) -> Result<(Vec<Packet>, f64), String> {
    let simd = NetConfig::default().simd;
    let mut session = CodecSession::encoder(CodecId::Mpeg2, RESOLUTION, &spec().options(simd))
        .map_err(|e| e.to_string())?;
    let mut out = SessionOutput::new();
    let mut ns = 0u128;
    for frame in source.frames() {
        let input = SessionInput::Frame(frame.clone());
        let t = Instant::now();
        session
            .push_into(input, &mut out)
            .map_err(|e| e.to_string())?;
        ns += t.elapsed().as_nanos();
    }
    let t = Instant::now();
    session.finish_into(&mut out).map_err(|e| e.to_string())?;
    ns += t.elapsed().as_nanos();
    Ok((out.packets, ms(ns) / f64::from(STREAM_FRAMES)))
}

/// Output checks after the measured phases: every stream's packets
/// equal the in-process reference; PSNR computed here; one flipped bit
/// fails. Returns per-stream (PSNR, kbps) and the mean push time.
fn check_streams(
    sources: &[Source],
    first: &[Vec<Packet>],
) -> Result<(Vec<(f64, f64)>, f64), String> {
    let mut quality = Vec::new();
    let mut push_ms = Vec::new();
    for (s, source) in sources.iter().enumerate() {
        let got = first.get(s).ok_or("no round completed")?;
        let (want, push) = reference(source)?;
        push_ms.push(push);
        check::same_packets(got, &want)
            .map_err(|e| format!("stream {s} ({}): {e}", source.id.name()))?;
        if s == 0 && check::same_packets(&check::flip_one_bit(got, 0x5EED), &want).is_ok() {
            return Err("self-test: a flipped bit passed the packet check".into());
        }
        let mut decoder = create_decoder(CodecId::Mpeg2, NetConfig::default().simd);
        let mut frames = Vec::new();
        for p in got {
            decoder
                .decode_packet_into(&p.data, &mut frames)
                .map_err(|e| e.to_string())?;
        }
        decoder.finish_into(&mut frames);
        let mut psnr = LumaPsnr::default();
        if frames.len() != STREAM_FRAMES as usize {
            return Err(format!("stream {s}: decoded {} frames", frames.len()));
        }
        for (src, dec) in source.frames().zip(&frames) {
            psnr.add(src, dec)?;
        }
        for f in frames {
            FramePool::global().put(f);
        }
        quality.push((
            psnr.checked_db()?,
            check::kbps(check::stream_bits(got), STREAM_FRAMES as usize),
        ));
    }
    Ok((quality, stats::mean(&push_ms)))
}

/// Runs `live_720p`.
pub fn run(args: &Args) -> Result<(Outcome, Result<(), String>), String> {
    let mut render_ns = 0u128;
    let (mut setup, setup_s) = repeated_setup(
        SETUP_REPEATS,
        || setup(args.seed, &mut render_ns),
        |old| {
            // Close the idle connections first: the server's connection
            // threads wait for their HELLO until the sockets close.
            drop(old.conns);
            old.server.shutdown();
        },
    )?;
    let frame_ms = ms(render_ns) / (SETUP_REPEATS * STREAMS * DISTINCT_FRAMES as usize) as f64;
    let mut first = Vec::new();
    let mut metrics = Metrics::default();

    let measured = if args.trace {
        measure(&mut setup, args.seed, args.seconds / 2.0, &mut first).and_then(|untraced| {
            let before = setup.server.stats().latency[Priority::Live.index()].clone();
            hdvb_trace::set_enabled(true);
            let traced = measure(&mut setup, args.seed, args.seconds / 2.0, &mut first);
            hdvb_trace::set_enabled(false);
            let traced = traced?;
            let after = setup.server.stats().latency[Priority::Live.index()].clone();
            let inputs = after.count().saturating_sub(before.count()).max(1);
            let input_ms = (after.sum_ns() - before.sum_ns()) as f64 / 1e6 / inputs as f64;
            Ok((traced, Some((untraced, input_ms, hdvb_trace::collect()))))
        })
    } else {
        measure(&mut setup, args.seed, args.seconds, &mut first).map(|p| (p, None))
    };
    let threads_after = sys::threads();
    setup.server.shutdown();
    let (phase, traced) = measured?;
    let check = check_streams(&setup.sources, &first);
    let cost = phase.cost.as_ref().expect("measure sets the cost");

    // A round is one session per stream; the run reports the median
    // round, so a host hiccup that spoils one round does not move it.
    let p50 = stats::median(&phase.round_p50_ms);
    if let Some((untraced, input_ms, trace)) = traced {
        let n = phase.frames.max(1) as f64;
        metrics.put("hdvb-seq.frame_ms", frame_ms, "ms");
        let encoded = trace.stage_count(Stage::EncodeFrame).max(1) as f64;
        metrics.put(
            "hdvb-mpeg2.encode_ms",
            trace.stage_total(Stage::EncodeFrame) as f64 / 1e6 / encoded,
            "ms",
        );
        for stage in CODEC_STAGES.iter().filter(|&&s| s != Stage::Deblock) {
            metrics.put(
                format!("hdvb-mpeg2.{}_ms", stage.name()),
                trace.pair_total(*stage, Some(Stage::EncodeFrame)) as f64 / 1e6 / encoded,
                "ms",
            );
        }
        if let Ok((_, push_ms)) = &check {
            metrics.put("hdvb-core.push_ms", *push_ms, "ms");
        }
        cost.report(&mut metrics, phase.frames, true);
        let wire_encode = ms(phase.wire_encode_ns) / n;
        let wire_decode = ms(phase.wire_decode_ns) / n;
        let write_wait = ms(phase.write_ns) / n;
        metrics.put("hdvb-net.wire_encode_ms", wire_encode, "ms");
        metrics.put("hdvb-net.wire_decode_ms", wire_decode, "ms");
        metrics.put(
            "hdvb-net.bytes_per_frame",
            phase.frame_bytes as f64 / n,
            "byte",
        );
        metrics.put("hdvb-net.write_wait_ms", write_wait, "ms");
        metrics.put(
            "hdvb-net.connect_ms",
            ms(phase.connect_ns) / phase.connects.max(1) as f64,
            "ms",
        );
        metrics.put(
            "hdvb-net.open_ms",
            ms(phase.open_ns) / phase.handshakes.max(1) as f64,
            "ms",
        );
        metrics.put(
            "hdvb-net.threads_max",
            phase.threads_max.max(threads_after) as f64,
            "count",
        );
        metrics.put("hdvb-serve.input_mean_ms", input_ms, "ms");
        metrics.put(
            "loadgen.late_p95_ms",
            stats::percentile(&phase.late_ms, 0.95),
            "ms",
        );
        let mean_latency = stats::mean(&phase.latencies_ms);
        metrics.put(
            "coverage",
            (wire_encode + write_wait + input_ms + wire_decode) / mean_latency,
            "ratio",
        );
        metrics.put(
            "trace_overhead",
            p50 / stats::median(&untraced.round_p50_ms),
            "ratio",
        );
    } else {
        metrics.put("setup_s", setup_s, "s");
        cost.report(&mut metrics, phase.frames, false);
        if let Ok((quality, _)) = &check {
            let psnr: Vec<f64> = quality.iter().map(|q| q.0).collect();
            let kbps: Vec<f64> = quality.iter().map(|q| q.1).collect();
            metrics.put("psnr_db", stats::mean(&psnr), "dB");
            metrics.put("kbps", stats::mean(&kbps), "kbit/s");
        }
        metrics.put("fps", phase.frames as f64 / cost.wall_s, "frame/s");
        metrics.put("latency_p50_ms", p50, "ms");
        metrics.put("latency_p95_ms", stats::median(&phase.round_p95_ms), "ms");
        metrics.put("peak_rss_mb", sys::peak_rss_mb(), "MB");
    }
    let outcome = Outcome {
        correct: true,
        attempted: phase.frames as u64,
        failed: 0,
        metrics,
    };
    Ok((outcome, check.map(|_| ())))
}
