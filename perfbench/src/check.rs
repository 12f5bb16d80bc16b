//! Output checks computed apart from the program under test: luma PSNR
//! from raw planes, frame digests and packet comparison.

use hdvb_core::Packet;
use hdvb_frame::{Frame, SequencePsnr};

/// PSNR below this, on any stream, fails the run: the paper's operating
/// point (qscale 5) lands near 40 dB on every sequence.
pub const PSNR_FLOOR_DB: f64 = 30.0;

/// Largest allowed gap between the benchmark's luma PSNR and
/// [`SequencePsnr`]'s.
pub const PSNR_AGREEMENT_DB: f64 = 1e-6;

/// Luma quality of one decoded stream against its rendered source.
#[derive(Default)]
pub struct LumaPsnr {
    frames: u64,
    mse_sum: f64,
    program: SequencePsnr,
}

impl LumaPsnr {
    /// Adds one source/decoded frame pair.
    pub fn add(&mut self, source: &Frame, decoded: &Frame) -> Result<(), String> {
        let (a, b) = (source.y().data(), decoded.y().data());
        if source.width() != decoded.width()
            || source.height() != decoded.height()
            || a.len() != b.len()
        {
            return Err(format!(
                "decoded frame is {}x{}, source is {}x{}",
                decoded.width(),
                decoded.height(),
                source.width(),
                source.height()
            ));
        }
        let sse: u64 = a
            .iter()
            .zip(b)
            .map(|(&x, &y)| {
                let d = u64::from(x.abs_diff(y));
                d * d
            })
            .sum();
        self.frames += 1;
        self.mse_sum += sse as f64 / a.len() as f64;
        self.program.add(source, decoded);
        Ok(())
    }

    /// Mean-MSE luma PSNR in dB, checked against the program's own
    /// [`SequencePsnr`] and against [`PSNR_FLOOR_DB`].
    pub fn checked_db(&self) -> Result<f64, String> {
        if self.frames == 0 {
            return Err("no decoded frames".into());
        }
        let mse = self.mse_sum / self.frames as f64;
        let ours = 10.0 * (255.0f64 * 255.0 / mse).log10();
        let theirs = self.program.y_psnr();
        if !ours.is_finite() || (ours - theirs).abs() > PSNR_AGREEMENT_DB {
            return Err(format!(
                "luma PSNR {ours} dB disagrees with SequencePsnr {theirs} dB"
            ));
        }
        if ours < PSNR_FLOOR_DB {
            return Err(format!(
                "luma PSNR {ours:.2} dB below the {PSNR_FLOOR_DB} dB floor"
            ));
        }
        Ok(ours)
    }
}

/// A 64-bit digest of a frame's dimensions and all three planes, used
/// to compare decodes without keeping every decoded frame.
pub fn frame_digest(frame: &Frame) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64 ^ ((frame.width() as u64) << 32 | frame.height() as u64);
    for plane in [frame.y(), frame.cb(), frame.cr()] {
        let data = plane.data();
        let mut words = data.chunks_exact(8);
        for w in &mut words {
            let v = u64::from_le_bytes(w.try_into().expect("chunks_exact yields 8 bytes"));
            h = (h ^ v).wrapping_mul(0x0000_0100_0000_01B3).rotate_left(29);
        }
        for &b in words.remainder() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
        h ^= data.len() as u64;
    }
    h
}

/// Compares coded streams payload by payload; the error names the
/// first difference.
pub fn same_packets(got: &[Packet], want: &[Packet]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("{} packets, expected {}", got.len(), want.len()));
    }
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        if g.data != w.data {
            return Err(format!("packet {i} differs from the in-process reference"));
        }
    }
    Ok(())
}

/// Bits of a coded stream.
pub fn stream_bits(packets: &[Packet]) -> u64 {
    packets.iter().map(|p| p.data.len() as u64 * 8).sum()
}

/// Coded bitrate at 25 fps, in kbit/s.
pub fn kbps(bits: u64, frames: usize) -> f64 {
    bits as f64 / frames.max(1) as f64 * 25.0 / 1000.0
}

/// Flips one bit of one packet in a copy of `packets` (the packet and
/// bit chosen by `salt`).
pub fn flip_one_bit(packets: &[Packet], salt: u64) -> Vec<Packet> {
    let mut copy = packets.to_vec();
    let i = (salt as usize) % copy.len().max(1);
    if let Some(p) = copy.get_mut(i) {
        if !p.data.is_empty() {
            let byte = (salt as usize / 7) % p.data.len();
            p.data[byte] ^= 1 << (salt % 8);
        }
    }
    copy
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdvb_core::PacketKind;

    #[test]
    fn luma_psnr_agrees_with_the_program() {
        let src = hdvb_seq::Sequence::new(
            hdvb_seq::SequenceId::Riverbed,
            hdvb_frame::Resolution::new(64, 48),
        );
        let mut q = LumaPsnr::default();
        for i in 0..3 {
            let a = src.frame(i);
            let mut b = a.clone();
            for (k, v) in b.y_mut().data_mut().iter_mut().enumerate() {
                *v = v.wrapping_add((k % 5) as u8);
            }
            q.add(&a, &b).expect("same geometry");
        }
        let db = q.checked_db().expect("agrees and clears the floor");
        assert!(db > PSNR_FLOOR_DB && db < 60.0);
    }

    #[test]
    fn one_flipped_bit_fails_the_packet_check() {
        let packets: Vec<Packet> = (0..4u8)
            .map(|i| Packet {
                data: vec![i; 16],
                kind: PacketKind::P,
                display_index: u32::from(i),
            })
            .collect();
        assert!(same_packets(&packets, &packets).is_ok());
        for salt in 0..64 {
            assert!(same_packets(&flip_one_bit(&packets, salt), &packets).is_err());
        }
    }
}
