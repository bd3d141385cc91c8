//! Lockstep batching: amortizing the energy-metered simulator across
//! same-plan inference runs.
//!
//! A fleet cell runs the *same deployed model* on the *same power system*
//! over many inputs. On continuous, fault-free power every run charges the
//! identical op sequence — the per-run [`TraceReport`] is input-invariant
//! — so metering each run individually repeats the same accounting
//! arithmetic N times. This module exploits that:
//!
//! 1. **Leader runs** execute on the real [`Device`], fully metered.
//!    Consecutive completed runs whose trace reports compare equal prove
//!    the deployment has reached its *steady trace* (TAILS needs one
//!    extra run for LEA/DMA calibration), at which point the FRAM image
//!    is snapshotted ([`Device::fram_image`]).
//! 2. **Twin runs** then execute the backend's exact data-plane
//!    arithmetic on the host-side image copy — same per-element
//!    saturating-chain order, same Q1.15 rounding; the intermediate
//!    ping-pong planes are pure dataflow, so each element's chain folds
//!    into a register — producing bit-identical logits without the
//!    per-op metering, and inheriting the leader's trace and scheduler
//!    stats verbatim.
//! 3. Every `lanes`-th run re-meters on the real device and re-checks the
//!    trace fixed point; any divergence (or any non-completed run) drops
//!    back to scalar metering until the fixed point is re-established.
//!
//! Harvested power, armed fault plans, and `lanes < 2` never enter the
//! twin path: those runs drain through the untouched scalar simulator, so
//! brown-out tails, fault injection, and corruption semantics are
//! byte-for-byte what they always were.

use crate::baseline::unpack_tap;
use crate::deploy::{deploy, DeployedKind, DeployedLayer, DeployedModel};
use crate::exec::{run_deployed, Backend, InferenceOutcome};
use dnn::quant::{finish_acc, QModel};
use fxp::{Accum, Q15};
use mcu::{Device, DeviceSpec, FramBuf, FramWord, PowerSystem, TraceReport};

/// Lane width used when the caller does not pick one explicitly: the
/// `BATCH_LANES` environment variable when set (clamped to at least 1;
/// `1` is pure scalar metering), otherwise 8.
pub fn default_lanes() -> usize {
    std::env::var("BATCH_LANES")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .map_or(8, |n| n.max(1))
}

/// A host-side copy of the device FRAM image, on which the backend twins
/// replay their exact data-plane arithmetic.
pub(crate) struct HostImage {
    img: Vec<i16>,
    /// Per-layer input-major (transposed) dense FC weights, precomputed
    /// at snapshot time for the loop-ordered twin: its saturating chain
    /// walks inputs outermost, so the transpose turns the stride-`in_n`
    /// weight access into a contiguous row the compiler can vectorize.
    dense_t: Vec<Option<Vec<i16>>>,
}

impl HostImage {
    pub(crate) fn snapshot(dev: &Device, m: &DeployedModel, transpose_dense: bool) -> HostImage {
        let img = dev.fram_image().to_vec();
        let mut dense_t = vec![None; m.layers.len()];
        if transpose_dense {
            for (i, l) in m.layers.iter().enumerate() {
                if let DeployedKind::Dense {
                    dims,
                    weights,
                    sparse: None,
                    ..
                } = &l.kind
                {
                    let [out_n, in_n] = *dims;
                    let wb = Self::base(*weights);
                    let (o_n, i_n) = (out_n as usize, in_n as usize);
                    let mut wt = vec![0i16; o_n * i_n];
                    for o in 0..o_n {
                        for (j, row) in wt.chunks_exact_mut(o_n).enumerate() {
                            row[o] = img[wb + o * i_n + j];
                        }
                    }
                    dense_t[i] = Some(wt);
                }
            }
        }
        HostImage { img, dense_t }
    }

    #[inline]
    fn base(buf: FramBuf) -> usize {
        buf.addr(0).index() as usize
    }

    #[inline]
    fn rd(&self, base: usize, i: u32) -> Q15 {
        Q15::from_raw(self.img[base + i as usize])
    }

    /// Reads a word that stores an index/pointer (raw u16).
    #[inline]
    fn rdu(&self, base: usize, i: u32) -> u32 {
        self.img[base + i as usize] as u16 as u32
    }

    #[inline]
    fn wr(&mut self, base: usize, i: u32, v: Q15) {
        self.img[base + i as usize] = v.raw();
    }

    #[inline]
    fn word(&self, w: FramWord) -> u32 {
        self.img[w.addr().index() as usize] as u16 as u32
    }

    fn write_input(&mut self, m: &DeployedModel, x: &[Q15]) {
        assert_eq!(x.len() as u32, m.input_len, "input length mismatch");
        let b = Self::base(m.buf(m.input));
        for (i, v) in x.iter().enumerate() {
            self.img[b + i] = v.raw();
        }
    }

    fn read_output(&self, m: &DeployedModel) -> Vec<Q15> {
        let b = Self::base(m.buf(m.output));
        (0..m.output_len).map(|i| self.rd(b, i)).collect()
    }

    /// SONIC / Tile-N twin: loop-ordered buffering. Tiled's in-place
    /// accumulation from a zeroed plane performs the same Q1.15 additions
    /// in the same (tap, element) order as SONIC's plane ping-pong, so
    /// one twin serves both, and SONIC-no-undo's loop-ordered sparse FC
    /// adds each output's terms in the same ascending-column order as the
    /// scatter, so it folds in too.
    fn run_loop_ordered(&mut self, m: &DeployedModel) {
        for (i, l) in m.layers.iter().enumerate() {
            match &l.kind {
                DeployedKind::Conv { .. } => self.conv_loop_ordered(m, l),
                DeployedKind::Dense {
                    sparse: Some(_), ..
                } => self.sparse_fc_scatter(m, l),
                DeployedKind::Dense { .. } => self.dense_loop_ordered(m, l, i),
                DeployedKind::Pool { .. } => self.pool(m, l),
                DeployedKind::Relu => self.relu(m, l),
                DeployedKind::Flatten => {}
            }
        }
    }

    /// TAILS twin: grouped FIR convolution and calibrated chunked dense
    /// layers; sparse FC, pool, and ReLU share SONIC's software paths.
    fn run_tails(&mut self, m: &DeployedModel) {
        for l in &m.layers {
            match &l.kind {
                DeployedKind::Conv { .. } => self.conv_tails(m, l),
                DeployedKind::Dense {
                    sparse: Some(_), ..
                } => self.sparse_fc_scatter(m, l),
                DeployedKind::Dense { .. } => self.dense_tails(m, l),
                DeployedKind::Pool { .. } => self.pool(m, l),
                DeployedKind::Relu => self.relu(m, l),
                DeployedKind::Flatten => {}
            }
        }
    }

    /// Baseline twin: register accumulation in tap order.
    fn run_baseline(&mut self, m: &DeployedModel) {
        for l in &m.layers {
            match &l.kind {
                DeployedKind::Conv { .. } => self.conv_baseline(m, l),
                DeployedKind::Dense { .. } => self.dense_baseline(m, l),
                DeployedKind::Pool { .. } => self.pool(m, l),
                DeployedKind::Relu => self.relu(m, l),
                DeployedKind::Flatten => {}
            }
        }
    }

    /// The plane ping-pong is pure dataflow: element `i`'s value after tap
    /// `pos` is a saturating chain `v_pos = v_{pos-1} + x*wq` independent
    /// of every other element, so the twin keeps each chain in a register
    /// and never materializes the intermediate planes — bit-equal, plane
    /// traffic gone.
    fn conv_loop_ordered(&mut self, m: &DeployedModel, l: &DeployedLayer) {
        let DeployedKind::Conv {
            dims,
            weights,
            sparse,
            bias,
            shift,
        } = &l.kind
        else {
            unreachable!("conv twin on non-conv")
        };
        let [nf, nc, kh, kw] = *dims;
        let [_, h, w_in] = l.in_shape;
        let oh = l.out_shape[1];
        let ow = l.out_shape[2];
        let plane = oh * ow;
        let src = Self::base(m.buf(l.src));
        let dst = Self::base(m.buf(l.dst));
        let bias_b = Self::base(*bias);
        let sparse_bases = sparse
            .as_ref()
            .map(|(row_ptr, taps)| (Self::base(*row_ptr), Self::base(*taps)));
        let wbase = if sparse.is_none() {
            Self::base(*weights)
        } else {
            0
        };
        let ntaps_dense = nc * kh * kw;
        let owu = ow as usize;
        let mut taps_v: Vec<(Q15, u32, u32, u32)> = Vec::new();
        let mut rowbuf: Vec<Q15> = vec![Q15::ZERO; owu];
        for f in 0..nf {
            let (start, ntaps) = match sparse_bases {
                Some((rp, _)) => {
                    let s = self.rdu(rp, f);
                    (s, self.rdu(rp, f + 1) - s)
                }
                None => (0, ntaps_dense),
            };
            taps_v.clear();
            for pos in 0..ntaps {
                taps_v.push(match sparse_bases {
                    Some((_, tb)) => {
                        let off = self.rdu(tb, 2 * (start + pos)) as u16;
                        let (c, ky, kx) = unpack_tap(off, kh, kw);
                        (self.rd(tb, 2 * (start + pos) + 1), c, ky, kx)
                    }
                    None => {
                        let (c, ky, kx) = unpack_tap(pos as u16, kh, kw);
                        (self.rd(wbase, f * ntaps_dense + pos), c, ky, kx)
                    }
                });
            }
            let b = self.rd(bias_b, f);
            if taps_v.is_empty() {
                let v = finish_acc(Accum::ZERO, *shift, b);
                for t in 0..plane {
                    self.wr(dst, f * plane + t, v);
                }
                continue;
            }
            // Row-wise: each output row is a slice-contiguous saturating
            // chain per tap (taps in ascending `pos` order, exactly the
            // per-element chain), which the compiler can vectorize.
            let (w0, c0, ky0, kx0) = taps_v[0];
            for r in 0..oh {
                let s0 = src + ((c0 * h + r + ky0) * w_in + kx0) as usize;
                for (v, &x) in rowbuf.iter_mut().zip(&self.img[s0..s0 + owu]) {
                    *v = Q15::from_raw(x) * w0;
                }
                for &(wq, c, ky, kx) in &taps_v[1..] {
                    let s = src + ((c * h + r + ky) * w_in + kx) as usize;
                    for (v, &x) in rowbuf.iter_mut().zip(&self.img[s..s + owu]) {
                        *v += Q15::from_raw(x) * wq;
                    }
                }
                let d = dst + (f * plane + r * ow) as usize;
                for (o, v) in rowbuf.iter().enumerate() {
                    self.img[d + o] = finish_acc(Accum::from_q15(*v), *shift, b).raw();
                }
            }
        }
    }

    fn dense_loop_ordered(&mut self, m: &DeployedModel, l: &DeployedLayer, idx: usize) {
        let DeployedKind::Dense {
            dims, bias, shift, ..
        } = &l.kind
        else {
            unreachable!("dense twin on non-dense")
        };
        let [out_n, in_n] = *dims;
        let src = Self::base(m.buf(l.src));
        let dst = Self::base(m.buf(l.dst));
        let bb = Self::base(*bias);
        let o_n = out_n as usize;
        // Output `o`'s chain over ascending `j` is independent of every
        // other output (the planes are dataflow, as in the conv twin);
        // with the snapshot-time transposed weights, each `j` step is an
        // elementwise pass over all chains — contiguous and vectorizable.
        let mut vbuf: Vec<Q15> = vec![Q15::ZERO; o_n];
        {
            let wt: &[i16] = self.dense_t[idx]
                .as_deref()
                .expect("transposed FC weights built at snapshot");
            let xs = &self.img[src..src + in_n as usize];
            let x0 = Q15::from_raw(xs[0]);
            for (v, &w) in vbuf.iter_mut().zip(&wt[..o_n]) {
                *v = x0 * Q15::from_raw(w);
            }
            for (&xr, row) in xs[1..].iter().zip(wt.chunks_exact(o_n).skip(1)) {
                let x = Q15::from_raw(xr);
                for (v, &w) in vbuf.iter_mut().zip(row) {
                    *v += x * Q15::from_raw(w);
                }
            }
        }
        for (o, v) in vbuf.iter().enumerate() {
            let b = Q15::from_raw(self.img[bb + o]);
            self.img[dst + o] = finish_acc(Accum::from_q15(*v), *shift, b).raw();
        }
    }

    /// Sparse FC in the scatter order the column-major deployment defines
    /// (ascending entry index = ascending input column).
    fn sparse_fc_scatter(&mut self, m: &DeployedModel, l: &DeployedLayer) {
        let DeployedKind::Dense {
            dims,
            sparse,
            sparse_rows,
            bias,
            shift,
            ..
        } = &l.kind
        else {
            unreachable!("sparse FC twin on non-dense")
        };
        // Output `o`'s scatter chain adds its terms in ascending-column
        // order — exactly its row's entry order in the row-major copy the
        // deployment also carries (for the baseline runtime). The gather
        // below is therefore the same saturating chain (`0 + p` is the
        // scatter's first add too), without the plane or column cursor.
        if let Some((row_ptr, entries)) = sparse_rows {
            let [out_n, _] = *dims;
            let src = Self::base(m.buf(l.src));
            let dst = Self::base(m.buf(l.dst));
            let rp = Self::base(*row_ptr);
            let eb = Self::base(*entries);
            let bb = Self::base(*bias);
            for o in 0..out_n {
                let mut v = Q15::ZERO;
                for k in self.rdu(rp, o)..self.rdu(rp, o + 1) {
                    let col = self.rdu(eb, 2 * k);
                    let wq = self.rd(eb, 2 * k + 1);
                    v += self.rd(src, col) * wq;
                }
                let b = self.rd(bb, o);
                self.wr(dst, o, finish_acc(Accum::from_q15(v), *shift, b));
            }
            return;
        }
        let (col_ptr, entries) = sparse.as_ref().expect("sparse layer");
        let [out_n, _] = *dims;
        let src = Self::base(m.buf(l.src));
        let dst = Self::base(m.buf(l.dst));
        let pa = Self::base(m.plane_a);
        let cp = Self::base(*col_ptr);
        let eb = Self::base(*entries);
        let bb = Self::base(*bias);
        let nnz = entries.len() / 2;
        for o in 0..out_n {
            self.wr(pa, o, Q15::ZERO);
        }
        let mut j = 0u32;
        for k in 0..nnz {
            while self.rdu(cp, j + 1) <= k {
                j += 1;
            }
            let o = self.rdu(eb, 2 * k);
            let wq = self.rd(eb, 2 * k + 1);
            let v = self.rd(pa, o) + self.rd(src, j) * wq;
            self.wr(pa, o, v);
        }
        for o in 0..out_n {
            let b = self.rd(bb, o);
            let v = finish_acc(Accum::from_q15(self.rd(pa, o)), *shift, b);
            self.wr(dst, o, v);
        }
    }

    fn conv_tails(&mut self, m: &DeployedModel, l: &DeployedLayer) {
        let DeployedKind::Conv {
            dims,
            weights,
            bias,
            shift,
            ..
        } = &l.kind
        else {
            unreachable!("conv twin on non-conv")
        };
        let [nf, nc, kh, kw] = *dims;
        let [_, h, w_in] = l.in_shape;
        let [_, oh, ow] = l.out_shape;
        let plane = oh * ow;
        let src = Self::base(m.buf(l.src));
        let dst = Self::base(m.buf(l.dst));
        let wb = Self::base(*weights);
        let bias_b = Self::base(*bias);
        let groups = nc * kh;
        // As in the loop-ordered twin, the group ping-pong is per-element
        // dataflow: each element's value is a chain of per-group FIR
        // results joined by saturating adds (`x + 0` is exact and
        // `i16::saturating_add` is commutative, so folding the all-zero
        // passthrough groups away and accumulating `to_q15(acc) + v` in a
        // register is bit-equal to the plane version).
        let owu = ow as usize;
        let planeu = plane as usize;
        let mut rows: Vec<(u32, u32, u32)> = Vec::new();
        let mut vplane: Vec<Q15> = vec![Q15::ZERO; planeu];
        for f in 0..nf {
            // Zero-padded rows of sparse filters are skipped whole (the
            // inter plane passes through).
            rows.clear();
            for g in 0..groups {
                let c = g / kh;
                let ky = g % kh;
                let tap0 = ((f * nc + c) * kh + ky) * kw;
                let all_zero = (0..kw).all(|j| self.img[wb + (tap0 + j) as usize] == 0);
                if !all_zero {
                    rows.push((tap0, c, ky));
                }
            }
            let b = self.rd(bias_b, f);
            if rows.is_empty() {
                let v = finish_acc(Accum::ZERO, *shift, b);
                for t in 0..plane {
                    self.wr(dst, f * plane + t, v);
                }
                continue;
            }
            // Group-outer over a per-filter plane buffer: each group's
            // kw-tap FIR is an exact i64 sum (order-free), computed per
            // output element from a sliding window in one fused pass;
            // only the per-group `to_q15` rounding and the group-joining
            // saturating adds are order-fixed, and every element still
            // sees its groups in ascending order.
            let kwu = kw as usize;
            for v in vplane.iter_mut() {
                *v = Q15::ZERO;
            }
            for &(tap0, c, ky) in &rows {
                let sbase = src + ((c * h + ky) * w_in) as usize;
                let tb = wb + tap0 as usize;
                let taps = &self.img[tb..tb + kwu];
                if kwu == 3 {
                    // 3-tap FIR on shifted slices: each product fits
                    // i32 and so does a pair-sum (2·2^30 < 2^31), so
                    // the sum is exact in i32+i64 — and the i32
                    // multiplies vectorize where i64 ones do not.
                    let (t0, t1, t2) = (taps[0] as i32, taps[1] as i32, taps[2] as i32);
                    for r in 0..oh as usize {
                        let xs = &self.img[sbase + r * w_in as usize..][..owu + 2];
                        let vrow = &mut vplane[r * owu..r * owu + owu];
                        for (i, v) in vrow.iter_mut().enumerate() {
                            let p01 = xs[i] as i32 * t0 + xs[i + 1] as i32 * t1;
                            let a = p01 as i64 + (xs[i + 2] as i32 * t2) as i64;
                            *v = Accum::from_raw(a).to_q15() + *v;
                        }
                    }
                } else {
                    for r in 0..oh as usize {
                        let xs = &self.img[sbase + r * w_in as usize..][..owu + kwu - 1];
                        let vrow = &mut vplane[r * owu..r * owu + owu];
                        for (v, win) in vrow.iter_mut().zip(xs.windows(kwu)) {
                            let mut a = 0i64;
                            for (&x, &wq) in win.iter().zip(taps) {
                                a += x as i64 * wq as i64;
                            }
                            *v = Accum::from_raw(a).to_q15() + *v;
                        }
                    }
                }
            }
            let d = dst + (f * plane) as usize;
            for (o, v) in vplane.iter().enumerate() {
                self.img[d + o] = finish_acc(Accum::from_q15(*v), *shift, b).raw();
            }
        }
    }

    fn dense_tails(&mut self, m: &DeployedModel, l: &DeployedLayer) {
        let DeployedKind::Dense {
            dims,
            weights,
            bias,
            shift,
            ..
        } = &l.kind
        else {
            unreachable!("dense twin on non-dense")
        };
        let [out_n, in_n] = *dims;
        let src = Self::base(m.buf(l.src));
        let dst = Self::base(m.buf(l.dst));
        let wb = Self::base(*weights);
        let bb = Self::base(*bias);
        // The calibrated LEA/DMA tile persists in FRAM; the snapshot is
        // taken only after completed runs, so calibration has settled.
        let tile = self.word(m.calib);
        assert!(tile > 0, "TAILS calibration word unset in twin image");
        let nchunks = in_n.div_ceil(tile);
        // Per-output register chain over ascending chunks (the chunk
        // ping-pong is per-element dataflow, as in the conv twin); each
        // chunk's dot product is an exact i64 sum over two contiguous
        // slices, which vectorizes.
        for o in 0..out_n {
            let wrow = wb + (o * in_n) as usize;
            let mut v = Q15::ZERO;
            for ci in 0..nchunks {
                let cbase = (ci * tile) as usize;
                let n = tile.min(in_n - ci * tile) as usize;
                let xs = &self.img[src + cbase..src + cbase + n];
                let ws = &self.img[wrow + cbase..wrow + cbase + n];
                let mut acc = 0i64;
                for (&x, &w) in xs.iter().zip(ws) {
                    acc += x as i64 * w as i64;
                }
                let prod = Accum::from_raw(acc).to_q15();
                v = if ci == 0 { prod } else { v + prod };
            }
            let b = self.rd(bb, o);
            self.wr(dst, o, finish_acc(Accum::from_q15(v), *shift, b));
        }
    }

    fn conv_baseline(&mut self, m: &DeployedModel, l: &DeployedLayer) {
        let DeployedKind::Conv {
            dims,
            weights,
            sparse,
            bias,
            shift,
        } = &l.kind
        else {
            unreachable!("conv twin on non-conv")
        };
        let [nf, nc, kh, kw] = *dims;
        let [_, h, w] = l.in_shape;
        let [_, oh, ow] = l.out_shape;
        let src = Self::base(m.buf(l.src));
        let dst = Self::base(m.buf(l.dst));
        let bias_b = Self::base(*bias);
        let sparse_bases = sparse
            .as_ref()
            .map(|(row_ptr, taps)| (Self::base(*row_ptr), Self::base(*taps)));
        let wbase = if sparse.is_none() {
            Self::base(*weights)
        } else {
            0
        };
        let ntaps = nc * kh * kw;
        let owu = ow as usize;
        // The register accumulator is an exact i64 sum, so regrouping it
        // into per-tap row passes is bit-exact and vectorizable.
        let mut accrow: Vec<i64> = vec![0; owu];
        for f in 0..nf {
            let b = self.rd(bias_b, f);
            for oy in 0..oh {
                for a in accrow.iter_mut() {
                    *a = 0;
                }
                match sparse_bases {
                    Some((rp, tb)) => {
                        for k in self.rdu(rp, f)..self.rdu(rp, f + 1) {
                            let off = self.rdu(tb, 2 * k) as u16;
                            let (c, ky, kx) = unpack_tap(off, kh, kw);
                            let wq = self.img[tb + (2 * k + 1) as usize] as i64;
                            let s = src + ((c * h + oy + ky) * w + kx) as usize;
                            for (a, &x) in accrow.iter_mut().zip(&self.img[s..s + owu]) {
                                *a += x as i64 * wq;
                            }
                        }
                    }
                    None => {
                        // Fused per-(c, ky) sliding-window pass; kx-tap
                        // sums are exact i64 accumulation, order-free.
                        let kwu = kw as usize;
                        let mut tapb = wbase + (f * ntaps) as usize;
                        for c in 0..nc {
                            for ky in 0..kh {
                                let taps = &self.img[tapb..tapb + kwu];
                                let s = src + ((c * h + oy + ky) * w) as usize;
                                let xs = &self.img[s..s + owu + kwu - 1];
                                if kwu == 3 {
                                    // As in the TAILS twin: i32 products
                                    // and pair-sums are exact, and they
                                    // vectorize where i64 ones do not.
                                    let (t0, t1, t2) =
                                        (taps[0] as i32, taps[1] as i32, taps[2] as i32);
                                    let xs = &xs[..owu + 2];
                                    for (i, a) in accrow.iter_mut().enumerate() {
                                        let p01 = xs[i] as i32 * t0 + xs[i + 1] as i32 * t1;
                                        *a += p01 as i64 + (xs[i + 2] as i32 * t2) as i64;
                                    }
                                } else {
                                    for (a, win) in accrow.iter_mut().zip(xs.windows(kwu)) {
                                        for (&x, &wq) in win.iter().zip(taps) {
                                            *a += x as i64 * wq as i64;
                                        }
                                    }
                                }
                                tapb += kwu;
                            }
                        }
                    }
                }
                let d = dst + ((f * oh + oy) * ow) as usize;
                for (o, &a) in accrow.iter().enumerate() {
                    self.img[d + o] = finish_acc(Accum::from_raw(a), *shift, b).raw();
                }
            }
        }
    }

    fn dense_baseline(&mut self, m: &DeployedModel, l: &DeployedLayer) {
        let DeployedKind::Dense {
            dims,
            weights,
            sparse_rows,
            bias,
            shift,
            ..
        } = &l.kind
        else {
            unreachable!("dense twin on non-dense")
        };
        let [out_n, in_n] = *dims;
        let src = Self::base(m.buf(l.src));
        let dst = Self::base(m.buf(l.dst));
        let bb = Self::base(*bias);
        let sparse_bases = sparse_rows
            .as_ref()
            .map(|(row_ptr, entries)| (Self::base(*row_ptr), Self::base(*entries)));
        let wbase = if sparse_rows.is_none() {
            Self::base(*weights)
        } else {
            0
        };
        for o in 0..out_n {
            let mut acc = Accum::ZERO;
            match sparse_bases {
                Some((rp, eb)) => {
                    for k in self.rdu(rp, o)..self.rdu(rp, o + 1) {
                        let col = self.rdu(eb, 2 * k);
                        let wq = self.rd(eb, 2 * k + 1);
                        acc.mac(self.rd(src, col), wq);
                    }
                }
                None => {
                    // Exact i64 dot product over two contiguous slices.
                    let wrow = wbase + (o * in_n) as usize;
                    let xs = &self.img[src..src + in_n as usize];
                    let ws = &self.img[wrow..wrow + in_n as usize];
                    let mut a = 0i64;
                    for (&x, &w) in xs.iter().zip(ws) {
                        a += x as i64 * w as i64;
                    }
                    acc = Accum::from_raw(a);
                }
            }
            let b = self.rd(bb, o);
            self.wr(dst, o, finish_acc(acc, *shift, b));
        }
    }

    fn pool(&mut self, m: &DeployedModel, l: &DeployedLayer) {
        let DeployedKind::Pool { kh, kw } = l.kind else {
            unreachable!("pool twin on non-pool")
        };
        let [c, h, w] = l.in_shape;
        let [_, oh, ow] = l.out_shape;
        let src = Self::base(m.buf(l.src));
        let dst = Self::base(m.buf(l.dst));
        let mut i = 0u32;
        for ch in 0..c {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut best = Q15::MIN;
                    for py in 0..kh {
                        let row = (ch * h + oy * kh + py) * w + ox * kw;
                        for px in 0..kw {
                            let v = self.rd(src, row + px);
                            if v > best {
                                best = v;
                            }
                        }
                    }
                    self.wr(dst, i, best);
                    i += 1;
                }
            }
        }
    }

    fn relu(&mut self, m: &DeployedModel, l: &DeployedLayer) {
        let [c, h, w] = l.in_shape;
        let b = Self::base(m.buf(l.src));
        let n = (c * h * w) as usize;
        // Raw pass: `Q15::relu` is exactly `raw < 0 -> 0`.
        for v in &mut self.img[b..b + n] {
            if *v < 0 {
                *v = 0;
            }
        }
    }
}

enum TwinKind {
    LoopOrdered,
    Tails,
    Baseline,
}

/// Drives a sequence of same-deployment runs through the steady-trace
/// batching policy: metered leader runs on the real device, twin runs on
/// the host image once the per-run trace has reached its fixed point.
pub(crate) struct BatchRunner {
    lanes: usize,
    enabled: bool,
    backend: Backend,
    kind: TwinKind,
    idx: usize,
    steady: bool,
    prev: Option<TraceReport>,
    leader: Option<InferenceOutcome>,
    image: Option<HostImage>,
    twin_runs: u64,
}

impl BatchRunner {
    /// Twin runs only ever engage on continuous power with `lanes >= 2`;
    /// any other configuration meters every run (the scalar drain).
    pub(crate) fn new(backend: &Backend, power: &PowerSystem, lanes: usize) -> BatchRunner {
        BatchRunner {
            lanes: lanes.max(1),
            enabled: lanes >= 2
                && matches!(power, PowerSystem::Continuous)
                && !matches!(backend, Backend::Stateful),
            backend: *backend,
            kind: match backend {
                Backend::Baseline => TwinKind::Baseline,
                Backend::Tails(_) => TwinKind::Tails,
                Backend::Tiled(_) | Backend::Sonic | Backend::SonicNoUndo => TwinKind::LoopOrdered,
                // The stateful backend's embedded tags are NVM-visible
                // state the host twin does not model; `enabled` above
                // forces every stateful run through the meter, so the
                // kind is never consulted.
                Backend::Stateful => TwinKind::Baseline,
            },
            idx: 0,
            steady: false,
            prev: None,
            leader: None,
            image: None,
            twin_runs: 0,
        }
    }

    pub(crate) fn twin_runs(&self) -> u64 {
        self.twin_runs
    }

    /// Runs one inference, choosing the metered or twin path. The caller
    /// must not arm fault plans on `dev` while using a runner with
    /// `lanes >= 2` — faulted jobs take the scalar path upstream.
    pub(crate) fn run(
        &mut self,
        dev: &mut Device,
        dm: &DeployedModel,
        input: &[Q15],
    ) -> InferenceOutcome {
        let i = self.idx;
        self.idx += 1;
        if self.enabled && self.steady && !i.is_multiple_of(self.lanes) {
            if let Some(out) = self.twin(dm, input) {
                self.twin_runs += 1;
                return out;
            }
        }
        if self.enabled {
            debug_assert_eq!(dev.pending_faults(), 0, "BatchRunner on a faulted device");
        }
        dm.load_input(dev, input);
        let out = run_deployed(dev, dm, &self.backend);
        self.observe(dev, dm, &out);
        out
    }

    fn twin(&mut self, dm: &DeployedModel, input: &[Q15]) -> Option<InferenceOutcome> {
        let img = self.image.as_mut()?;
        let leader = self.leader.as_ref()?;
        img.write_input(dm, input);
        match self.kind {
            TwinKind::LoopOrdered => img.run_loop_ordered(dm),
            TwinKind::Tails => img.run_tails(dm),
            TwinKind::Baseline => img.run_baseline(dm),
        }
        let output = img.read_output(dm);
        let class = fxp::vecops::argmax(&output);
        let mut out = leader.clone();
        out.output = output;
        out.class = class;
        Some(out)
    }

    fn observe(&mut self, dev: &Device, dm: &DeployedModel, out: &InferenceOutcome) {
        if !self.enabled {
            return;
        }
        if !out.completed || out.corruption_detected != 0 {
            self.steady = false;
            self.prev = None;
            self.leader = None;
            self.image = None;
            return;
        }
        if self.prev.as_ref() == Some(&out.trace) {
            self.steady = true;
            if self.image.is_none() {
                self.image = Some(HostImage::snapshot(
                    dev,
                    dm,
                    matches!(self.kind, TwinKind::LoopOrdered),
                ));
            }
        } else {
            self.steady = false;
            self.image = None;
        }
        self.prev = Some(out.trace.clone());
        self.leader = Some(out.clone());
    }
}

/// Deploys `qm` once and runs every input through the lockstep batch
/// runner: metered leader runs plus bit-identical host twins with lane
/// width `lanes` (see the [module docs](self)). `lanes = 1` is exactly
/// the scalar sequence of [`run_deployed`] calls on one deployment;
/// harvested power and `lanes < 2` always meter every run.
///
/// # Panics
///
/// Panics if the model does not fit in FRAM (see
/// [`crate::run_inference`]).
pub fn run_inference_batch(
    qm: &QModel,
    inputs: &[Vec<Q15>],
    spec: &DeviceSpec,
    power: PowerSystem,
    backend: &Backend,
    lanes: usize,
) -> Vec<InferenceOutcome> {
    run_inference_batch_counted(qm, inputs, spec, power, backend, lanes).0
}

/// [`run_inference_batch`] plus the number of runs the twin path served
/// (diagnostics for tests and benches).
pub(crate) fn run_inference_batch_counted(
    qm: &QModel,
    inputs: &[Vec<Q15>],
    spec: &DeviceSpec,
    power: PowerSystem,
    backend: &Backend,
    lanes: usize,
) -> (Vec<InferenceOutcome>, u64) {
    let mut dev = Device::new(spec.clone(), power);
    let dm = deploy(&mut dev, qm).expect("model must fit in FRAM");
    let mut runner = BatchRunner::new(backend, dev.power(), lanes);
    let outs = inputs
        .iter()
        .map(|x| runner.run(&mut dev, &dm, x))
        .collect();
    (outs, runner.twin_runs())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::TailsConfig;
    use dnn::layers::Layer;
    use dnn::model::Model;
    use dnn::quant::quantize;
    use dnn::tensor::Tensor;
    use rand::SeedableRng;

    /// Small CNN exercising every twin kernel: conv, relu, pool, sparse
    /// FC (scatter), dense FC — plus `n` distinct quantized inputs.
    fn fixture(n: usize) -> (QModel, Vec<Vec<Q15>>) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1234);
        let mut model = Model::new(vec![
            Layer::conv2d(4, 1, 3, 3, &mut rng),
            Layer::relu(),
            Layer::maxpool(2),
            Layer::flatten(),
            Layer::dense(4 * 7 * 7, 12, &mut rng),
            Layer::relu(),
            Layer::dense(12, 4, &mut rng),
        ]);
        if let Layer::Dense(d) = &mut model.layers_mut()[4] {
            let mut mask = Tensor::zeros(d.w.shape().to_vec());
            for (i, m) in mask.data_mut().iter_mut().enumerate() {
                if i % 7 == 0 {
                    *m = 1.0;
                }
            }
            model.layers_mut()[4].set_mask(mask);
        }
        let shape = [1usize, 16, 16];
        let calib: Vec<Tensor> = (0..3)
            .map(|_| Tensor::uniform(shape.to_vec(), 0.9, &mut rng))
            .collect();
        let qm = quantize(&mut model, &shape, &calib);
        let inputs = (0..n)
            .map(|_| qm.quantize_input(&Tensor::uniform(shape.to_vec(), 0.9, &mut rng)))
            .collect();
        (qm, inputs)
    }

    fn spec() -> DeviceSpec {
        DeviceSpec::msp430fr5994()
    }

    fn backends() -> Vec<Backend> {
        vec![
            Backend::Baseline,
            Backend::Tiled(32),
            Backend::Sonic,
            Backend::SonicNoUndo,
            Backend::Tails(TailsConfig::default()),
        ]
    }

    #[test]
    fn batched_outcomes_are_bit_identical_to_scalar() {
        let (qm, inputs) = fixture(12);
        for b in backends() {
            let (scalar, t_scalar) = run_inference_batch_counted(
                &qm,
                &inputs,
                &spec(),
                PowerSystem::continuous(),
                &b,
                1,
            );
            assert_eq!(t_scalar, 0, "{b}: lanes=1 must never twin");
            let (batched, t_batch) = run_inference_batch_counted(
                &qm,
                &inputs,
                &spec(),
                PowerSystem::continuous(),
                &b,
                4,
            );
            assert!(
                t_batch >= 4,
                "{b}: twins never engaged ({t_batch} twin runs)"
            );
            for (i, (s, x)) in scalar.iter().zip(&batched).enumerate() {
                assert!(s.completed && x.completed, "{b}: run {i} not completed");
                assert_eq!(s.output, x.output, "{b}: run {i} output diverges");
                assert_eq!(s.class, x.class, "{b}: run {i} class diverges");
                assert_eq!(s.trace, x.trace, "{b}: run {i} trace diverges");
                assert_eq!(s.stats, x.stats, "{b}: run {i} stats diverge");
                assert_eq!(s.corruption_detected, x.corruption_detected);
                assert!(x.error.is_none() && x.brownout.is_none());
            }
        }
    }

    #[test]
    fn stateful_never_twins_and_stays_bit_identical() {
        // The stateful backend is excluded from twinning outright: its
        // embedded progress tags are per-run NVM state the host twin
        // does not model. Every lane width must drain through the meter
        // with bit-identical outcomes.
        let (qm, inputs) = fixture(8);
        let b = Backend::Stateful;
        let (scalar, t1) =
            run_inference_batch_counted(&qm, &inputs, &spec(), PowerSystem::continuous(), &b, 1);
        assert_eq!(t1, 0);
        for lanes in [2, 4, 8] {
            let (batched, twins) = run_inference_batch_counted(
                &qm,
                &inputs,
                &spec(),
                PowerSystem::continuous(),
                &b,
                lanes,
            );
            assert_eq!(twins, 0, "lanes={lanes}: stateful runs must never twin");
            for (i, (s, x)) in scalar.iter().zip(&batched).enumerate() {
                assert!(s.completed && x.completed, "run {i} not completed");
                assert_eq!(s.output, x.output, "run {i} output diverges");
                assert_eq!(s.trace, x.trace, "run {i} trace diverges");
            }
        }
    }

    #[test]
    fn harvested_power_always_meters() {
        let (qm, inputs) = fixture(4);
        let power = || PowerSystem::harvested(100e-6);
        let (scalar, _) =
            run_inference_batch_counted(&qm, &inputs, &spec(), power(), &Backend::Sonic, 1);
        let (batched, twins) =
            run_inference_batch_counted(&qm, &inputs, &spec(), power(), &Backend::Sonic, 8);
        assert_eq!(twins, 0, "harvested runs must drain through the meter");
        for (s, x) in scalar.iter().zip(&batched) {
            assert_eq!(s.output, x.output);
            assert_eq!(s.trace, x.trace);
        }
    }

    #[test]
    fn lane_width_does_not_change_results() {
        let (qm, inputs) = fixture(10);
        let base = run_inference_batch(
            &qm,
            &inputs,
            &spec(),
            PowerSystem::continuous(),
            &Backend::Sonic,
            1,
        );
        for lanes in [2, 4, 8] {
            let got = run_inference_batch(
                &qm,
                &inputs,
                &spec(),
                PowerSystem::continuous(),
                &Backend::Sonic,
                lanes,
            );
            for (s, x) in base.iter().zip(&got) {
                assert_eq!(s.output, x.output, "lanes={lanes}");
                assert_eq!(s.trace, x.trace, "lanes={lanes}");
            }
        }
    }
}
