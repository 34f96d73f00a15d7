use crate::dp::{AlignMode, AlignScratch, Alignment, NEG_INF};
use crate::Scoring;
use gx_genome::{Cigar, CigarOp, DnaSeq};

const H_DIAG: u8 = 0;
const H_E: u8 = 1;
const H_F: u8 = 2;
const H_STOP: u8 = 3;
const E_EXT: u8 = 1 << 2;
const F_EXT: u8 = 1 << 3;

/// Banded affine-gap alignment (global or fit mode).
///
/// Only cells within `band` diagonals of the corridor spanned by the two
/// sequence lengths are computed, bounding both time and traceback memory to
/// `O(|q| * (|t| - |q| + 2 * band))`. This is the aligner the DP fallback and
/// long-read paths use — GenDP accelerates exactly this banded
/// Smith–Waterman shape.
///
/// Alignments whose optimal path leaves the band return the best in-band
/// path, which is the same behaviour as minimap2's banded extension.
///
/// The fill runs in band coordinates (see [`banded_align_with`]) and is
/// checked cell-for-cell against the column-indexed
/// [`banded_align_reference`]: both return the same score, CIGAR,
/// coordinates and [`Alignment::cells`].
///
/// # Panics
///
/// Panics if either sequence is empty, `band == 0`, or `mode` is
/// [`AlignMode::Local`] (local mode has no meaningful corridor).
pub fn banded_align(
    query: &DnaSeq,
    target: &DnaSeq,
    scoring: &Scoring,
    band: usize,
    mode: AlignMode,
) -> Alignment {
    banded_align_with(query, target, scoring, band, mode, &mut AlignScratch::new())
}

/// [`banded_align`] using caller-owned scratch buffers — identical result,
/// no allocation once `scratch` has grown to the workload's high-water mark.
///
/// Row `i` is stored by band offset `k = j − (i + lo_shift)`, where
/// `lo_shift` is the lowest allowed shift `j − i`; the traceback matrix uses
/// the same `i * width + k` layout. In these coordinates the cell above
/// `(i, k)` is `k + 1` of row `i − 1`, the diagonal is `k` of row `i − 1`
/// and the left neighbour is `k − 1` of row `i`. Every up and diagonal
/// neighbour a row reads lies in the previous row's computed range, except
/// "up" from offset `width − 1`: score rows are `width + 1` long and offset
/// `width`, never computed, stays `NEG_INF`. So each row's valid range is
/// computed once and the inner loop walks equal-length slices with no
/// per-cell range tests.
pub fn banded_align_with(
    query: &DnaSeq,
    target: &DnaSeq,
    scoring: &Scoring,
    band: usize,
    mode: AlignMode,
    scratch: &mut AlignScratch,
) -> Alignment {
    check_args(query, target, band, mode);
    let n = query.len();
    let m = target.len();
    let open = scoring.gap_open + scoring.gap_ext;
    let ext = scoring.gap_ext;
    let (lo_shift, width) = corridor(n, m, band);

    let AlignScratch {
        tb,
        h_prev,
        h_cur,
        f_col: f_prev,
        f_cur,
        qcodes,
        tcodes,
        rev_cigar,
        spare_cigars,
    } = scratch;
    tb.clear();
    tb.resize((n + 1) * width, H_STOP);
    for row in [&mut *h_prev, &mut *h_cur, &mut *f_prev, &mut *f_cur] {
        row.clear();
        row.resize(width + 1, NEG_INF);
    }
    query.codes_into(0..n, qcodes);
    target.codes_into(0..m, tcodes);

    // Column of band offset 0 in row `i`, and the row's valid offsets.
    let base = |i: usize| -> i64 { i as i64 + lo_shift };
    let row_range = |i: usize| -> (usize, usize) {
        let kmin = (-base(i)).max(0) as usize;
        let kmax = (m as i64 - base(i)).min(width as i64 - 1) as usize;
        (kmin, kmax)
    };

    // Row 0.
    let (kmin, kmax) = row_range(0);
    for k in kmin..=kmax {
        let j = (base(0) + k as i64) as usize;
        h_prev[k] = match mode {
            AlignMode::Global => -scoring.gap_cost(j as u32),
            _ => 0,
        };
        tb[k] = if mode == AlignMode::Global && j > 0 {
            H_E | E_EXT
        } else {
            H_STOP
        };
    }

    let mut cells = 0u64;
    for i in 1..=n {
        let (kmin, kmax) = row_range(i);
        let tb_row = &mut tb[i * width..(i + 1) * width];
        // When the band reaches column 0, that cell is the leading
        // insertion boundary and the computed cells start one to its right.
        let (kstart, mut h_left) = if base(i) <= 0 {
            let h = -scoring.gap_cost(i as u32);
            h_cur[kmin] = h;
            tb_row[kmin] = H_F | F_EXT;
            (kmin + 1, h)
        } else {
            (kmin, NEG_INF)
        };
        let len = kmax + 1 - kstart;
        let j0 = (base(i) + kstart as i64) as usize;
        // Substitution score of this row's query base against each code.
        let qi = qcodes[i - 1];
        let sub = [0u8, 1, 2, 3].map(|c| scoring.substitution(qi, c));

        let targets = &tcodes[j0 - 1..j0 - 1 + len];
        let diag = &h_prev[kstart..kstart + len];
        let h_up = &h_prev[kstart + 1..kstart + 1 + len];
        let f_up = &f_prev[kstart + 1..kstart + 1 + len];
        let h_out = &mut h_cur[kstart..kstart + len];
        let f_out = &mut f_cur[kstart..kstart + len];
        let tb_out = &mut tb_row[kstart..kstart + len];
        let mut e_row = NEG_INF;
        for x in 0..len {
            let mut flags = 0u8;

            let e_open = h_left - open;
            let e_extend = e_row - ext;
            e_row = if e_extend > e_open {
                flags |= E_EXT;
                e_extend
            } else {
                e_open
            };

            let f_open = h_up[x] - open;
            let f_extend = f_up[x] - ext;
            let f = if f_extend > f_open {
                flags |= F_EXT;
                f_extend
            } else {
                f_open
            };

            let (mut h, mut choice) = (diag[x] + sub[(targets[x] & 3) as usize], H_DIAG);
            if e_row > h {
                h = e_row;
                choice = H_E;
            }
            if f > h {
                h = f;
                choice = H_F;
            }
            h_out[x] = h;
            f_out[x] = f;
            tb_out[x] = flags | choice;
            h_left = h;
        }
        cells += len as u64;
        std::mem::swap(h_prev, h_cur);
        std::mem::swap(f_prev, f_cur);
    }

    let (score, end_j) = match mode {
        AlignMode::Global => (h_prev[(m as i64 - base(n)) as usize], m),
        _ => {
            let (kmin, kmax) = row_range(n);
            let (mut bk, mut bs) = (kmin, NEG_INF);
            for (k, &h) in h_prev.iter().enumerate().take(kmax + 1).skip(kmin) {
                if h > bs {
                    bs = h;
                    bk = k;
                }
            }
            (bs, (base(n) + bk as i64) as usize)
        }
    };
    let (query_start, target_start) =
        traceback(tb, width, lo_shift, qcodes, tcodes, end_j, rev_cigar);
    // A CIGAR too long for inline runs reuses storage a caller recycled.
    let mut cigar = if rev_cigar.runs().len() > Cigar::INLINE_RUNS {
        spare_cigars.pop().unwrap_or_default()
    } else {
        Cigar::new()
    };
    cigar.clear();
    for &(len, op) in rev_cigar.runs().iter().rev() {
        cigar.push(op, len);
    }
    Alignment {
        score,
        cigar,
        query_start,
        query_end: n,
        target_start,
        target_end: end_j,
        cells,
    }
}

/// The column-indexed banded kernel that [`banded_align`] replaced, kept as
/// its differential oracle: rows are indexed by target column `j` and every
/// cell tests whether its up, diagonal and left neighbours lie inside the
/// band. Same result as [`banded_align`], field for field; only slower.
///
/// # Panics
///
/// As [`banded_align`].
pub fn banded_align_reference(
    query: &DnaSeq,
    target: &DnaSeq,
    scoring: &Scoring,
    band: usize,
    mode: AlignMode,
) -> Alignment {
    check_args(query, target, band, mode);
    let n = query.len();
    let m = target.len();
    let open = scoring.gap_open + scoring.gap_ext;
    let ext = scoring.gap_ext;

    // Allowed shift (j - i) range: the natural corridor plus the band.
    let (lo_shift, width) = corridor(n, m, band);
    let hi_shift = lo_shift + width as i64 - 1;

    let jmin = |i: usize| -> usize { (i as i64 + lo_shift).max(0) as usize };
    let jmax = |i: usize| -> usize { ((i as i64 + hi_shift) as usize).min(m) };

    let mut scratch = AlignScratch::new();
    let AlignScratch {
        tb,
        h_prev,
        h_cur,
        f_col,
        qcodes,
        tcodes,
        ..
    } = &mut scratch;
    tb.clear();
    tb.resize((n + 1) * width, H_STOP);
    let tb_idx = |i: usize, j: usize| -> usize {
        let off = j as i64 - (i as i64 + lo_shift);
        debug_assert!((0..width as i64).contains(&off), "traceback outside band");
        i * width + off as usize
    };

    h_prev.clear();
    h_prev.resize(m + 2, NEG_INF);
    h_cur.clear();
    h_cur.resize(m + 2, NEG_INF);
    f_col.clear();
    f_col.resize(m + 2, NEG_INF);

    // Row 0.
    for j in jmin(0)..=jmax(0) {
        h_prev[j] = match mode {
            AlignMode::Global => -scoring.gap_cost(j as u32),
            _ => 0,
        };
        tb[tb_idx(0, j)] = if mode == AlignMode::Global && j > 0 {
            H_E | E_EXT
        } else {
            H_STOP
        };
    }

    query.codes_into(0..n, qcodes);
    target.codes_into(0..m, tcodes);
    let mut cells = 0u64;

    for i in 1..=n {
        let (lo, hi) = (jmin(i), jmax(i));
        let mut e_row = NEG_INF;
        if lo == 0 {
            h_cur[0] = -scoring.gap_cost(i as u32);
            tb[tb_idx(i, 0)] = H_F | F_EXT;
        }
        let qi = qcodes[i - 1];
        let start = lo.max(1);
        for j in start..=hi {
            cells += 1;
            let mut flags = 0u8;

            let h_left = if j > lo { h_cur[j - 1] } else { NEG_INF };
            let e_open = h_left.saturating_add(-open);
            let e_extend = e_row - ext;
            e_row = if e_extend > e_open {
                flags |= E_EXT;
                e_extend
            } else {
                e_open
            };

            // h_prev[j] / f_col[j] are valid only if j was inside row i-1's band.
            let in_prev = j >= jmin(i - 1) && j <= jmax(i - 1);
            let h_up = if in_prev { h_prev[j] } else { NEG_INF };
            let f_up = if in_prev { f_col[j] } else { NEG_INF };
            let f_open = h_up.saturating_add(-open);
            let f_extend = f_up - ext;
            f_col[j] = if f_extend > f_open {
                flags |= F_EXT;
                f_extend
            } else {
                f_open
            };

            let in_prev_diag = j > jmin(i - 1) && j - 1 <= jmax(i - 1);
            let h_diag = if in_prev_diag { h_prev[j - 1] } else { NEG_INF };
            let diag = h_diag.saturating_add(scoring.substitution(qi, tcodes[j - 1]));

            let (mut h, mut choice) = (diag, H_DIAG);
            if e_row > h {
                h = e_row;
                choice = H_E;
            }
            if f_col[j] > h {
                h = f_col[j];
                choice = H_F;
            }
            h_cur[j] = h;
            tb[tb_idx(i, j)] = flags | choice;
        }
        // Invalidate cells just outside the band so the next row cannot read
        // stale values.
        if hi < m + 1 {
            h_cur[hi + 1] = NEG_INF;
            f_col[hi + 1] = NEG_INF;
        }
        if start > 0 {
            h_cur[start - 1] = if start > lo {
                h_cur[start - 1]
            } else {
                NEG_INF
            };
        }
        std::mem::swap(h_prev, h_cur);
    }

    let (score, end_j) = match mode {
        AlignMode::Global => (h_prev[m], m),
        _ => {
            let (mut bj, mut bs) = (jmin(n), NEG_INF);
            #[allow(clippy::needless_range_loop)] // j indexes two arrays in lockstep
            for j in jmin(n)..=jmax(n) {
                if h_prev[j] > bs {
                    bs = h_prev[j];
                    bj = j;
                }
            }
            (bs, bj)
        }
    };
    let mut rev = Cigar::new();
    let (query_start, target_start) =
        traceback(tb, width, lo_shift, qcodes, tcodes, end_j, &mut rev);
    Alignment {
        score,
        cigar: rev.reversed(),
        query_start,
        query_end: n,
        target_start,
        target_end: end_j,
        cells,
    }
}

fn check_args(query: &DnaSeq, target: &DnaSeq, band: usize, mode: AlignMode) {
    assert!(
        !query.is_empty() && !target.is_empty(),
        "cannot align empty sequences"
    );
    assert!(band > 0, "band must be positive");
    assert!(
        mode != AlignMode::Local,
        "banded alignment supports Global and Fit modes"
    );
}

/// The lowest allowed shift `j − i` (the natural corridor of an `n × m`
/// problem widened by `band` on each side) and the number of shifts.
fn corridor(n: usize, m: usize, band: usize) -> (i64, usize) {
    let lo_shift = (m as i64 - n as i64).min(0) - band as i64;
    let hi_shift = (m as i64 - n as i64).max(0) + band as i64;
    (lo_shift, (hi_shift - lo_shift + 1) as usize)
}

/// Traces back from `(n, end_j)` through the band-offset traceback matrix
/// `tb` (row `i`, column `j` at `i * width + j − (i + lo_shift)`), writes
/// the path end to start into `rev` and returns where it starts as
/// `(query_start, target_start)`.
fn traceback(
    tb: &[u8],
    width: usize,
    lo_shift: i64,
    qcodes: &[u8],
    tcodes: &[u8],
    end_j: usize,
    rev: &mut Cigar,
) -> (usize, usize) {
    rev.clear();
    let n = qcodes.len();
    let tb_idx = |i: usize, j: usize| -> usize {
        let off = j as i64 - (i as i64 + lo_shift);
        debug_assert!((0..width as i64).contains(&off), "traceback outside band");
        i * width + off as usize
    };

    #[derive(PartialEq)]
    enum State {
        H,
        E,
        F,
    }
    let (mut i, mut j) = (n, end_j);
    let mut state = State::H;
    loop {
        match state {
            State::H => match tb[tb_idx(i, j)] & 3 {
                H_DIAG => {
                    let op = if qcodes[i - 1] == tcodes[j - 1] {
                        CigarOp::Equal
                    } else {
                        CigarOp::Diff
                    };
                    rev.push(op, 1);
                    i -= 1;
                    j -= 1;
                }
                H_E => state = State::E,
                H_F => state = State::F,
                _ => break,
            },
            State::E => {
                let extended = tb[tb_idx(i, j)] & E_EXT != 0;
                rev.push(CigarOp::Del, 1);
                j -= 1;
                if !extended {
                    state = State::H;
                }
                if j == 0 && state == State::E {
                    break;
                }
            }
            State::F => {
                let extended = tb[tb_idx(i, j)] & F_EXT != 0;
                rev.push(CigarOp::Ins, 1);
                i -= 1;
                if !extended {
                    state = State::H;
                }
                if i == 0 && state == State::F {
                    break;
                }
            }
        }
        if i == 0 && j == 0 {
            break;
        }
        if i == 0 && matches!(state, State::H) && tb[tb_idx(0, j)] & 3 == H_STOP {
            break;
        }
    }

    (i, j)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::align;

    fn seq(s: &str) -> DnaSeq {
        DnaSeq::from_ascii(s.as_bytes()).unwrap()
    }

    #[test]
    fn matches_full_dp_on_fit() {
        let q = seq("ACGTACGTACGTTACG");
        let t = seq("GGACGTACGTTACGTTACGGG");
        let s = Scoring::short_read();
        let full = align(&q, &t, &s, AlignMode::Fit);
        let band = banded_align(&q, &t, &s, 8, AlignMode::Fit);
        assert_eq!(full.score, band.score);
        assert_eq!(full.cigar.query_len(), band.cigar.query_len());
    }

    #[test]
    fn matches_full_dp_on_global() {
        let q = seq("ACGTACGGGTACGTTACG");
        let t = seq("ACGTACGTACGTTACG");
        let s = Scoring::short_read();
        let full = align(&q, &t, &s, AlignMode::Global);
        let band = banded_align(&q, &t, &s, 8, AlignMode::Global);
        assert_eq!(full.score, band.score);
    }

    #[test]
    fn computes_fewer_cells() {
        let q = seq(&"ACGT".repeat(50));
        let t = seq(&"ACGT".repeat(60));
        let s = Scoring::short_read();
        let full = align(&q, &t, &s, AlignMode::Fit);
        let band = banded_align(&q, &t, &s, 5, AlignMode::Fit);
        assert!(
            band.cells < full.cells / 2,
            "band {} full {}",
            band.cells,
            full.cells
        );
    }

    #[test]
    fn reused_scratch_matches_fresh_scratch() {
        // One scratch driven across differently-shaped problems (growing,
        // shrinking, global and fit) must reproduce the fresh-allocation
        // result bit for bit — this is the property that lets a mapping
        // session keep a single workspace alive across pairs.
        let s = Scoring::short_read();
        let mut scratch = AlignScratch::new();
        let cases = [
            ("ACGTACGTACGTTACG", "GGACGTACGTTACGTTACGGG", AlignMode::Fit),
            (
                "ACGGTTACGGTAGACCAACGGTTAC",
                "ACGGTTACGGTATTTGACCAACGGTTAC",
                AlignMode::Global,
            ),
            ("ACGT", "TACGTT", AlignMode::Fit),
            ("ACGTACGGGTACGTTACG", "ACGTACGTACGTTACG", AlignMode::Global),
        ];
        for (q, t, mode) in cases {
            let (q, t) = (seq(q), seq(t));
            let fresh = banded_align(&q, &t, &s, 8, mode);
            let reused = banded_align_with(&q, &t, &s, 8, mode, &mut scratch);
            assert_eq!(fresh.score, reused.score);
            assert_eq!(fresh.cigar, reused.cigar);
            assert_eq!(fresh.target_start, reused.target_start);
            assert_eq!(fresh.cells, reused.cells);
            let full_fresh = align(&q, &t, &s, mode);
            let full_reused = crate::align_with(&q, &t, &s, mode, &mut scratch);
            assert_eq!(full_fresh.score, full_reused.score);
            assert_eq!(full_fresh.cigar, full_reused.cigar);
        }
    }

    #[test]
    fn band_wide_enough_recovers_indel() {
        let q = seq("ACGGTTACGGTAGACCAACGGTTAC");
        // insert 3 bases in target mid-way
        let t = seq("ACGGTTACGGTATTTGACCAACGGTTAC");
        let s = Scoring::short_read();
        let full = align(&q, &t, &s, AlignMode::Global);
        let band = banded_align(&q, &t, &s, 6, AlignMode::Global);
        assert_eq!(full.score, band.score);
        assert_eq!(full.cigar.to_string(), band.cigar.to_string());
    }
}
