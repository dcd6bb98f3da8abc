//! Property-based tests for the tensor substrate.

use cpr_tensor::linalg::{dominant_triple, lstsq, Cholesky, Svd};
use cpr_tensor::{khatri_rao, CpDecomp, DenseTensor, Matrix, SparseTensor, TuckerDecomp};
use proptest::prelude::*;

fn small_matrix(max_dim: usize) -> impl Strategy<Value = Matrix> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-10.0..10.0f64, r * c)
            .prop_map(move |data| Matrix::from_vec(r, c, data))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn transpose_involution(m in small_matrix(8)) {
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn matmul_associative(
        a in small_matrix(5),
        bdata in proptest::collection::vec(-3.0..3.0f64, 25),
        cdata in proptest::collection::vec(-3.0..3.0f64, 25),
    ) {
        let k = a.cols();
        let b = Matrix::from_vec(k, 5, bdata[..k * 5].to_vec());
        let c = Matrix::from_vec(5, 4, cdata[..20].to_vec());
        let ab_c = a.matmul(&b).matmul(&c);
        let a_bc = a.matmul(&b.matmul(&c));
        let scale = ab_c.fro_norm().max(1.0);
        prop_assert!(ab_c.sub(&a_bc).fro_norm() <= 1e-10 * scale);
    }

    #[test]
    fn gram_is_symmetric_psd_diag(m in small_matrix(7)) {
        let g = m.gram();
        for i in 0..g.rows() {
            prop_assert!(g[(i, i)] >= -1e-12);
            for j in 0..g.cols() {
                prop_assert!((g[(i, j)] - g[(j, i)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn cholesky_solve_residual(
        base in small_matrix(6),
        rhs in proptest::collection::vec(-5.0..5.0f64, 6),
    ) {
        // Make an SPD matrix from any base: A = B Bᵀ + I.
        let n = base.rows();
        let mut a = base.matmul(&base.transpose());
        for i in 0..n {
            a[(i, i)] += 1.0;
        }
        let b = &rhs[..n];
        let x = Cholesky::new(&a).unwrap().solve(b);
        let ax = a.matvec(&x);
        let scale = b.iter().map(|v| v.abs()).fold(1.0_f64, f64::max);
        for i in 0..n {
            prop_assert!((ax[i] - b[i]).abs() < 1e-8 * scale);
        }
    }

    #[test]
    fn svd_reconstructs_and_orders(m in small_matrix(8)) {
        let svd = Svd::new(&m);
        let k = m.rows().min(m.cols());
        let recon = svd.truncated(k);
        prop_assert!(m.sub(&recon).fro_norm() <= 1e-8 * m.fro_norm().max(1.0));
        for w in svd.s.windows(2) {
            prop_assert!(w[0] >= w[1] - 1e-12);
        }
        // Frobenius norm identity: |A|² = Σ σ².
        let s_sq: f64 = svd.s.iter().map(|s| s * s).sum();
        prop_assert!((s_sq - m.fro_norm_sq()).abs() <= 1e-8 * m.fro_norm_sq().max(1.0));
    }

    #[test]
    fn power_iteration_bounded_by_fro(m in small_matrix(8)) {
        let t = dominant_triple(&m, 1e-10, 1000);
        prop_assert!(t.sigma <= m.fro_norm() + 1e-8);
        // sigma is the largest singular value: compare against Jacobi.
        let svd = Svd::new(&m);
        prop_assert!((t.sigma - svd.s[0]).abs() <= 1e-6 * svd.s[0].max(1e-12));
    }

    #[test]
    fn lstsq_residual_orthogonal_to_columns(
        m in small_matrix(6),
        rhs in proptest::collection::vec(-5.0..5.0f64, 6),
    ) {
        prop_assume!(m.rows() >= m.cols());
        let b = &rhs[..m.rows()];
        let x = lstsq(&m, b);
        let ax = m.matvec(&x);
        let resid: Vec<f64> = ax.iter().zip(b).map(|(a, b)| a - b).collect();
        // Normal equations: Aᵀ r ≈ 0.
        let at_r = m.matvec_t(&resid);
        let scale = m.fro_norm().max(1.0) * b.iter().map(|v| v.abs()).fold(1.0_f64, f64::max);
        for v in at_r {
            prop_assert!(v.abs() <= 1e-6 * scale, "normal-equation residual {v}");
        }
    }

    #[test]
    fn dense_unfold_norm_invariant(
        dims in proptest::collection::vec(1usize..5, 2..4),
        seed in 0u64..1000,
    ) {
        let len: usize = dims.iter().product();
        let data: Vec<f64> = (0..len).map(|i| ((i as u64 * 2654435761 + seed) % 1000) as f64 / 100.0).collect();
        let t = DenseTensor::from_vec(&dims, data);
        for (k, &dk) in dims.iter().enumerate() {
            let m = t.unfold(k);
            prop_assert!((m.fro_norm() - t.fro_norm()).abs() < 1e-10);
            prop_assert_eq!(m.rows(), dk);
        }
    }

    #[test]
    fn cp_eval_matches_dense(
        rank in 1usize..4,
        seed in 0u64..100,
    ) {
        let cp = CpDecomp::random(&[3, 4, 2], rank, -1.0, 1.0, seed);
        let dense = cp.to_dense();
        for (idx, v) in dense.iter_indexed() {
            prop_assert!((cp.eval(&idx) - v).abs() < 1e-12);
        }
    }

    #[test]
    fn cp_normalize_preserves_model(seed in 0u64..100) {
        let mut cp = CpDecomp::random(&[3, 3, 3], 2, 0.1, 2.0, seed);
        let before = cp.to_dense();
        let w = cp.normalize_columns();
        cp.absorb_weights(&w);
        let after = cp.to_dense();
        for (a, b) in before.as_slice().iter().zip(after.as_slice()) {
            prop_assert!((a - b).abs() < 1e-10 * a.abs().max(1.0));
        }
    }

    #[test]
    fn khatri_rao_shape_and_values(seed in 0u64..100) {
        let a = CpDecomp::random(&[3, 4], 2, -2.0, 2.0, seed);
        let (u, v) = (a.factor(0), a.factor(1));
        let k = khatri_rao(u, v);
        prop_assert_eq!(k.shape(), (12, 2));
        for i in 0..3 {
            for j in 0..4 {
                for r in 0..2 {
                    prop_assert!((k[(i * 4 + j, r)] - u[(i, r)] * v[(j, r)]).abs() < 1e-14);
                }
            }
        }
    }

    #[test]
    fn packed_cp_eval_bitwise_matches_naive(
        dims in proptest::collection::vec(1usize..7, 1..5),
        rank in 1usize..8,
        seed in 0u64..10_000,
    ) {
        let cp = CpDecomp::random(&dims, rank, -1.0, 1.0, seed);
        let packed = cp.packed();
        // Probe every corner plus a pseudo-random interior walk.
        let mut idx = vec![0usize; dims.len()];
        for probe in 0..32u64 {
            let mut h = seed.wrapping_add(probe).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            for (j, &dj) in dims.iter().enumerate() {
                idx[j] = (h % dj as u64) as usize;
                h = h.wrapping_mul(0x2545_f491_4f6c_dd1d).wrapping_add(1);
            }
            prop_assert_eq!(packed.eval_cp(&idx).to_bits(), cp.eval(&idx).to_bits());
        }
    }

    #[test]
    fn packed_tucker_eval_bitwise_matches_naive(
        dims in proptest::collection::vec(1usize..6, 1..4),
        seed in 0u64..10_000,
    ) {
        let ranks: Vec<usize> = dims.iter().map(|&d| d.min(3)).collect();
        let t = TuckerDecomp::random(&dims, &ranks, -1.0, 1.0, seed);
        let packed = t.packed();
        let mut idx = vec![0usize; dims.len()];
        for probe in 0..24u64 {
            let mut h = seed.wrapping_add(probe).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            for (j, &dj) in dims.iter().enumerate() {
                idx[j] = (h % dj as u64) as usize;
                h = h.wrapping_mul(0x2545_f491_4f6c_dd1d).wrapping_add(1);
            }
            prop_assert_eq!(t.eval_packed(&packed, &idx).to_bits(), t.eval(&idx).to_bits());
        }
    }

    #[test]
    fn sparse_roundtrip_preserves_entries(
        entries in proptest::collection::vec(((0usize..3, 0usize..4), -100.0..100.0f64), 1..20),
    ) {
        let mut s = SparseTensor::new(&[3, 4]);
        let mut last = std::collections::HashMap::new();
        for ((i, j), v) in &entries {
            s.push(&[*i, *j], *v);
            last.insert((*i, *j), *v);
        }
        prop_assert_eq!(s.nnz(), entries.len());
        // to_dense keeps the last write per coordinate.
        let d = s.to_dense();
        for ((i, j), v) in last {
            prop_assert_eq!(d.get(&[i, j]), v);
        }
    }

    /// The packed per-mode stream must agree with `ModeIndex` +
    /// `SparseTensor::index`/`value` row-for-row, slot-for-slot — on random
    /// tensors of random order, including tensors with empty rows (dims
    /// exceed the coordinate range) and a single observation.
    #[test]
    fn mode_stream_agrees_with_mode_index_rowwise(
        order in 1usize..=4,
        coords in proptest::collection::vec(
            (proptest::collection::vec(0u8..4, 4), -10.0..10.0f64), 1..30),
    ) {
        // Dims 5 per mode while coordinates stop at 3: rows 4 (and often
        // more) stay empty in every mode.
        let dims = vec![5usize; order];
        let mut s = SparseTensor::new(&dims);
        for (idx, v) in &coords {
            let idx: Vec<usize> = idx[..order].iter().map(|&c| c as usize).collect();
            s.push(&idx, *v);
        }
        for mode in 0..order {
            let mi = s.mode_index(mode);
            let st = s.mode_stream(mode);
            prop_assert_eq!(st.rows(), mi.rows());
            prop_assert_eq!(st.nnz(), mi.nnz());
            for i in 0..st.rows() {
                let rng = st.row_range(i);
                prop_assert_eq!(&st.entry_ids()[rng.clone()], mi.row(i));
                for slot in rng {
                    let e = st.entry_ids()[slot] as usize;
                    prop_assert_eq!(st.values()[slot].to_bits(), s.value(e).to_bits());
                    prop_assert_eq!(s.index(e)[mode] as usize, i);
                }
            }
        }
    }
}
