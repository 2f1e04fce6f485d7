//! `-ln(x)` over a batch of [`BATCH`] values, bit for bit what the C
//! library's `log` returns: the unit exponentials of
//! [`crate::rng::ExpStream`].
//!
//! ## Why the bits are libm's
//!
//! Every exponential draw in the workspace is `-(1.0 - u).ln() / rate`, and
//! `f64::ln` calls the C library's `log`. On x86-64 glibc (2.28 on), `log`
//! is an ifunc whose resolver returns the body compiled with FMA when the
//! CPU has FMA and AVX2 (`__log_fma`). [`neg_ln_batch`] runs on exactly
//! those hosts (Linux, GNU libc, x86-64, with both features detected at
//! run time) and repeats that body's IEEE operations, with the same fused
//! multiply-adds, on four lanes at a time, so each lane returns the bits
//! the scalar call returns. Everywhere else it runs `*x = -x.ln()`, the
//! scalar loop it replaces, so those hosts keep libm's bits by
//! construction. Nothing else chooses the path: no environment variable,
//! feature flag or configuration field.
//!
//! ## Provenance
//!
//! The algorithm is `log.c` of Arm's optimized-routines (MIT OR Apache-2.0
//! WITH LLVM-exception), which glibc ships as its `log`: a 128-entry table
//! of `(1/c, ln c)` over subintervals of `[0x1.6p-1, 0x1.6p0)`, a degree-6
//! polynomial in `r = z/c - 1`, and a degree-12 polynomial for inputs
//! within `[1 - 2^-4, 1 + 0x1.09p-4)`. The constants below are glibc
//! 2.36's `__log_data` (Debian 12's `libm.so.6`), read from the library:
//! the `log` ifunc resolver returns the FMA body, whose `lea` points at
//! the table. The 2,192 bytes (`ln2hi`, `ln2lo`, `poly[5]`, `poly1[11]`,
//! then 128 `(invc, logc)` pairs) have sha256
//! `d8f77f04619b10fe29031a98a0596af699fd6329c5253affc554092a17cf1bd8`.
//! The fused operations were read off the same body's disassembly.
//!
//! ## Domain
//!
//! [`crate::rng::ExpStream`] passes only `x = 1.0 - u` with `u` a 53-bit
//! uniform, so `2^-53 ≤ x ≤ 1`: positive and normal, which keeps every
//! input off glibc's special cases (zero, subnormal, negative, infinite,
//! NaN). The kernel is tested on that domain only.
//!
//! This file holds the only `unsafe` in `crates/`: the workspace denies
//! `unsafe_code`, and `lib.rs` allows it on this module alone.  It is the
//! call into the kernel after run-time CPU detection, and in the kernel
//! the four-lane loads and stores of the batch and the table gathers, each
//! with a `// SAFETY:` comment.

/// Values per batch: one `ChaCha8Rng` refill is 64 words, so 32 `f64`
/// uniforms.
pub(crate) const BATCH: usize = 32;

/// Replace each `x` of the batch with `-x.ln()`, bit for bit. Every `x`
/// must lie in `[2^-53, 1]` (see the module docs).
pub(crate) fn neg_ln_batch(xs: &mut [f64; BATCH]) {
    #[cfg(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu"))]
    if kernel_runs() {
        // SAFETY: the kernel requires AVX2 and FMA, and `kernel_runs` has
        // just detected both on the running CPU.
        unsafe { avx2_fma::neg_ln_batch(xs) };
        return;
    }
    for x in xs.iter_mut() {
        *x = -x.ln();
    }
}

/// Whether [`neg_ln_batch`] runs the AVX2+FMA kernel on this host.
#[cfg_attr(
    not(any(
        test,
        all(target_arch = "x86_64", target_os = "linux", target_env = "gnu")
    )),
    allow(dead_code)
)]
fn kernel_runs() -> bool {
    #[cfg(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu"))]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu")))]
    {
        false
    }
}

#[cfg(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu"))]
mod avx2_fma {
    use super::BATCH;
    use std::arch::x86_64::{
        __m256d, __m256i, _mm256_add_pd, _mm256_and_si256, _mm256_blendv_pd, _mm256_castpd_si256,
        _mm256_castsi256_pd, _mm256_castsi256_si128, _mm256_cmpeq_epi64, _mm256_cmpgt_epi64,
        _mm256_cvtepi32_pd, _mm256_fmadd_pd, _mm256_fnmadd_pd, _mm256_i64gather_pd,
        _mm256_loadu_pd, _mm256_movemask_pd, _mm256_mul_pd, _mm256_permutevar8x32_epi32,
        _mm256_set1_epi64x, _mm256_set1_pd, _mm256_setr_epi32, _mm256_setzero_pd,
        _mm256_slli_epi64, _mm256_srai_epi32, _mm256_srli_epi64, _mm256_storeu_pd,
        _mm256_sub_epi64, _mm256_sub_pd, _mm256_xor_pd, _mm256_xor_si256,
    };

    /// [`super::neg_ln_batch`] four lanes at a time.
    #[target_feature(enable = "avx2,fma")]
    pub(super) fn neg_ln_batch(xs: &mut [f64; BATCH]) {
        for lanes in xs.chunks_exact_mut(4) {
            // SAFETY: `lanes` is four in-bounds `f64`s, exactly the 32
            // bytes the load reads and the store writes, and neither
            // intrinsic has an alignment requirement.
            unsafe {
                _mm256_storeu_pd(lanes.as_mut_ptr(), neg_ln4(_mm256_loadu_pd(lanes.as_ptr())))
            };
        }
    }

    #[inline]
    #[target_feature(enable = "avx2,fma")]
    fn splat(bits: u64) -> __m256d {
        _mm256_set1_pd(f64::from_bits(bits))
    }

    #[inline]
    #[target_feature(enable = "avx2,fma")]
    fn splat_i(bits: u64) -> __m256i {
        _mm256_set1_epi64x(bits as i64)
    }

    /// `a * b + c`, rounded once.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    fn fma(a: __m256d, b: __m256d, c: __m256d) -> __m256d {
        _mm256_fmadd_pd(a, b, c)
    }

    /// `-ln(x)` per lane: glibc's main path everywhere, then its near-1
    /// path blended in where a lane takes it, then the exact negation.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    fn neg_ln4(x: __m256d) -> __m256d {
        let ix = _mm256_castpd_si256(x);
        let mut y = ln_main(ix);
        // `asuint64(x) - NEAR_LO < NEAR_SPAN` unsigned: a signed compare
        // with both sign bits flipped.
        let sign = splat_i(1 << 63);
        let near = _mm256_castsi256_pd(_mm256_cmpgt_epi64(
            splat_i(NEAR_SPAN ^ (1 << 63)),
            _mm256_xor_si256(_mm256_sub_epi64(ix, splat_i(NEAR_LO)), sign),
        ));
        if _mm256_movemask_pd(near) != 0 {
            y = _mm256_blendv_pd(y, ln_near_one(x), near);
            // glibc returns `+0` for `x = 1` before any arithmetic.
            let one = _mm256_castsi256_pd(_mm256_cmpeq_epi64(ix, splat_i(ONE)));
            y = _mm256_blendv_pd(y, _mm256_setzero_pd(), one);
        }
        _mm256_xor_pd(y, _mm256_castsi256_pd(sign))
    }

    /// `ln(x)` on the table path, from `ix = asuint64(x)`.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    fn ln_main(ix: __m256i) -> __m256d {
        // x = 2^k z with z in [0x1.6p-1, 0x1.6p0); i is z's subinterval.
        let tmp = _mm256_sub_epi64(ix, splat_i(OFF));
        let i = _mm256_and_si256(_mm256_srli_epi64::<45>(tmp), splat_i(127));
        // k = tmp >> 52, arithmetic: the high half of each lane shifted by
        // 20, packed into four `i32`s and converted exactly.
        let k = _mm256_permutevar8x32_epi32(
            _mm256_srai_epi32::<20>(tmp),
            _mm256_setr_epi32(1, 3, 5, 7, 1, 3, 5, 7),
        );
        let kd = _mm256_cvtepi32_pd(_mm256_castsi256_si128(k));
        let z = _mm256_castsi256_pd(_mm256_sub_epi64(ix, _mm256_and_si256(tmp, splat_i(EXP))));
        let pair = _mm256_slli_epi64::<1>(i);
        let tab = TAB.as_ptr().cast::<f64>();
        // SAFETY: `i <= 127`, so the gathers read `f64`-sized elements
        // `2i <= 254` and `2i + 1 <= 255` of the 256 in `TAB`, whose `u64`
        // bit patterns every `f64` may take.
        let (invc, logc) = unsafe {
            (
                _mm256_i64gather_pd::<8>(tab, pair),
                _mm256_i64gather_pd::<8>(tab.wrapping_add(1), pair),
            )
        };
        let w = fma(kd, splat(LN2HI), logc);
        let r = fma(z, invc, _mm256_set1_pd(-1.0));
        let hi = _mm256_add_pd(w, r);
        let lo = fma(kd, splat(LN2LO), _mm256_add_pd(_mm256_sub_pd(w, hi), r));
        let r2 = _mm256_mul_pd(r, r);
        let a = |j: usize| splat(POLY[j]);
        let p = fma(fma(r, a(4), a(3)), r2, fma(r, a(2), a(1)));
        _mm256_add_pd(fma(_mm256_mul_pd(r, r2), p, fma(r2, a(0), lo)), hi)
    }

    /// `ln(x)` on the near-1 path: a polynomial in `r = x - 1`, whose
    /// quadratic term is split at `2^27` to keep it exact.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    fn ln_near_one(x: __m256d) -> __m256d {
        let b = |j: usize| splat(POLY1[j]);
        let r = _mm256_sub_pd(x, _mm256_set1_pd(1.0));
        let r2 = _mm256_mul_pd(r, r);
        let r3 = _mm256_mul_pd(r, r2);
        let q1 = fma(r2, b(3), fma(r, b(2), b(1)));
        let q2 = fma(r2, b(6), fma(r, b(5), b(4)));
        let q3 = fma(r3, b(10), fma(r2, b(9), fma(r, b(8), b(7))));
        let p = fma(fma(q3, r3, q2), r3, q1);
        let two27 = _mm256_set1_pd(134_217_728.0);
        let rhi = _mm256_fnmadd_pd(two27, r, fma(r, two27, r));
        let rlo = _mm256_sub_pd(r, rhi);
        let rhi2 = _mm256_mul_pd(rhi, rhi);
        let hi = fma(rhi2, b(0), r);
        let lo = fma(rhi2, b(0), _mm256_sub_pd(r, hi));
        let lo = fma(_mm256_mul_pd(b(0), rlo), _mm256_add_pd(r, rhi), lo);
        _mm256_add_pd(hi, fma(p, r3, lo))
    }

    /// `asuint64(0x1.6p-1)`: subtracting it centres the table's subintervals
    /// on 1 and leaves the exponent `k` in the top 12 bits.
    const OFF: u64 = 0x3fe6_0000_0000_0000;
    /// `asuint64(1.0 - 0x1p-4)`, the low end of the near-1 path.
    const NEAR_LO: u64 = 0x3fee_0000_0000_0000;
    /// `asuint64(1.0 + 0x1.09p-4) - NEAR_LO`: the near-1 path takes `x`
    /// when `asuint64(x) - NEAR_LO` is below this, unsigned.
    const NEAR_SPAN: u64 = 0x0003_0900_0000_0000;
    const ONE: u64 = 0x3ff0_0000_0000_0000;
    /// The exponent field and sign: `tmp & EXP` is `k << 52`.
    const EXP: u64 = 0xfff0_0000_0000_0000;

    const LN2HI: u64 = 0x3fe6_2e42_fefa_3800;
    const LN2LO: u64 = 0x3d2e_f357_93c7_6730;
    /// `A[0..5]`, the main path's polynomial after its leading `r`.
    const POLY: [u64; 5] = [
        0xbfe0_0000_0000_0001,
        0x3fd5_5555_5551_305b,
        0xbfcf_ffff_ffeb_4590,
        0x3fc9_99b3_24f1_0111,
        0xbfc5_5575_e506_c89f,
    ];
    /// `B[0..11]`, the near-1 path's polynomial after its leading `r`.
    const POLY1: [u64; 11] = [
        0xbfe0_0000_0000_0000,
        0x3fd5_5555_5555_5577,
        0xbfcf_ffff_ffff_fdcb,
        0x3fc9_9999_9995_dd0c,
        0xbfc5_5555_5567_45a7,
        0x3fc2_4924_a344_de30,
        0xbfbf_ffff_a442_3d65,
        0x3fbc_7184_282a_d6ca,
        0xbfb9_99eb_43b0_68ff,
        0x3fb7_8182_f7af_d085,
        0xbfb5_5213_75d1_45cd,
    ];
    /// `(1/c, ln c)` per subinterval, as bits.
    static TAB: [[u64; 2]; 128] = [
        [0x3ff7_34f0_c3e0_de9f, 0xbfd7_cc7f_79e6_9000],
        [0x3ff7_1378_6a2c_e91f, 0xbfd7_6fee_c20d_0000],
        [0x3ff6_f260_08fa_b5a0, 0xbfd7_13e3_1351_e000],
        [0x3ff6_d1a6_1f13_8c7d, 0xbfd6_b85b_3828_7800],
        [0x3ff6_b149_0bc5_b4d1, 0xbfd6_5d55_9080_7800],
        [0x3ff6_9147_332f_0cba, 0xbfd6_02d0_7618_0000],
        [0x3ff6_719f_1822_4223, 0xbfd5_a8ca_8690_9000],
        [0x3ff6_524f_99a5_1ed9, 0xbfd5_4f43_5603_5000],
        [0x3ff6_3356_aa8f_24c4, 0xbfd4_f637_c36b_4000],
        [0x3ff6_14b3_6b9d_dc14, 0xbfd4_9da7_fda8_5000],
        [0x3ff5_f664_52c6_5c4c, 0xbfd4_4592_3989_a800],
        [0x3ff5_d867_b591_2c4f, 0xbfd3_edf4_39b0_b800],
        [0x3ff5_babc_cb5b_90de, 0xbfd3_96ce_448f_7000],
        [0x3ff5_9d61_f2d9_1a78, 0xbfd3_401e_17bd_a000],
        [0x3ff5_8056_1246_5687, 0xbfd2_e9e2_ef46_8000],
        [0x3ff5_6397_cee7_6bd3, 0xbfd2_941b_3830_e000],
        [0x3ff5_4725_e2a7_7f93, 0xbfd2_3ec5_8cda_8800],
        [0x3ff5_2aff_4206_4583, 0xbfd1_e9e1_2927_9000],
        [0x3ff5_0f22_dbb2_bddf, 0xbfd1_956d_2b48_f800],
        [0x3ff4_f38f_4734_ded7, 0xbfd1_4167_9ab9_f800],
        [0x3ff4_d843_cfde_2840, 0xbfd0_edd0_94ef_9800],
        [0x3ff4_bd3e_c078_a3c8, 0xbfd0_9aa5_18db_1000],
        [0x3ff4_a27f_c3e0_258a, 0xbfd0_47e6_5263_b800],
        [0x3ff4_8805_24d4_8434, 0xbfcf_eb22_4586_f000],
        [0x3ff4_6dce_1b19_2d0b, 0xbfcf_474a_7517_b000],
        [0x3ff4_53d9_d339_1854, 0xbfce_a444_3d10_3000],
        [0x3ff4_3a27_44b4_845a, 0xbfce_020d_44e9_b000],
        [0x3ff4_20b5_4115_f8fb, 0xbfcd_60a2_2977_f000],
        [0x3ff4_0782_da3e_f4b1, 0xbfcc_c001_0495_9000],
        [0x3ff3_ee8f_5d57_fe8f, 0xbfcc_2029_5689_1000],
        [0x3ff3_d5d9_a00b_4ce9, 0xbfcb_8117_8d81_1000],
        [0x3ff3_bd60_c010_c12b, 0xbfca_e2c9_ccd3_d000],
        [0x3ff3_a524_2b75_dab8, 0xbfca_4540_2e12_9000],
        [0x3ff3_8d22_cd9f_d002, 0xbfc9_a877_681d_f000],
        [0x3ff3_755b_c584_7a1c, 0xbfc9_0c6d_6948_3000],
        [0x3ff3_5dce_49ad_36e2, 0xbfc8_7120_a645_c000],
        [0x3ff3_4679_984d_d440, 0xbfc7_d68f_b414_3000],
        [0x3ff3_2f5c_ceff_cb24, 0xbfc7_3cb8_3c62_7000],
        [0x3ff3_1877_75a1_0d49, 0xbfc6_a39a_9b37_6000],
        [0x3ff3_01c8_373e_3990, 0xbfc6_0b31_54b7_a000],
        [0x3ff2_eb4e_bb95_f841, 0xbfc5_737d_7624_3000],
        [0x3ff2_d50a_0219_a9d1, 0xbfc4_dc7b_8fc2_3000],
        [0x3ff2_bef9_a8b7_fd2a, 0xbfc4_462c_51d2_0000],
        [0x3ff2_a91c_7a0c_1bab, 0xbfc3_b08a_bc83_0000],
        [0x3ff2_9372_6014_b530, 0xbfc3_1b99_6b49_0000],
        [0x3ff2_7dfa_5757_a1f5, 0xbfc2_8754_90a4_4000],
        [0x3ff2_68b3_9b1d_3bbf, 0xbfc1_f3b9_f879_a000],
        [0x3ff2_539d_838f_f5bd, 0xbfc1_60c8_252c_a000],
        [0x3ff2_3eb7_aac9_083b, 0xbfc0_ce7f_57f7_2000],
        [0x3ff2_2a01_2ba9_40b6, 0xbfc0_3cdc_49fe_a000],
        [0x3ff2_1579_96cc_4132, 0xbfbf_57bd_bc4b_8000],
        [0x3ff2_0120_1dd2_fc9b, 0xbfbe_3708_9640_4000],
        [0x3ff1_ecf4_494d_480b, 0xbfbd_1798_3ef9_4000],
        [0x3ff1_d8f5_528f_6569, 0xbfbb_f967_4ed8_a000],
        [0x3ff1_c523_1157_7e7c, 0xbfba_dc79_202f_6000],
        [0x3ff1_b17c_74cb_26e9, 0xbfb9_c0c3_e728_8000],
        [0x3ff1_9e01_0c2c_1ab6, 0xbfb8_a646_b372_c000],
        [0x3ff1_8ab0_7bb6_70bd, 0xbfb7_8d01_b3ac_0000],
        [0x3ff1_778a_25ef_bcb6, 0xbfb6_74f1_4538_0000],
        [0x3ff1_648d_354c_31da, 0xbfb5_5e0e_6d87_8000],
        [0x3ff1_51b9_9027_5fdd, 0xbfb4_485c_dea1_e000],
        [0x3ff1_3f0e_a432_d24c, 0xbfb3_33d9_4d6a_a000],
        [0x3ff1_2c8b_7210_f9da, 0xbfb2_2079_f8c5_6000],
        [0x3ff1_1a30_28ec_b531, 0xbfb1_0e46_9862_2000],
        [0x3ff1_07fb_da84_34af, 0xbfaf_fa6c_6ad2_0000],
        [0x3ff0_f5ee_0f4e_6bb3, 0xbfad_da8d_4a77_4000],
        [0x3ff0_e406_5d2a_9fce, 0xbfab_bcec_e485_0000],
        [0x3ff0_d244_632c_a521, 0xbfa9_a189_4012_c000],
        [0x3ff0_c0a7_7ce2_981a, 0xbfa7_8858_3302_c000],
        [0x3ff0_af2f_83c6_36d1, 0xbfa5_715e_67d6_8000],
        [0x3ff0_9ddb_98a0_1339, 0xbfa3_5c8a_4965_8000],
        [0x3ff0_8cab_af52_e7df, 0xbfa1_49e3_6415_4000],
        [0x3ff0_7b9f_2f4e_28fb, 0xbf9e_72c0_82eb_8000],
        [0x3ff0_6ab5_8c35_8f19, 0xbf9a_55f1_5252_8000],
        [0x3ff0_59ee_a5ec_f92c, 0xbf96_3d62_cf81_8000],
        [0x3ff0_4949_cdd1_2c90, 0xbf92_28fb_8caa_0000],
        [0x3ff0_38c6_c6f0_ada9, 0xbf8c_317b_20f9_0000],
        [0x3ff0_2865_1379_32a9, 0xbf84_1935_5daa_0000],
        [0x3ff0_1824_27ea_7348, 0xbf78_1203_c2ec_0000],
        [0x3ff0_0804_0614_b195, 0xbf60_0409_7924_0000],
        [0x3fef_e01f_f726_fa1a, 0x3f6f_eff3_8490_0000],
        [0x3fef_a11c_c261_ea74, 0x3f87_dc41_353d_0000],
        [0x3fef_6310_b081_992e, 0x3f93_cea3_c4c2_8000],
        [0x3fef_25f6_3cee_adcd, 0x3f9b_9fc1_1489_0000],
        [0x3fee_e9c8_0391_13e7, 0x3fa1_b0d8_ce11_0000],
        [0x3fee_ae80_78cb_b1ab, 0x3fa5_8a5b_d001_c000],
        [0x3fee_741a_a29d_0c9b, 0x3fa9_5c83_40d8_8000],
        [0x3fee_3a91_830a_99b5, 0x3fad_276a_ef57_8000],
        [0x3fee_01e0_0960_9a56, 0x3fb0_7598_e598_c000],
        [0x3fed_ca01_e577_bb98, 0x3fb2_53f5_e30d_2000],
        [0x3fed_92f2_0b7c_9103, 0x3fb4_2edd_8b38_0000],
        [0x3fed_5cac_66fb_5cce, 0x3fb6_0659_8757_c000],
        [0x3fed_272c_aa5e_de9d, 0x3fb7_da76_356a_0000],
        [0x3fec_f26e_3e6b_2ccd, 0x3fb9_ab43_4e1c_6000],
        [0x3fec_be6d_a2a7_7902, 0x3fbb_78c7_bb0d_6000],
        [0x3fec_8b26_6d37_086d, 0x3fbd_4313_32e7_2000],
        [0x3fec_5894_bd5d_5804, 0x3fbf_0a31_71de_6000],
        [0x3fec_26b5_33bb_9f8c, 0x3fc0_6715_2b91_4000],
        [0x3feb_f583_eeec_e73f, 0x3fc1_4785_8292_b000],
        [0x3feb_c4fd_75db_96c1, 0x3fc2_266e_cdca_3000],
        [0x3feb_951e_0c86_4a28, 0x3fc3_03d7_a6c5_5000],
        [0x3feb_65e2_c5ef_3e2c, 0x3fc3_dfc3_3c33_1000],
        [0x3feb_3748_67c9_888b, 0x3fc4_ba36_6b7a_8000],
        [0x3feb_094b_211d_304a, 0x3fc5_9339_28d1_f000],
        [0x3fea_dbe8_85f2_ef7e, 0x3fc6_6acd_2418_f000],
        [0x3fea_af1d_3160_3da2, 0x3fc7_40f8_ec66_9000],
        [0x3fea_82e6_3fd3_58a7, 0x3fc8_15c0_f51a_f000],
        [0x3fea_5740_ef09_738b, 0x3fc8_e929_54f6_8000],
        [0x3fea_2c2a_90ab_4b27, 0x3fc9_bb36_02f8_4000],
        [0x3fea_01a0_1393_f2d1, 0x3fca_8bed_1c2c_0000],
        [0x3fe9_d79f_24db_3c1b, 0x3fcb_5b51_5c01_d000],
        [0x3fe9_ae25_05c7_b190, 0x3fcc_2967_ccbc_c000],
        [0x3fe9_852e_f297_ce2f, 0x3fcc_f635_d548_6000],
        [0x3fe9_5cba_eea4_4b75, 0x3fcd_c1bd_3446_c000],
        [0x3fe9_34c6_9de7_4838, 0x3fce_8c01_b8cf_e000],
        [0x3fe9_0d4f_2f67_52e6, 0x3fcf_5509_c017_9000],
        [0x3fe8_e652_8eff_d79d, 0x3fd0_0e6c_121f_b800],
        [0x3fe8_bfce_9fcc_007c, 0x3fd0_71b8_0e93_d000],
        [0x3fe8_99c0_dabe_c30e, 0x3fd0_d46b_9e86_7000],
        [0x3fe8_7427_aa23_17fb, 0x3fd1_3687_334b_d000],
        [0x3fe8_4f00_acb3_9a08, 0x3fd1_980d_6723_4800],
        [0x3fe8_2a49_e865_3e55, 0x3fd1_f8ff_e0cc_8000],
        [0x3fe8_0601_95f4_0260, 0x3fd2_595f_d763_6800],
        [0x3fe7_e225_63e0_a329, 0x3fd2_b930_0914_a800],
        [0x3fe7_beb3_77dc_b5ad, 0x3fd3_1872_1043_6000],
        [0x3fe7_9baa_6797_25c2, 0x3fd3_7726_6dec_1800],
        [0x3fe7_7907_f217_0657, 0x3fd3_d54f_fbaf_3000],
        [0x3fe7_56ca_dbd6_130c, 0x3fd4_32ee_e32f_e000],
    ];
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// Runs `xs` through [`neg_ln_batch`] a batch at a time and compares
    /// each result's bits with `-x.ln()`'s. Panics naming the first few
    /// mismatches; returns how many values it compared.
    fn assert_matches_libm(xs: impl IntoIterator<Item = f64>) -> usize {
        // CI greps for this line: on the fallback these tests compare
        // `ln` with itself.
        let path = if kernel_runs() {
            "avx2+fma"
        } else {
            "fallback"
        };
        println!("neg_ln_batch path: {path}");
        let mut xs = xs.into_iter().peekable();
        let (mut compared, mut mismatched, mut first) = (0, 0, Vec::new());
        while xs.peek().is_some() {
            let mut batch = [1.0; BATCH];
            let mut n = 0;
            for (slot, x) in batch.iter_mut().zip(&mut xs) {
                *slot = x;
                n += 1;
            }
            let inputs = batch;
            neg_ln_batch(&mut batch);
            for (&x, &y) in inputs[..n].iter().zip(&batch) {
                let want = -x.ln();
                if y.to_bits() != want.to_bits() {
                    mismatched += 1;
                    if first.len() < 5 {
                        first.push(format!("x = {x:e}: {y:e} != {want:e}"));
                    }
                }
            }
            compared += n;
        }
        assert_eq!(mismatched, 0, "of {compared} values: {first:?}");
        compared
    }

    /// The near-1 path, densely: every `x = 1 - k 2^-53` with `k < 2^24`,
    /// where `x = 1` gives `-0.0`.
    #[test]
    fn every_grid_point_below_one_matches_libm() {
        let n = assert_matches_libm((0..1u64 << 24).map(|k| 1.0 - k as f64 * f64::EPSILON / 2.0));
        assert_eq!(n, 1 << 24);
        let mut batch = [1.0; BATCH];
        neg_ln_batch(&mut batch);
        assert_eq!(batch[0].to_bits(), (-0.0f64).to_bits());
    }

    /// Both ends of each of the 128 table subintervals, ±2 ulps, in every
    /// binade of the domain `[2^-53, 1]`, the near-1 path's edge included.
    #[test]
    fn table_subinterval_edges_match_libm_in_every_binade() {
        let lo = 2f64.powi(-53);
        let xs = (-53..=0).flat_map(|e: i32| {
            let base = 2f64.powi(e).to_bits();
            (0..128u64).flat_map(move |j| {
                (-2..=2i64).map(move |d| f64::from_bits((base + (j << 45)).wrapping_add_signed(d)))
            })
        });
        let n = assert_matches_libm(xs.filter(|&x| (lo..=1.0).contains(&x)));
        assert!(n > 53 * 128 * 5, "{n}");
    }

    /// The inputs `ExpStream` feeds the kernel: `1 - u` for ChaCha-drawn
    /// 53-bit uniforms `u`.
    #[test]
    fn ten_million_drawn_grid_points_match_libm() {
        let mut rng = ChaCha8Rng::seed_from_u64(0x004C_4F47);
        assert_matches_libm((0..10_000_000).map(|_| 1.0 - rng.gen::<f64>()));
    }
}
