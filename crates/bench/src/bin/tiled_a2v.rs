//! Appendix A.2: measured I/O of the tiled A2V ordering (Fig. 9) vs the
//! ½(M²N²−MN³/3)/S model and the Theorem 6 lower bound, across S.
fn main() {
    let (m, n) = (96usize, 48usize);
    let s_values: Vec<usize> = vec![224, 320, 448, 640, 896, 1280, 1792];
    let rows = iolb_bench::sweep_tiled(&iolb_bench::TILED_A2V, m, n, &s_values);
    print!(
        "{}",
        iolb_bench::render_tiled_table("Appendix A.2 — tiled A2V I/O", m, n, &rows)
    );
}
