//! Appendix A.1: measured I/O of the tiled left-looking MGS (Fig. 8) vs
//! the ½M²N²/S model and the Theorem 5 lower bound, across S.
fn main() {
    let (m, n) = (96usize, 48usize);
    let s_values: Vec<usize> = vec![224, 320, 448, 640, 896, 1280, 1792];
    let rows = iolb_bench::sweep_tiled(&iolb_bench::TILED_MGS, m, n, &s_values);
    print!(
        "{}",
        iolb_bench::render_tiled_table("Appendix A.1 — tiled MGS I/O", m, n, &rows)
    );
}
