//! Benchmark harness regenerating every table and figure of the CNTR paper.
//!
//! One binary per artifact:
//!
//! | target | regenerates |
//! |---|---|
//! | `fig2_phoronix` | Figure 2 — relative Phoronix overheads |
//! | `fig3_optimizations` | Figure 3 — per-optimization ablations |
//! | `fig4_multithreading` | Figure 4 — throughput vs worker threads |
//! | `fig5_docker_slim` | Figure 5 + §5.3 — Top-50 size reductions |
//! | `tab_xfstests` | §5.1 — the 90/94 xfstests table |
//!
//! The attach path's end-to-end benchmark, with per-layer attribution, is
//! `cntr_bench` under `src/bin/cntr_bench`, a package of its own.
