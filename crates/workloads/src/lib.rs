//! Dataset and query generators for the PIM-zd-tree evaluation.
//!
//! The paper evaluates on a uniform microbenchmark plus two real-world
//! datasets — COSMOS (astronomy, moderate skew) and OpenStreetMap North
//! America (road networks, extreme skew) — and characterizes them *only*
//! through their Gini coefficients over 2048 spatial bins (0.287 and 0.967,
//! ≈ Zipf γ = 0.455 / 1.5). We cannot redistribute those datasets, so this
//! crate provides synthetic generators calibrated to the same skew numbers
//! (see DESIGN.md, substitution 2); tests assert the Gini targets hold.
//!
//! Also here: the **Varden** distribution \[32\] (random-walk clusters, the
//! extreme-skew stressor of Fig. 9), query generators for every operation,
//! and the skew diagnostics of Definition 3.

pub mod gen;
pub mod queries;
pub mod skew;
pub mod trace;

pub use gen::{cosmos_like, osm_like, uniform, varden};
pub use queries::{
    box_queries, box_side_for_expected, hot_cell_queries, knn_queries, mixed_queries, point_queries,
};
pub use skew::{alpha_beta_skew, gini_coefficient, gini_over_bins, zipf_sample};
pub use trace::{open_loop_trace, Arrival, ArrivalTrace, ReqClass, ReqOp, RequestMix};
