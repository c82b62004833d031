//! Bad fixture: order-sensitive reductions. Float addition is not
//! associative, so `sum`, `product` and `fold` are banned outright; a site
//! whose order is fixed says so in an `#[expect]` reason.

pub fn mean(vals: &[f64]) -> f64 {
    vals.iter().sum::<f64>() / vals.len() as f64 //~ clippy::disallowed_methods
}

pub fn product(vals: &[f32]) -> f32 {
    vals.iter().product::<f32>() //~ clippy::disallowed_methods
}

pub fn folded(vals: &[f64]) -> f64 {
    vals.iter().fold(0.0, |acc, v| acc + v) //~ clippy::disallowed_methods
}

pub fn log_mean(vals: &[f64]) -> f64 {
    let log_sum: f64 = vals.iter().map(|v| v.ln()).sum(); //~ clippy::disallowed_methods
    log_sum / vals.len() as f64
}
