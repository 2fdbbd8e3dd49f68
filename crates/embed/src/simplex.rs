//! Nelder–Mead Simplex-Downhill minimiser.
//!
//! The paper embeds graphs by casting coordinate assignment "as a generic
//! multi-dimensional global minimization problem … approximately solved by
//! many off-the-shelf techniques, e.g., the Simplex Downhill algorithm that
//! we apply in this work" (§3.4.2). This is that algorithm, from scratch:
//! the standard reflection/expansion/contraction/shrink iteration over a
//! `(D+1)`-point simplex.

/// Tuning parameters for one minimisation run.
#[derive(Debug, Clone, Copy)]
pub struct SimplexOptions {
    /// Maximum iterations before giving up.
    pub max_iters: usize,
    /// Convergence threshold on the best-worst objective spread.
    pub tolerance: f64,
    /// Initial simplex edge length around the starting point.
    pub initial_step: f64,
}

impl Default for SimplexOptions {
    fn default() -> Self {
        Self {
            max_iters: 200,
            tolerance: 1e-6,
            initial_step: 1.0,
        }
    }
}

/// Result of a minimisation run.
#[derive(Debug, Clone)]
pub struct SimplexResult {
    /// The best point found.
    pub point: Vec<f64>,
    /// Objective value at that point.
    pub value: f64,
    /// Iterations actually performed.
    pub iterations: usize,
}

const ALPHA: f64 = 1.0; // reflection
const GAMMA: f64 = 2.0; // expansion
const RHO: f64 = 0.5; // contraction
const SIGMA: f64 = 0.5; // shrink

/// `out = centroid + t · (centroid − worst)`, coordinate by coordinate.
#[inline]
fn blend(centroid: &[f64], worst: &[f64], t: f64, out: &mut [f64]) {
    for ((o, c), w) in out.iter_mut().zip(centroid).zip(worst) {
        *o = c + t * (c - w);
    }
}

/// Minimises `f` starting from `x0`.
///
/// # Panics
///
/// Panics if `x0` is empty.
pub fn minimize<F: FnMut(&[f64]) -> f64>(
    mut f: F,
    x0: &[f64],
    options: &SimplexOptions,
) -> SimplexResult {
    let d = x0.len();
    assert!(d > 0, "cannot minimise over zero dimensions");

    // Build the initial simplex: x0 plus one step along each axis.
    let mut points: Vec<Vec<f64>> = Vec::with_capacity(d + 1);
    points.push(x0.to_vec());
    for i in 0..d {
        let mut p = x0.to_vec();
        p[i] += options.initial_step;
        points.push(p);
    }
    let mut values: Vec<f64> = points.iter().map(|p| f(p)).collect();

    // Reused every iteration: the ordering, the centroid and two trial
    // points; an accepted trial is swapped into the simplex, handing the
    // rejected point's buffer back.
    let mut idx: Vec<usize> = Vec::with_capacity(d + 1);
    let mut centroid = vec![0.0; d];
    let mut reflected = vec![0.0; d];
    let mut trial = vec![0.0; d];

    let mut iterations = 0usize;
    while iterations < options.max_iters {
        iterations += 1;

        // Order the simplex best → worst (a stable sort from index order).
        idx.clear();
        idx.extend(0..=d);
        idx.sort_by(|&a, &b| values[a].partial_cmp(&values[b]).expect("finite objective"));
        let best = idx[0];
        let worst = idx[d];
        let second_worst = idx[d - 1];

        if (values[worst] - values[best]).abs() < options.tolerance {
            break;
        }

        // Centroid of all but the worst point.
        centroid.fill(0.0);
        for &i in idx.iter().take(d) {
            for (c, x) in centroid.iter_mut().zip(&points[i]) {
                *c += x;
            }
        }
        for c in &mut centroid {
            *c /= d as f64;
        }

        // Reflection.
        blend(&centroid, &points[worst], ALPHA, &mut reflected);
        let fr = f(&reflected);
        if fr < values[best] {
            // Expansion.
            blend(&centroid, &points[worst], GAMMA, &mut trial);
            let fe = f(&trial);
            if fe < fr {
                std::mem::swap(&mut points[worst], &mut trial);
                values[worst] = fe;
            } else {
                std::mem::swap(&mut points[worst], &mut reflected);
                values[worst] = fr;
            }
            continue;
        }
        if fr < values[second_worst] {
            std::mem::swap(&mut points[worst], &mut reflected);
            values[worst] = fr;
            continue;
        }
        // Contraction (toward the centroid, away from the worst point).
        blend(&centroid, &points[worst], -RHO, &mut trial);
        let fc = f(&trial);
        if fc < values[worst] {
            std::mem::swap(&mut points[worst], &mut trial);
            values[worst] = fc;
            continue;
        }
        // Shrink everything toward the best point.
        trial.copy_from_slice(&points[best]);
        for i in 0..=d {
            if i == best {
                continue;
            }
            for (x, b) in points[i].iter_mut().zip(&trial) {
                *x = b + SIGMA * (*x - b);
            }
            values[i] = f(&points[i]);
        }
    }

    let (bi, bv) = values
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite objective"))
        .expect("non-empty simplex");
    SimplexResult {
        point: points[bi].clone(),
        value: *bv,
        iterations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimises_quadratic_bowl() {
        let r = minimize(
            |x| x.iter().map(|v| (v - 3.0) * (v - 3.0)).sum(),
            &[0.0, 0.0, 0.0],
            &SimplexOptions::default(),
        );
        for v in &r.point {
            assert!((v - 3.0).abs() < 0.01, "point {:?}", r.point);
        }
        assert!(r.value < 1e-3);
    }

    #[test]
    fn minimises_rosenbrock_2d() {
        let rosenbrock = |x: &[f64]| (1.0 - x[0]).powi(2) + 100.0 * (x[1] - x[0] * x[0]).powi(2);
        let r = minimize(
            rosenbrock,
            &[-1.2, 1.0],
            &SimplexOptions {
                max_iters: 2000,
                tolerance: 1e-12,
                initial_step: 0.5,
            },
        );
        assert!(r.value < 1e-4, "value {}", r.value);
        assert!((r.point[0] - 1.0).abs() < 0.05);
        assert!((r.point[1] - 1.0).abs() < 0.05);
    }

    #[test]
    fn respects_iteration_budget() {
        let mut calls = 0usize;
        let r = minimize(
            |x| {
                calls += 1;
                x[0] * x[0]
            },
            &[100.0],
            &SimplexOptions {
                max_iters: 5,
                tolerance: 0.0,
                initial_step: 1.0,
            },
        );
        assert!(r.iterations <= 5);
        assert!(calls < 40);
    }

    #[test]
    fn already_optimal_converges_fast() {
        let r = minimize(
            |x| x.iter().map(|v| v * v).sum(),
            &[0.0, 0.0],
            &SimplexOptions {
                initial_step: 1e-9,
                ..Default::default()
            },
        );
        assert!(r.iterations < 10, "iterations {}", r.iterations);
    }

    #[test]
    fn one_dimensional_works() {
        let r = minimize(
            |x| (x[0] + 7.0).abs(),
            &[0.0],
            &SimplexOptions {
                max_iters: 500,
                ..Default::default()
            },
        );
        assert!((r.point[0] + 7.0).abs() < 0.01, "point {:?}", r.point);
    }

    #[test]
    #[should_panic(expected = "zero dimensions")]
    fn rejects_empty_start() {
        let _ = minimize(|_| 0.0, &[], &SimplexOptions::default());
    }
}
