//! Sequential reference implementations — the ground truth the machine
//! models are checked against.

/// Trapezoidal-rule integration of `f(x) = 4 / (1 + x²)`, matching
/// [`crate::id::trapezoid`] exactly (same summation order).
pub fn trapezoid(a: f64, b: f64, n: i64) -> f64 {
    let f = |x: f64| 4.0 / (1.0 + x * x);
    let h = (b - a) / n as f64;
    let mut s = (f(a) + f(b)) / 2.0;
    let mut x = a + h;
    for _ in 1..n {
        // Simultaneous rebinding: s uses the *old* x, as in Id.
        let (nx, ns) = (x + h, s + f(x));
        x = nx;
        s = ns;
    }
    s * h
}

/// Fibonacci.
pub fn fib(n: i64) -> i64 {
    let (mut a, mut b) = (0i64, 1i64);
    for _ in 0..n {
        let t = a + b;
        a = b;
        b = t;
    }
    a
}

/// `Σ i²` for `i ∈ 0..n` — the producer/consumer answer.
pub fn square_sum(n: i64) -> i64 {
    (0..n).map(|i| i * i).sum()
}

/// The checksum of [`crate::id::relaxation`]: with `a[i] = i`,
/// `b[i] = (a[i-1] + a[i+1]) / 2 = i` for the interior, summed.
pub fn relaxation_checksum(n: i64) -> i64 {
    (1..=n - 2).sum()
}

/// The checksum of [`crate::id::matmul`] with `A[i][j] = i + j`,
/// `B[i][j] = i - j`.
pub fn matmul_checksum(n: i64) -> i64 {
    let a = |i: i64, j: i64| i + j;
    let b = |i: i64, j: i64| i - j;
    let mut s = 0;
    for i in 0..n {
        for j in 0..n {
            for k in 0..n {
                s += a(i, k) * b(k, j);
            }
        }
    }
    s
}

/// The answer of [`crate::id::unroll8`]: `n + Σ i²` for `i ∈ 1..=8`,
/// i.e. `n + 204`.
pub fn unroll8(n: i64) -> i64 {
    n + (1..=8).map(|i| i * i).sum::<i64>()
}

/// The response checksum of [`crate::id::request_dag`]: `fanout`
/// branches each iterate `x = 3x + 1` `depth` times from `r + i`, then
/// join by summation.
pub fn request_dag(fanout: u32, depth: u32, r: i64) -> i64 {
    (0..fanout as i64)
        .map(|i| (0..depth).fold(r + i, |x, _| x * 3 + 1))
        .sum()
}

/// The wavefront recurrence's corner value: `w[i][j] = w[i-1][j] +
/// w[i][j-1]` with unit borders gives `w[n-1][n-1] = C(2(n-1), n-1)`.
pub fn wavefront_corner(n: i64) -> i64 {
    let n = n as usize;
    let mut w = vec![1i64; n * n];
    for i in 1..n {
        for j in 1..n {
            w[i * n + j] = w[(i - 1) * n + j] + w[i * n + j - 1];
        }
    }
    w[n * n - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trapezoid_approximates_pi() {
        let v = trapezoid(0.0, 1.0, 1000);
        assert!((v - std::f64::consts::PI).abs() < 1e-5);
    }

    #[test]
    fn fib_values() {
        assert_eq!(fib(0), 0);
        assert_eq!(fib(1), 1);
        assert_eq!(fib(10), 55);
        assert_eq!(fib(20), 6765);
    }

    #[test]
    fn checksums() {
        assert_eq!(square_sum(4), 14);
        assert_eq!(relaxation_checksum(10), 36);
        // Hand value for n=2: Σ over i,j,k of (i+k)(k-j), computed
        // directly:
        let mut s = 0;
        for i in 0..2 {
            for j in 0..2 {
                for k in 0..2 {
                    s += (i + k) * (k - j);
                }
            }
        }
        assert_eq!(matmul_checksum(2), s);
    }

    #[test]
    fn wavefront_is_central_binomial() {
        assert_eq!(wavefront_corner(1), 1);
        assert_eq!(wavefront_corner(2), 2);
        assert_eq!(wavefront_corner(3), 6);
        assert_eq!(wavefront_corner(4), 20); // C(6,3)
        assert_eq!(wavefront_corner(5), 70); // C(8,4)
    }
}
