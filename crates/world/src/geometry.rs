//! Plane geometry for the sensor field.
//!
//! All positions in the reproduction are expressed in *grid units* (the
//! paper's inter-node spacing — 140 m in the full-scale tank scenario, one
//! grid cell in the testbed). Distances therefore read directly as "hops"
//! on the deployment grid, matching the paper's "hops/s" speed axis.
//!
//! ```
//! use envirotrack_world::geometry::Point;
//!
//! let a = Point::new(0.0, 0.0);
//! let b = Point::new(3.0, 4.0);
//! assert_eq!(a.distance_to(b), 5.0);
//! ```

use core::fmt;
use core::ops::{Add, Div, Mul, Sub};

/// A location in the plane, in grid units.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// Horizontal coordinate.
    pub x: f64,
    /// Vertical coordinate.
    pub y: f64,
}

/// A displacement between two [`Point`]s.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vector {
    /// Horizontal component.
    pub x: f64,
    /// Vertical component.
    pub y: f64,
}

impl Point {
    /// The origin.
    pub const ORIGIN: Point = Point { x: 0.0, y: 0.0 };

    /// Creates a point from coordinates.
    #[must_use]
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Euclidean distance to another point.
    #[must_use]
    pub fn distance_to(self, other: Point) -> f64 {
        (self - other).length()
    }

    /// Squared distance (avoids the square root in range tests).
    #[must_use]
    pub fn distance_sq_to(self, other: Point) -> f64 {
        (self - other).length_sq()
    }

    /// Linear interpolation: `t = 0` gives `self`, `t = 1` gives `other`.
    /// `t` outside `[0, 1]` extrapolates.
    #[must_use]
    pub fn lerp(self, other: Point, t: f64) -> Point {
        self + (other - self) * t
    }

    /// The centroid of a set of points, or `None` when the set is empty.
    #[must_use]
    pub fn centroid<I: IntoIterator<Item = Point>>(points: I) -> Option<Point> {
        let mut sum = Vector::default();
        let mut n = 0u64;
        for p in points {
            sum = sum + Vector { x: p.x, y: p.y };
            n += 1;
        }
        (n > 0).then(|| Point::new(sum.x / n as f64, sum.y / n as f64))
    }
}

impl Vector {
    /// Creates a vector from components.
    #[must_use]
    pub(crate) const fn new(x: f64, y: f64) -> Self {
        Vector { x, y }
    }

    /// Euclidean length.
    #[must_use]
    pub(crate) fn length(self) -> f64 {
        self.length_sq().sqrt()
    }

    /// Squared length.
    #[must_use]
    pub(crate) fn length_sq(self) -> f64 {
        self.x * self.x + self.y * self.y
    }
}

impl Add<Vector> for Point {
    type Output = Point;
    fn add(self, v: Vector) -> Point {
        Point::new(self.x + v.x, self.y + v.y)
    }
}

impl Sub for Point {
    type Output = Vector;
    fn sub(self, other: Point) -> Vector {
        Vector::new(self.x - other.x, self.y - other.y)
    }
}

impl Add for Vector {
    type Output = Vector;
    fn add(self, other: Vector) -> Vector {
        Vector::new(self.x + other.x, self.y + other.y)
    }
}

impl Sub for Vector {
    type Output = Vector;
    fn sub(self, other: Vector) -> Vector {
        Vector::new(self.x - other.x, self.y - other.y)
    }
}

impl Mul<f64> for Vector {
    type Output = Vector;
    fn mul(self, s: f64) -> Vector {
        Vector::new(self.x * s, self.y * s)
    }
}

impl Div<f64> for Vector {
    type Output = Vector;
    fn div(self, s: f64) -> Vector {
        Vector::new(self.x / s, self.y / s)
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.3}, {:.3})", self.x, self.y)
    }
}

/// An axis-aligned bounding box, used for field extents.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Aabb {
    /// Lower-left corner.
    pub min: Point,
    /// Upper-right corner.
    pub max: Point,
}

impl Aabb {
    /// Creates a box from opposite corners, normalising their order.
    #[must_use]
    pub fn new(a: Point, b: Point) -> Self {
        Aabb {
            min: Point::new(a.x.min(b.x), a.y.min(b.y)),
            max: Point::new(a.x.max(b.x), a.y.max(b.y)),
        }
    }

    /// Whether `p` lies inside (inclusive of the boundary).
    #[must_use]
    pub fn contains(&self, p: Point) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }

    /// The width along x.
    #[must_use]
    pub fn width(&self) -> f64 {
        self.max.x - self.min.x
    }

    /// The height along y.
    #[must_use]
    pub fn height(&self) -> f64 {
        self.max.y - self.min.y
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distances_are_euclidean() {
        let a = Point::new(1.0, 1.0);
        let b = Point::new(4.0, 5.0);
        assert_eq!(a.distance_to(b), 5.0);
        assert_eq!(a.distance_sq_to(b), 25.0);
        assert_eq!(a.distance_to(a), 0.0);
    }

    #[test]
    fn lerp_interpolates_and_extrapolates() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(10.0, 0.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.lerp(b, 0.5), Point::new(5.0, 0.0));
        assert_eq!(a.lerp(b, 2.0), Point::new(20.0, 0.0));
    }

    #[test]
    fn centroid_averages_points() {
        let pts = [
            Point::new(0.0, 0.0),
            Point::new(2.0, 0.0),
            Point::new(1.0, 3.0),
        ];
        let c = Point::centroid(pts).unwrap();
        assert!((c.x - 1.0).abs() < 1e-12);
        assert!((c.y - 1.0).abs() < 1e-12);
        assert_eq!(Point::centroid(std::iter::empty()), None);
    }

    #[test]
    fn aabb_contains_and_measures() {
        let b = Aabb::new(Point::new(10.0, 2.0), Point::new(0.0, 0.0));
        assert_eq!(b.min, Point::ORIGIN);
        assert!(b.contains(Point::new(5.0, 1.0)));
        assert!(!b.contains(Point::new(5.0, 3.0)));
        assert_eq!(b.width(), 10.0);
        assert_eq!(b.height(), 2.0);
    }
}
