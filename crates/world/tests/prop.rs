//! Property-based tests for the physical-environment substrate.

use std::sync::Arc;

use envirotrack_sim::rng::{splitmix64, SimRng};
use envirotrack_sim::time::{SimDuration, Timestamp};
use envirotrack_telemetry::Work;
use envirotrack_world::field::{Deployment, NodeId};
use envirotrack_world::geometry::{Aabb, Point};
use envirotrack_world::grid::{
    neighbor_lists_with, shard_assignment, shard_interest_ranges, NeighborStrategy, Topology,
};
use envirotrack_world::sensing::{Environment, NoiseModel, Reach, SensorSample};
use envirotrack_world::target::{Channel, Emission, Falloff, Target, TargetId, Trajectory};
use testkit::prelude::*;

#[path = "support/random_world.rs"]
mod random_world;
use random_world::{arb_field, asks};

fn arb_point() -> impl Strategy<Value = Point> {
    (-100.0..100.0f64, -100.0..100.0f64).prop_map(|(x, y)| Point::new(x, y))
}

/// Points on a coarse lattice, so tours revisit and repeat waypoints.
fn arb_lattice_point() -> impl Strategy<Value = Point> {
    (0u32..4, 0u32..4).prop_map(|(x, y)| Point::new(f64::from(x) * 2.5, f64::from(y) * 2.5))
}

/// Reference oracle: `Trajectory::position_at` as it stood before the
/// segment table — the segments rebuilt and re-measured on every call.
fn reference_position_at(
    waypoints: &[Point],
    speed: f64,
    start: Timestamp,
    looped: bool,
    t: Timestamp,
) -> Point {
    if waypoints.len() == 1 || speed <= 0.0 {
        return waypoints[0];
    }
    let last = waypoints[waypoints.len() - 1];
    let elapsed = t.saturating_since(start).as_secs_f64();
    let mut remaining = elapsed * speed;
    let segs = waypoints
        .windows(2)
        .map(|w| w[0].distance_to(w[1]))
        .sum::<f64>();
    let total = if looped {
        segs + last.distance_to(waypoints[0])
    } else {
        segs
    };
    if looped {
        remaining %= total;
    }
    let mut segments: Vec<(Point, Point)> = waypoints.windows(2).map(|w| (w[0], w[1])).collect();
    if looped {
        segments.push((last, waypoints[0]));
    }
    for (a, b) in segments {
        let seg = a.distance_to(b);
        if remaining <= seg {
            if seg < 1e-12 {
                return a;
            }
            return a.lerp(b, remaining / seg);
        }
        remaining -= seg;
    }
    last
}

/// Reference oracle: `Environment::sample` as it stood before the reach
/// cull — every active target, every channel, no distance cut-off.
fn reference_sample(
    ambient: SensorSample,
    targets: &[Target],
    pos: Point,
    t: Timestamp,
) -> SensorSample {
    let mut out = ambient;
    for target in targets {
        if !target.active_at(t) {
            continue;
        }
        let d = pos.distance_to(target.position_at(t));
        for ch in Channel::ALL {
            let sig = target.signal(ch, d, t);
            if sig != 0.0 {
                out.add(ch, sig);
            }
        }
    }
    out
}

/// The short menu emission radii are drawn from, so several emissions
/// share a boundary and probes can sit exactly on one.
const RADII: [f64; 4] = [0.0, 1.0, 2.5, 6.0];

/// A cell no grid has: a sample there is tested against the swept boxes
/// alone.
const NO_CELL: u32 = u32::MAX;

/// One random falloff of any of the five kinds.
fn random_falloff(rng: &mut SimRng) -> Falloff {
    let radius = RADII[rng.below(4) as usize];
    match rng.below(5) {
        0 => Falloff::Disk { radius },
        1 => Falloff::Linear { radius },
        2 => Falloff::InverseCube { floor: 0.1 },
        3 => Falloff::InverseSquare { floor: 0.1 },
        _ => Falloff::GrowingDisk {
            initial_radius: radius / 2.0,
            growth_per_sec: rng.uniform_range(-0.1, 0.5),
            max_radius: radius,
        },
    }
}

/// A random path for the coverage property: parked, a line, a tour or a
/// loop over a field of about ±14, departing at zero or later, crawling
/// or crossing several cells per coverage window.
fn random_trajectory(rng: &mut SimRng) -> Trajectory {
    let point = |rng: &mut SimRng| {
        Point::new(
            rng.uniform_range(-14.0, 14.0),
            rng.uniform_range(-14.0, 14.0),
        )
    };
    if rng.chance(0.25) {
        return Trajectory::stationary(point(rng));
    }
    let mut points: Vec<Point> = (0..2 + rng.below(4)).map(|_| point(rng)).collect();
    if rng.chance(0.03) {
        points[1].y = f64::NAN;
    }
    let speed = if rng.chance(0.3) {
        rng.uniform_range(5.0, 40.0)
    } else {
        rng.uniform_range(0.05, 3.0)
    };
    let mut trajectory = Trajectory::waypoints(points, speed);
    if rng.chance(0.4) {
        trajectory = trajectory.looped();
    }
    if rng.chance(0.4) {
        trajectory = trajectory.starting_at(Timestamp::from_micros(rng.below(20_000_000)));
    }
    trajectory
}

/// One random emission: mostly the bounded falloffs off the radius menu,
/// now and then one whose reach is not an ordinary number.
fn random_emission(rng: &mut SimRng) -> Emission {
    let radius = RADII[rng.below(4) as usize];
    let falloff = match rng.below(40) {
        0 => Falloff::InverseCube { floor: 0.1 },
        1 => Falloff::InverseSquare { floor: 0.1 },
        2 => Falloff::Linear { radius: f64::NAN },
        3..=16 => Falloff::Disk { radius },
        17..=28 => Falloff::Linear { radius },
        _ => Falloff::GrowingDisk {
            initial_radius: radius / 2.0,
            growth_per_sec: rng.uniform_range(-0.1, 0.5),
            max_radius: radius,
        },
    };
    let strength = match rng.below(80) {
        0 => f64::INFINITY,
        1 => f64::NAN,
        _ => rng.uniform_range(-2.0, 50.0),
    };
    Emission {
        channel: Channel::ALL[rng.below(5) as usize],
        strength,
        falloff,
    }
}

prop_test! {
    /// A trajectory never moves faster than its declared speed.
    #[test]
    fn trajectory_respects_its_speed_limit(
        pts in prop::collection::vec(arb_point(), 2..6),
        speed in 0.1..20.0f64,
        t0 in 0u64..100_000_000,
        dt in 1u64..5_000_000,
    ) {
        let traj = Trajectory::waypoints(pts, speed);
        let a = traj.position_at(Timestamp::from_micros(t0));
        let b = traj.position_at(Timestamp::from_micros(t0 + dt));
        let max_move = speed * dt as f64 / 1e6;
        prop_assert!(
            a.distance_to(b) <= max_move + 1e-6,
            "moved {} in {}us at speed {}", a.distance_to(b), dt, speed
        );
    }

    /// A trajectory stays within the bounding box of its waypoints.
    #[test]
    fn trajectory_stays_in_waypoint_hull_bbox(
        pts in prop::collection::vec(arb_point(), 2..6),
        speed in 0.1..20.0f64,
        t in 0u64..1_000_000_000,
    ) {
        let traj = Trajectory::waypoints(pts.clone(), speed);
        let p = traj.position_at(Timestamp::from_micros(t));
        let min_x = pts.iter().map(|p| p.x).fold(f64::INFINITY, f64::min);
        let max_x = pts.iter().map(|p| p.x).fold(f64::NEG_INFINITY, f64::max);
        let min_y = pts.iter().map(|p| p.y).fold(f64::INFINITY, f64::min);
        let max_y = pts.iter().map(|p| p.y).fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(p.x >= min_x - 1e-9 && p.x <= max_x + 1e-9);
        prop_assert!(p.y >= min_y - 1e-9 && p.y <= max_y + 1e-9);
    }

    /// Looped trajectories are periodic with period `path_length / speed`.
    #[test]
    fn looped_trajectories_are_periodic(
        pts in prop::collection::vec(arb_point(), 3..6),
        speed in 0.5..10.0f64,
        t in 0u64..100_000_000,
    ) {
        let traj = Trajectory::waypoints(pts, speed).looped();
        let period_us = (traj.path_length() / speed * 1e6) as u64;
        prop_assume!(period_us > 0);
        let a = traj.position_at(Timestamp::from_micros(t));
        let b = traj.position_at(Timestamp::from_micros(t + period_us));
        prop_assert!(a.distance_to(b) < 1e-3, "{a} vs {b} one period later");
    }

    /// The segment-table walk is bit-identical to the reference walk:
    /// 1–6 waypoints with repeats, looped or not, delayed departures, and
    /// probe times before the start, past the end and many laps in.
    #[test]
    fn position_at_is_bit_identical_to_the_reference_walk(
        pts in prop::collection::vec(prop_oneof![arb_lattice_point(), arb_point()], 1..7),
        speed in 0.05..20.0f64,
        looped: bool,
        start_us in prop_oneof![Just(0u64), 0u64..60_000_000],
        probes in prop::collection::vec(
            prop_oneof![0u64..120_000_000, 0u64..100_000_000_000],
            1..8,
        ),
    ) {
        let start = Timestamp::from_micros(start_us);
        let mut traj = Trajectory::waypoints(pts.clone(), speed).starting_at(start);
        if looped {
            traj = traj.looped();
        }
        for t in probes.into_iter().chain([0, start_us]) {
            let t = Timestamp::from_micros(t);
            let got = traj.position_at(t);
            let want = reference_position_at(&pts, speed, start, looped, t);
            prop_assert_eq!(
                (got.x.to_bits(), got.y.to_bits()),
                (want.x.to_bits(), want.y.to_bits()),
                "{} vs {} at {:?}", got, want, t
            );
        }
    }

    /// The culled, channel-masked sample is bit-identical to the full
    /// walk on all five channels: every falloff kind, several emissions
    /// per channel, ambient levels, activity windows, and sensors placed
    /// exactly on an emission's radius as well as far outside it.
    #[test]
    fn sample_is_bit_identical_to_the_uncut_walk(seed: u64, n_targets in 0usize..7) {
        let mut rng = SimRng::seed_from(seed);
        let mut ambient = SensorSample::zero();
        let mut env = Environment::new();
        for ch in Channel::ALL {
            if rng.chance(0.4) {
                let level = rng.uniform_range(-5.0, 25.0);
                ambient.set(ch, level);
                env = env.with_ambient(ch, level);
            }
        }
        let mut targets = Vec::new();
        for id in 0..n_targets {
            let at = Point::new(rng.uniform_range(-10.0, 10.0), rng.uniform_range(-10.0, 10.0));
            let trajectory = if rng.chance(0.5) {
                Trajectory::stationary(at)
            } else {
                Trajectory::line(at, Point::new(-at.x, at.y + 3.0), rng.uniform_range(0.1, 2.0))
            };
            let emissions = (0..rng.below(5))
                .map(|_| Emission {
                    channel: Channel::ALL[rng.below(5) as usize],
                    strength: rng.uniform_range(-2.0, 50.0),
                    falloff: random_falloff(&mut rng),
                })
                .collect();
            let mut target = Target::new(TargetId(id as u32), trajectory, emissions);
            if rng.chance(0.5) {
                let from = rng.below(20);
                target = target.active_between(
                    Timestamp::from_secs(from),
                    Timestamp::from_secs(from + rng.below(30)),
                );
            }
            env.add_target(target.clone());
            targets.push(target);
        }
        for _ in 0..24 {
            let t = Timestamp::from_micros(rng.below(40_000_000));
            // Half the probes sit exactly one menu radius from a target
            // along an axis; the rest roam a field wider than any radius.
            let pos = match rng.choose(&targets) {
                Some(target) if rng.chance(0.5) => {
                    let r = RADII[rng.below(4) as usize];
                    let c = target.position_at(t);
                    if rng.chance(0.5) {
                        Point::new(c.x + r, c.y)
                    } else {
                        Point::new(c.x, c.y - r)
                    }
                }
                _ => Point::new(rng.uniform_range(-40.0, 40.0), rng.uniform_range(-40.0, 40.0)),
            };
            let got = env.sample(pos, t);
            let want = reference_sample(ambient, &targets, pos, t);
            for ch in Channel::ALL {
                prop_assert_eq!(
                    got.get(ch).to_bits(),
                    want.get(ch).to_bits(),
                    "{} at {} t={:?}: {} vs {}", ch, pos, t, got.get(ch), want.get(ch)
                );
            }
        }
    }

    /// A sample through a `Reach` is `sample_noisy`, bit for bit on all
    /// five channels and draw for draw on the node's stream: parked
    /// targets, lines, tours and loops, slow ones and ones that cross
    /// several cells per window, delayed departures, lifetimes that open
    /// or close inside a window, every falloff kind (unbounded and NaN
    /// reaches, non-finite strengths, a NaN waypoint among them), with and
    /// without noise; nodes inside and on the edge of a field under any
    /// radio range, their cells worked out before the first window, and
    /// positions in no cell, tested against the swept boxes alone: at the
    /// targets' reach, around and off the field, and NaN, which walks
    /// whenever a target is present; instants in no order, at both edges of
    /// their window and up against `Timestamp::MAX`. Where `reads_ambient`
    /// says a sample is the ambient levels with nothing to draw, so it is.
    #[test]
    fn covered_sample_is_bit_identical_to_the_walk(seed: u64, n_targets in 0usize..8) {
        let mut rng = SimRng::seed_from(seed);
        let mut env = Environment::new();
        for ch in Channel::ALL {
            if rng.chance(0.4) {
                env = env.with_ambient(ch, rng.uniform_range(-5.0, 25.0));
            }
        }
        if rng.chance(0.5) {
            let ch = Channel::ALL[rng.below(5) as usize];
            env = env.with_noise(NoiseModel::none().with_channel(ch, rng.uniform_range(0.0, 2.0)));
        }
        // Pairs of instants: the first is anywhere in its window, the
        // second falls inside it or the next. One pair either side of each
        // end of every lifetime.
        let mut script: Vec<[u64; 2]> = Vec::new();
        for id in 0..n_targets {
            let emissions = (0..1 + rng.below(3)).map(|_| random_emission(&mut rng)).collect();
            let mut target = Target::new(TargetId(id as u32), random_trajectory(&mut rng), emissions);
            if rng.chance(0.6) {
                let from = 1 + rng.below(20_000_000);
                let until = from + 1 + rng.below(20_000_000);
                target = target.active_between(
                    Timestamp::from_micros(from),
                    Timestamp::from_micros(until),
                );
                for edge in [from, until] {
                    let before = edge.saturating_sub(1 + rng.below(150_000));
                    script.push([before, edge + rng.below(40_000)]);
                }
            }
            env.add_target(target);
        }
        for _ in 0..10 {
            let t = rng.below(40_000_000);
            script.push([t, t + rng.below(400_000)]);
        }
        for _ in 0..3 {
            let t = u64::MAX - rng.below(30_000_000);
            script.push([t, t.saturating_add(rng.below(400_000))]);
        }
        script.push([u64::MAX, u64::MAX - 1]);
        // A field of up to a few hundred nodes, a square or nearly a line,
        // with two on its edge.
        let half = Point::new(rng.uniform_range(3.0, 12.0), rng.uniform_range(0.0, 12.0));
        let roam = |rng: &mut SimRng, by: f64| {
            Point::new(
                rng.uniform_range(-half.x * by, half.x * by),
                rng.uniform_range(-half.y * by, half.y * by),
            )
        };
        let mut positions: Vec<Point> = (0..1 + rng.below(400)).map(|_| roam(&mut rng, 1.0)).collect();
        positions.extend([Point::new(half.x, roam(&mut rng, 1.0).y), Point::new(-half.x, half.y)]);
        let deployment = Deployment::from_positions(positions);
        let topology = Arc::new(Topology::new(&deployment, RADII[1 + rng.below(3) as usize]));
        let cells: Vec<u32> = deployment.ids().map(|id| topology.cell_of(id) as u32).collect();
        let period = SimDuration::from_millis(50 + rng.below(450));
        let span = 2 * period.as_micros();
        let mut reach = Reach::new(topology, period);
        let (mut drawn, mut reference) = (rng.fork("covered"), rng.fork("covered"));
        let mut samples = 0;
        let walked = |reach: &Reach| {
            let mut work = Work::default();
            reach.work(&mut work);
            work.get("samples_walked")
        };

        while !script.is_empty() {
            let pair = script.swap_remove(rng.below(script.len() as u64) as usize);
            for (i, t) in pair.into_iter().enumerate() {
                let t = Timestamp::from_micros(t);
                for _ in 0..6 {
                    let node = rng.below(cells.len() as u64) as usize;
                    let (pos, cell) = match (rng.below(8), rng.choose(env.targets())) {
                        // At a target's reach along an axis, where it is now.
                        (0..=3, Some(target)) => {
                            let r = RADII[rng.below(4) as usize];
                            let r = if rng.chance(0.5) { r } else { -r };
                            let c = target.position_at(t);
                            if rng.chance(0.5) {
                                (Point::new(c.x + r, c.y), NO_CELL)
                            } else {
                                (Point::new(c.x, c.y + r), NO_CELL)
                            }
                        }
                        // Around and off the field; nowhere.
                        (5, _) => (roam(&mut rng, 3.0), NO_CELL),
                        (6, _) => (Point::new(f64::NAN, f64::NAN), NO_CELL),
                        // A node; one on the field's edge.
                        (7, _) => (deployment.position(NodeId(cells.len() as u32 - 2)), cells[cells.len() - 2]),
                        _ => (deployment.position(NodeId(node as u32)), cells[node]),
                    };
                    let before = walked(&reach);
                    // Half the samples ask first whether they are the
                    // ambient levels, and take them without a draw if so.
                    let got = if rng.chance(0.5) && env.reads_ambient(&mut reach, cell, pos, t) {
                        env.ambient()
                    } else {
                        env.sample_covered(&mut reach, cell, pos, t, &mut drawn)
                    };
                    if pos.x.is_nan() && env.targets().iter().any(|target| target.active_at(t)) {
                        prop_assert_eq!(walked(&reach), before + 1, "NaN read ambient at {:?}", t);
                    }
                    let want = env.sample_noisy(pos, t, &mut reference);
                    samples += 1;
                    for ch in Channel::ALL {
                        prop_assert_eq!(
                            got.get(ch).to_bits(),
                            want.get(ch).to_bits(),
                            "{} at {} t={:?}: {} vs {}", ch, pos, t, got.get(ch), want.get(ch)
                        );
                    }
                    prop_assert_eq!(drawn.next_u64(), reference.next_u64(), "the streams parted");
                }
                // Now and then go on to the edges of the window the first
                // of the pair is in: its last instant, and the one after.
                if i == 0 && rng.chance(0.3) {
                    let last = (t.as_micros() / span).saturating_add(1).saturating_mul(span) - 1;
                    script.push([last, last.saturating_add(1)]);
                }
            }
        }
        let mut work = Work::default();
        reach.work(&mut work);
        prop_assert_eq!(work.get("samples_covered") + work.get("samples_walked"), samples);
    }

    /// A cell proven quiet holds no sensor a target reaches: on drawn
    /// fields under every radio range, for a drawn instant `t` and every
    /// cell, `quiet_until(t, cell) = Some(end)` means that every node of the
    /// cell reads the ambient levels at `t`, at `end − 1`, between, and at
    /// any other instant before `end`; and no node whose noiseless sample is
    /// not the ambient levels, at those instants or up to 64 periods on, is
    /// ever told "ambient". Targets are parked, linear, looped or late,
    /// cross the field slowly or fast, and now and then reach no ordinary
    /// distance; periods run from 1 µs to 1 s, and `t` is zero, mid-run or
    /// near the end of time. Each level lists one window, one sweep a
    /// target.
    #[test]
    fn reached_cells_hold_every_sensor_a_target_reaches(
        draw in arb_field(),
        seed: u64,
        n_targets in 0usize..4,
    ) {
        let (deployment, radius) = draw.build();
        let topology = Arc::new(Topology::new(&deployment, radius));
        let positions = deployment.positions();
        let mut rng = SimRng::seed_from(seed);
        let us = Timestamp::from_micros;
        let mut env = Environment::new();
        for id in 0..n_targets {
            let near = |rng: &mut SimRng| {
                let p = positions[rng.below(positions.len() as u64) as usize];
                Point::new(p.x + rng.uniform_range(-3.0, 3.0), p.y + rng.uniform_range(-3.0, 3.0))
            };
            let trajectory = match rng.below(4) {
                0 => Trajectory::stationary(near(&mut rng)),
                k => {
                    let points = (0..2 + rng.below(3)).map(|_| near(&mut rng)).collect();
                    let speed = if rng.chance(0.3) { rng.uniform_range(5.0, 40.0) } else { rng.uniform_range(0.05, 3.0) };
                    let path = Trajectory::waypoints(points, speed);
                    let path = if k == 1 { path.looped() } else { path };
                    path.starting_at(us(rng.below(3_000_000)))
                }
            };
            let emissions = (0..1 + rng.below(2)).map(|_| random_emission(&mut rng)).collect();
            let mut target = Target::new(TargetId(id as u32), trajectory, emissions);
            if rng.chance(0.3) {
                let from = rng.below(6_000_000);
                target = target.active_between(us(from), us(from + 1 + rng.below(6_000_000)));
            }
            env.add_target(target);
        }
        for _ in 0..4 {
            let period = 1 + rng.below(1_000_000);
            let t = match rng.below(4) {
                0 => 0,
                1 => u64::MAX - rng.below(2_000_000),
                _ => rng.below(8_000_000),
            };
            let mut reach = Reach::new(Arc::clone(&topology), SimDuration::from_micros(period));
            let ends: Vec<Option<Timestamp>> =
                (0..topology.cells()).map(|cell| reach.quiet_until(&env, us(t), cell)).collect();
            let mut work = Work::default();
            reach.work(&mut work);
            let windows = work.get("reach_windows");
            prop_assert!((1..=6).contains(&windows), "{} windows listed", windows);
            prop_assert_eq!(work.get("reach_sweeps"), windows * env.targets().len() as u64);
            let bits = |s: SensorSample| Channel::ALL.map(|ch| s.get(ch).to_bits());
            let ambient = bits(env.ambient());
            let far = t.saturating_add(64 * period);
            for (id, &pos) in (0u32..).zip(positions) {
                let cell = topology.cell_of(NodeId(id));
                let end = ends[cell].map_or(far, Timestamp::as_micros);
                let inside = [t, end.saturating_sub(1).max(t), t + (end - t) / 2, t + rng.below(end - t + 1)];
                for s in inside.into_iter().chain([t + rng.below(far - t + 1)]) {
                    if bits(env.sample(pos, us(s))) != ambient {
                        let quiet = ends[cell].is_some_and(|end| s < end.as_micros());
                        prop_assert!(!quiet, "node {} at {} in cell {} sensed at {:?}, proven quiet until {:?}", id, pos, cell, us(s), ends[cell]);
                        prop_assert!(!env.reads_ambient(&mut reach, cell as u32, pos, us(s)), "node {} told ambient at {:?}", id, us(s));
                    }
                }
            }
        }
    }

    /// Every falloff is non-increasing with distance.
    #[test]
    fn falloffs_are_monotone_decreasing(
        d1 in 0.0..50.0f64,
        d2 in 0.0..50.0f64,
        radius in 0.5..10.0f64,
        floor in 0.01..1.0f64,
    ) {
        let (near, far) = if d1 <= d2 { (d1, d2) } else { (d2, d1) };
        for f in [
            Falloff::Disk { radius },
            Falloff::InverseCube { floor },
            Falloff::InverseSquare { floor },
            Falloff::Linear { radius },
        ] {
            prop_assert!(
                f.gain(near) >= f.gain(far),
                "{f:?} increased from {near} to {far}"
            );
        }
    }

    /// The detection radius is consistent with the gain function: just
    /// inside the radius the signal meets the threshold, just outside it
    /// does not (for continuous falloffs).
    #[test]
    fn detection_radius_matches_gain(
        strength in 0.5..100.0f64,
        threshold in 0.01..0.4f64,
        floor in 0.01..0.5f64,
    ) {
        for f in [Falloff::InverseCube { floor }, Falloff::InverseSquare { floor }] {
            if let Some(r) = f.detection_radius(strength, threshold) {
                if r > floor * 1.01 {
                    prop_assert!(strength * f.gain(r * 0.99) >= threshold);
                    prop_assert!(strength * f.gain(r * 1.01) <= threshold * 1.05);
                }
            }
        }
    }

    /// `nodes_within` agrees with a brute-force distance check, and
    /// `nearest` really is the closest node.
    #[test]
    fn deployment_queries_match_brute_force(
        cols in 1u32..8,
        rows in 1u32..8,
        probe in arb_point(),
        radius in 0.0..10.0f64,
    ) {
        let d = Deployment::grid(cols, rows, 1.0);
        let within = d.nodes_within(probe, radius);
        for (id, pos) in d.iter() {
            let inside = pos.distance_to(probe) <= radius;
            prop_assert_eq!(within.contains(&id), inside);
        }
        let nearest = d.nearest(probe);
        let best = d.iter().map(|(_, p)| p.distance_to(probe)).fold(f64::INFINITY, f64::min);
        prop_assert!((d.position(nearest).distance_to(probe) - best).abs() < 1e-12);
    }

    /// Random deployments honour their area and are seed-deterministic.
    #[test]
    fn random_deployment_is_bounded_and_deterministic(seed: u64, n in 1u32..100) {
        let area = Aabb::new(Point::new(-5.0, 0.0), Point::new(5.0, 3.0));
        let d1 = Deployment::random_uniform(n, area, &mut SimRng::seed_from(seed));
        let d2 = Deployment::random_uniform(n, area, &mut SimRng::seed_from(seed));
        prop_assert_eq!(&d1, &d2);
        for (_, p) in d1.iter() {
            prop_assert!(area.contains(p));
        }
    }

    /// Spatial-grid neighbor tables are *exactly* the brute-force tables:
    /// per node, the same neighbors in the same (ascending id) order,
    /// across random placements, radii and field aspect ratios. This is
    /// the invariant the medium's byte-identical determinism rests on.
    #[test]
    fn grid_neighbor_tables_equal_brute_force(
        seed: u64,
        n in 1u32..120,
        radius in 0.05..30.0f64,
        w in 0.5..80.0f64,
        h in 0.5..80.0f64,
    ) {
        let area = Aabb::new(Point::new(-w / 2.0, -h / 2.0), Point::new(w / 2.0, h / 2.0));
        let d = Deployment::random_uniform(n, area, &mut SimRng::seed_from(seed));
        let grid = neighbor_lists_with(&d, radius, NeighborStrategy::Grid);
        let brute = neighbor_lists_with(&d, radius, NeighborStrategy::BruteForce);
        for (id, _) in d.iter() {
            prop_assert_eq!(
                &grid[id.index()], &brute[id.index()],
                "node {} differs (n={}, radius={})", id, n, radius
            );
        }
    }

    /// Clustered placements (several dense blobs with empty space between)
    /// exercise uneven bucket occupancy; the tables must still match.
    #[test]
    fn grid_neighbor_tables_equal_brute_force_on_clusters(
        seed: u64,
        clusters in 1usize..5,
        per in 1u32..25,
        radius in 0.1..5.0f64,
    ) {
        let mut rng = SimRng::seed_from(seed);
        let mut positions = Vec::new();
        for _ in 0..clusters {
            let cx = rng.uniform_range(-50.0, 50.0);
            let cy = rng.uniform_range(-50.0, 50.0);
            for _ in 0..per {
                positions.push(Point::new(
                    cx + rng.uniform_range(-1.0, 1.0),
                    cy + rng.uniform_range(-1.0, 1.0),
                ));
            }
        }
        let d = Deployment::from_positions(positions);
        let grid = neighbor_lists_with(&d, radius, NeighborStrategy::Grid);
        let brute = neighbor_lists_with(&d, radius, NeighborStrategy::BruteForce);
        prop_assert_eq!(grid, brute);
    }

    /// Every node's list is the all-pairs relation, and the range test is
    /// membership in it, on lattice, uniform and clustered fields and on
    /// the degenerate ones — a lone node, every node on one spot, a single
    /// row — under a drawn radius, one some pair sits exactly at, one wider
    /// than the whole field, and one narrower than every spacing. Every
    /// node's list is asked for, in a drawn order, some twice; the range
    /// test is checked on every pair of a field of up to 120 nodes, and on
    /// a sample of listed and drawn pairs above that.
    #[test]
    fn topology_is_the_brute_force_relation(field in arb_field(), order: u64) {
        let (d, radius) = field.build();
        let topology = Topology::new(&d, radius);
        let brute = neighbor_lists_with(&d, radius, NeighborStrategy::BruteForce);
        let mut list = Vec::new();
        for a in asks(d.len(), order) {
            list.clear();
            topology.for_each_neighbor(a, |b| list.push(b));
            list.sort_unstable();
            prop_assert_eq!(&list, &brute[a.index()], "{} of {:?}", a, field);
        }
        // Every pair of a field of up to 120 nodes; above that, 120 nodes
        // each against 16 of its listed nodes and 16 drawn ones.
        let (mut s, n) = (order, d.len() as u64);
        let mut draw = |m: usize| (splitmix64(&mut s) % m as u64) as usize;
        for a in asks(d.len(), order).into_iter().take(120) {
            let listed = &brute[a.index()];
            let partners: Vec<NodeId> = if n <= 120 {
                d.ids().collect()
            } else {
                let drawn = (0..16).map(|_| NodeId(draw(n as usize) as u32));
                let mut partners: Vec<NodeId> = drawn.collect();
                if !listed.is_empty() {
                    partners.extend((0..16).map(|_| listed[draw(listed.len())]));
                }
                partners
            };
            for b in partners {
                let near = listed.binary_search(&b).is_ok();
                prop_assert_eq!(topology.in_range(a, b), near, "{} -> {} of {:?}", a, b, field);
            }
        }
    }

    /// Interest-set soundness — the invariant partitioned-medium routing
    /// rests on: for random placements, radii, and shard counts, every
    /// receiver the brute-force medium would reach from a sender belongs
    /// to a shard inside that sender's computed interest range. An unsound
    /// range would silently drop deliveries on exactly one shard count and
    /// break the byte-identical sharding contract.
    #[test]
    fn interest_ranges_cover_every_brute_force_receiver(
        seed: u64,
        n in 2u32..120,
        radius in 0.05..20.0f64,
        shards in 1usize..9,
        w in 0.5..60.0f64,
        h in 0.5..60.0f64,
    ) {
        let area = Aabb::new(Point::new(-w / 2.0, -h / 2.0), Point::new(w / 2.0, h / 2.0));
        let d = Deployment::random_uniform(n, area, &mut SimRng::seed_from(seed));
        let owners = shard_assignment(&d, radius, shards);
        let ranges = shard_interest_ranges(&d, radius, shards);
        for (src, src_pos) in d.iter() {
            let (lo, hi) = ranges[src.index()];
            prop_assert!(lo <= hi && hi < shards);
            // The sender's own shard must always be interested
            // (self-accounting: transmit energy is charged there).
            let own = owners[src.index()];
            prop_assert!(
                (lo..=hi).contains(&own),
                "sender {} owned by shard {} outside its range [{}, {}]", src, own, lo, hi
            );
            for (dst, dst_pos) in d.iter() {
                if dst == src || src_pos.distance_to(dst_pos) > radius {
                    continue;
                }
                let owner = owners[dst.index()];
                prop_assert!(
                    (lo..=hi).contains(&owner),
                    "receiver {} (shard {}) of sender {} escaped range [{}, {}] \
                     (n={}, radius={}, shards={})",
                    dst, owner, src, lo, hi, n, radius, shards
                );
            }
        }
    }
}
