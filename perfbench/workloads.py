"""Workload definitions and seeded input generation.

The benchmark seed never reaches the timed program: it only shapes its
input files. The pipeline workloads' snapshot is written here; the
scheduling workload's cost file is written by the harness's schedule-input
mode, which runs fig13_large_scale's generator (the program's halo model,
FOF and spatial index) with the seed.
"""

import bisect
import math
import random
import struct

# Shared by the three pipeline workloads (see README.md for why each exists).
PIPELINE_ARGS = ["--ranks", "4", "--threads", "4", "--length", "3",
                 "--compute-ahead", "0"]

PIPELINE = {
    "paper-512": {"fields": 8, "grid": 512, "extra": []},
    "survey-64": {"fields": 48, "grid": 64, "extra": []},
    "velocity-durable": {"fields": 8, "grid": 256,
                         "extra": ["--field", "velocity", "--audit", "cheap"],
                         "durable": True},
}
SCHEDULE = {
    "schedule-8192": {"items": 120000, "ranks": 8192},
}
NAMES = list(PIPELINE) + list(SCHEDULE)

SNAPSHOT_MAGIC = 0x44544645534E4150  # "DTFESNAP", nbody/snapshot_io.cpp


# The halo layout (where each halo sits) is part of the pipeline workloads,
# like their field count; the benchmark seed draws the particles. See
# halo_snapshot.
LAYOUT_SEED = 16


def halo_snapshot(seed, n=120000, box=16.0, n_halos=48, blocks=4):
    """Snapshot file bytes: NFW halos on a uniform background.

    The model is `pdtfe generate --kind halo`'s (particle count, box, halo
    count, mass function, profiles, 20% background), with the halo masses
    set to the mass function's quantiles and the halo centers drawn from
    LAYOUT_SEED; `seed` draws every particle. With masses and centers drawn
    from the seed, as `pdtfe generate` does, which rank owns the few largest
    fields changes from seed to seed, and at 4 ranks that alone moves the
    batch time by ±40% (quartile spread 0.44 over 8 seeds on paper-512).
    """
    layout = random.Random(LAYOUT_SEED)
    rng = random.Random(seed)
    slope, mmin, conc0, radius_fraction = 1.9, 0.01, 8.0, 0.05
    a = 1.0 - slope
    lo = mmin ** a
    masses = [(lo + (i + 0.5) / n_halos * (1.0 - lo)) ** (1.0 / a)
              for i in range(n_halos)]
    mass_sum = sum(masses)
    n_halo_particles = n - int(0.2 * n)
    radii = [radius_fraction * box * m ** (1.0 / 3.0) for m in masses]
    centers = _separated_centers(layout, radii, box)
    pts = []
    for m, rvir, (cx, cy, cz) in zip(masses, radii, centers):
        count = int(m / mass_sum * n_halo_particles + 0.5)
        conc = conc0 * m ** -0.1
        rs = rvir / conc
        xs, cdf = _nfw_table(conc)
        for _ in range(min(count, n - len(pts))):
            r = rs * _interp(xs, cdf, rng.random())
            cos_t = 2.0 * rng.random() - 1.0
            sin_t = math.sqrt(max(0.0, 1.0 - cos_t * cos_t))
            phi = 2.0 * math.pi * rng.random()
            pts.append(((cx + r * sin_t * math.cos(phi)) % box,
                        (cy + r * sin_t * math.sin(phi)) % box,
                        (cz + r * cos_t) % box))
    while len(pts) < n:
        pts.append((rng.random() * box, rng.random() * box,
                    rng.random() * box))
    return _snapshot_bytes(pts, box, blocks)


# Smallest gap between two halos' outer radii, in box units: 3 FOF linking
# lengths (0.2 x the mean spacing of 120k particles in a 16^3 box, 0.065).
HALO_GAP = 0.2


def _separated_centers(layout, radii, box):
    """Halo centers drawn from `layout`, none within HALO_GAP of another.

    Every halo's center is drawn first, in order; then, from the largest
    halo down, a halo that touches a larger one is drawn again until it is
    clear. Two touching halos are one FOF group on some particle draws and
    two on others, and which groups make the top N then changes with the
    seed: on survey-64 that moved a 4-rank batch between 1.6 and 2.5 s.
    """
    centers = [tuple(layout.random() * box for _ in range(3)) for _ in radii]

    def gap(a, b):
        return math.sqrt(sum(min(abs(x - y), box - abs(x - y)) ** 2
                             for x, y in zip(a, b)))

    placed = []
    for i in sorted(range(len(radii)), key=lambda k: -radii[k]):
        while any(gap(centers[i], centers[j]) < radii[i] + radii[j] + HALO_GAP
                  for j in placed):
            centers[i] = tuple(layout.random() * box for _ in range(3))
        placed.append(i)
    return centers


def _nfw_table(c, steps=1024):
    """Normalized enclosed-mass profile of an NFW halo on [0, c]."""
    def m(x):
        return math.log1p(x) - x / (1.0 + x)
    xs = [c * (i / steps) ** 2 for i in range(steps + 1)]
    total = m(c)
    return xs, [m(x) / total for x in xs]


def _interp(xs, cdf, u):
    """Inverse of the tabulated CDF at u."""
    i = min(max(bisect.bisect_left(cdf, u), 1), len(cdf) - 1)
    f = (u - cdf[i - 1]) / (cdf[i] - cdf[i - 1])
    return xs[i - 1] + f * (xs[i] - xs[i - 1])


def _snapshot_bytes(pts, box, blocks):
    """The blocked layout of dtfe::write_snapshot: header, one table entry
    per spatial sub-volume, then each block's xyz doubles."""
    sub = box / blocks

    def cell(v):
        return min(int(v / sub), blocks - 1)

    buckets = [[] for _ in range(blocks ** 3)]
    for p in pts:
        buckets[(cell(p[2]) * blocks + cell(p[1])) * blocks
                + cell(p[0])].append(p)
    out = bytearray(struct.pack("<QddQQ", SNAPSHOT_MAGIC, box, 1.0,
                                len(pts), blocks ** 3))
    offset = 0
    for b, bucket in enumerate(buckets):
        bx, by, bz = b % blocks, (b // blocks) % blocks, b // blocks ** 2
        out += struct.pack("<QQ6d", offset, len(bucket), bx * sub, by * sub,
                           bz * sub, (bx + 1) * sub, (by + 1) * sub,
                           (bz + 1) * sub)
        offset += len(bucket)
    xyz = struct.Struct("<3d")
    for bucket in buckets:
        for p in bucket:
            out += xyz.pack(*p)
    return bytes(out)


def pipeline_args(name):
    """`pdtfe pipeline` flags of a pipeline workload (inputs excluded)."""
    w = PIPELINE[name]
    return (PIPELINE_ARGS + ["--fields", str(w["fields"]),
                             "--grid", str(w["grid"])] + w["extra"])
