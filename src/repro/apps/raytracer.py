"""The ray tracer benchmark (paper Section 4.7).

A sphere/plane ray tracer supporting point and directional lights and
diffuse, specular, reflective, and transparent surface properties --
the feature set of the off-the-shelf tracer the paper uses (King 1998).

The *surfaces* of objects are changeable (``surface $C``); geometry,
lights, and image size are stable.  A surface modifiable may be shared by
several objects (the paper's surface sets A-G), so one ``change`` toggles
a whole group.  Change propagation re-executes exactly the shading
computations (including shadow tests and recursive reflection rays) of the
pixels whose rays touched the changed surface.

The scene mirrors the paper's: 3 light sources and 19 objects (one ground
plane plus 18 spheres in seven surface groups A-G).  Images are
``size x size``; the paper renders 512x512, we default much smaller since
we interpret rather than compile to native code (DESIGN.md Section 2).
"""

from __future__ import annotations

import math
import random
from dataclasses import astuple, dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.apps.base import App
from repro.interp.values import ConValue, deep_read
from repro.sac.engine import Engine
from repro.sac.modifiable import Modifiable

RAYTRACER_SOURCE = """
datatype color = RGB of real * real * real
datatype surface = Surface of real * real * real * real * real * real * real
datatype object =
    Sphere of (real * real * real) * real * surface $C
  | Plane of (real * real * real) * real * surface $C
datatype light =
    PointL of (real * real * real) * (real * real * real)
  | DirL of (real * real * real) * (real * real * real)
datatype olist = ONil | OCons of object * olist
datatype llist = LNil | LCons of light * llist
datatype hit = NoHit | Hit of real * object

fun vplus ((ax, ay, az), (bx, by, bz)) : real * real * real =
  (ax + bx, ay + by, az + bz)
fun vminus ((ax, ay, az), (bx, by, bz)) : real * real * real =
  (ax - bx, ay - by, az - bz)
fun vscale ((ax, ay, az), k) : real * real * real = (ax * k, ay * k, az * k)
fun vdot ((ax, ay, az), (bx, by, bz)) : real = ax * bx + ay * by + az * bz
fun vlen v = sqrt (vdot (v, v))
fun vunit v = vscale (v, 1.0 / vlen v)

fun isect (ob, orig, dir) =
  case ob of
    Sphere (c, r, sf) =>
      let
        val oc = vminus (orig, c)
        val b = vdot (oc, dir)
        val disc = b * b - (vdot (oc, oc) - r * r)
      in
        if disc < 0.0 then ~1.0
        else
          let
            val sq = sqrt disc
            val t1 = ~b - sq
          in
            if t1 > 0.0001 then t1 else ~b + sq
          end
      end
  | Plane (n, d, sf) =>
      let val denom = vdot (n, dir) in
        if denom < 0.00000001 andalso denom > ~0.00000001 then ~1.0
        else (d - vdot (n, orig)) / denom
      end

fun nearest (objs, orig, dir) =
  case objs of
    ONil => NoHit
  | OCons (ob, rest) =>
      let
        val t = isect (ob, orig, dir)
        val best = nearest (rest, orig, dir)
      in
        if t < 0.0001 then best
        else
          case best of
            NoHit => Hit (t, ob)
          | Hit (tb, ob2) => if t < tb then Hit (t, ob) else best
      end

fun blocked (objs, orig, dir, maxt) =
  case objs of
    ONil => false
  | OCons (ob, rest) =>
      let val t = isect (ob, orig, dir) in
        if t > 0.0001 andalso t < maxt then true
        else blocked (rest, orig, dir, maxt)
      end

fun lightsum (lights, objs, point, norm, vdir, kd, ks) =
  case lights of
    LNil => (0.0, 0.0, 0.0)
  | LCons (lg, rest) =>
      let
        val acc = lightsum (rest, objs, point, norm, vdir, kd, ks)
        val (ldir, dist, intens) =
          case lg of
            PointL (pos, i) =>
              let val d = vminus (pos, point) in (vunit d, vlen d, i) end
          | DirL (dir2, i) => (vunit (vscale (dir2, ~1.0)), 1000000.0, i)
        val c = vdot (norm, ldir)
      in
        if c <= 0.0 then acc
        else if blocked (objs, point, ldir, dist) then acc
        else
          let
            val h = vunit (vminus (ldir, vdir))
            val spec = vdot (norm, h)
            val sp = if spec > 0.0 then ks * rpow (spec, 8.0) else 0.0
          in
            vplus (acc, vplus (vscale (intens, kd * c), vscale (intens, sp)))
          end
      end

fun trace (objs, lights, orig, dir, depth) =
  case nearest (objs, orig, dir) of
    NoHit => RGB (0.1, 0.1, 0.2)
  | Hit (t, ob) =>
      let
        val point = vplus (orig, vscale (dir, t))
        val (norm0, s) =
          case ob of
            Sphere (c, r, sf) => (vunit (vminus (point, c)), sf)
          | Plane (n, d, sf) => (n, sf)
        val norm =
          if vdot (norm0, dir) > 0.0 then vscale (norm0, ~1.0) else norm0
      in
        case s of
          Surface (cr, cg, cb, kd, ks, kr, kt) =>
            let
              val (lr, lg, lb) = lightsum (lights, objs, point, norm, dir, kd, ks)
              val br = cr * (0.1 + lr)
              val bg = cg * (0.1 + lg)
              val bb = cb * (0.1 + lb)
              val (rr, rg, rb) =
                if kr > 0.0 andalso depth > 0 then
                  let
                    val rdir = vunit (vminus (dir, vscale (norm, 2.0 * vdot (dir, norm))))
                  in
                    case trace (objs, lights, point, rdir, depth - 1) of
                      RGB (x, y, z) => (kr * x, kr * y, kr * z)
                  end
                else (0.0, 0.0, 0.0)
              val (tr, tg, tb) =
                if kt > 0.0 andalso depth > 0 then
                  case trace (objs, lights, vplus (point, vscale (dir, 0.001)), dir, depth - 1) of
                    RGB (x, y, z) => (kt * x, kt * y, kt * z)
                else (0.0, 0.0, 0.0)
            in
              RGB (br + rr + tr, bg + rg + tg, bb + rb + tb)
            end
      end

val main : (olist * llist * int) -> ((color $C) vector) vector =
  fn (objs, lights, size) =>
    vtabulate (size, fn py =>
      vtabulate (size, fn px =>
        let
          val fx = (toReal px + 0.5) / toReal size - 0.5
          val fy = 0.5 - (toReal py + 0.5) / toReal size
          val dir = vunit (fx, fy, 1.0)
        in
          trace (objs, lights, (0.0, 0.0, ~3.0), dir, 3)
        end))
"""


# ----------------------------------------------------------------------
# Surface presets (mirroring the paper's change kinds: color changes and
# diffuse <-> mirror toggles)


def diffuse_surface(rgb: Tuple[float, float, float]) -> tuple:
    cr, cg, cb = rgb
    return (cr, cg, cb, 0.9, 0.2, 0.0, 0.0)


def mirror_surface(rgb: Tuple[float, float, float]) -> tuple:
    cr, cg, cb = rgb
    return (cr, cg, cb, 0.3, 0.5, 0.7, 0.0)


def glass_surface(rgb: Tuple[float, float, float]) -> tuple:
    cr, cg, cb = rgb
    return (cr, cg, cb, 0.2, 0.3, 0.0, 0.7)


#: Surface groups A..G with member sphere counts summing to 18.
GROUP_SIZES = {"A": 4, "B": 3, "C": 3, "D": 2, "E": 2, "F": 2, "G": 2}
GROUP_COLORS = {
    "A": (0.2, 0.8, 0.2),
    "B": (0.8, 0.2, 0.2),
    "C": (0.2, 0.3, 0.9),
    "D": (0.9, 0.8, 0.1),
    "E": (0.7, 0.3, 0.8),
    "F": (0.2, 0.8, 0.8),
    "G": (0.9, 0.5, 0.2),
}
GROUPS = list(GROUP_SIZES)


@dataclass
class SceneDescription:
    """Host-side scene: geometry plus per-group surface tuples."""

    spheres: List[Tuple[Tuple[float, float, float], float, str]]
    plane: Tuple[Tuple[float, float, float], float]
    lights: List[tuple]
    surfaces: Dict[str, tuple]
    plane_surface: tuple
    size: int

    def copy(self) -> "SceneDescription":
        return SceneDescription(
            spheres=list(self.spheres),
            plane=self.plane,
            lights=list(self.lights),
            surfaces=dict(self.surfaces),
            plane_surface=self.plane_surface,
            size=self.size,
        )


#: Sphere placements per group: (center, radius) lists.  Group A (the
#: paper's "four green balls") sits front and large; later groups shrink
#: and recede, giving a spread of affected-pixel fractions like Table 2's.
_PLACEMENTS = {
    "A": [((-0.9, -0.3, 2.0), 0.75), ((0.9, -0.3, 2.0), 0.75),
          ((-0.35, 0.45, 2.3), 0.6), ((0.35, 0.45, 2.3), 0.6)],
    "B": [((-2.0, 0.1, 2.6), 0.62), ((-1.6, 1.0, 2.9), 0.5),
          ((-2.3, -0.7, 2.2), 0.45)],
    "C": [((2.0, 0.1, 2.6), 0.62), ((1.6, 1.0, 2.9), 0.5),
          ((2.3, -0.7, 2.2), 0.45)],
    "D": [((-0.5, 1.4, 3.4), 0.42), ((0.5, 1.4, 3.4), 0.42)],
    "E": [((-1.1, -0.85, 1.6), 0.33), ((1.1, -0.85, 1.6), 0.33)],
    "F": [((-0.9, 1.9, 4.2), 0.55), ((0.9, 1.9, 4.2), 0.55)],
    "G": [((0.0, 1.1, 4.8), 0.8), ((0.0, -0.6, 4.6), 0.7)],
}


def standard_scene(size: int) -> SceneDescription:
    """The paper's scene shape: 3 lights, 1 plane + 18 spheres in groups."""
    spheres = []
    for group in GROUPS:
        for center, radius in _PLACEMENTS[group]:
            spheres.append((center, radius, group))
    lights = [
        ("point", (3.0, 4.0, -2.0), (0.7, 0.7, 0.7)),
        ("point", (-3.0, 3.0, -1.0), (0.4, 0.4, 0.5)),
        ("dir", (0.0, -1.0, 0.5), (0.25, 0.25, 0.2)),
    ]
    surfaces = {g: diffuse_surface(GROUP_COLORS[g]) for g in GROUPS}
    surfaces["A"] = mirror_surface(GROUP_COLORS["A"])
    return SceneDescription(
        spheres=spheres,
        plane=((0.0, 1.0, 0.0), -1.0),
        lights=lights,
        surfaces=surfaces,
        plane_surface=diffuse_surface((0.7, 0.7, 0.7)),
        size=size,
    )


# ----------------------------------------------------------------------
# Marshalling


def _lml_lights(lights: Sequence[tuple]) -> ConValue:
    value = ConValue("LNil")
    for kind, a, b in reversed(list(lights)):
        tag = "PointL" if kind == "point" else "DirL"
        value = ConValue("LCons", (ConValue(tag, (a, b)), value))
    return value


class SceneInput:
    """Builds the LML scene value with one shared surface mod per group."""

    def __init__(self, engine: Optional[Engine], scene: SceneDescription) -> None:
        self.engine = engine
        self.scene = scene.copy()
        self.group_mods: Dict[str, Modifiable] = {}

        def surf_value(data: tuple):
            return ConValue("Surface", tuple(data))

        def boxed(group: str):
            if engine is None:
                return surf_value(self.scene.surfaces[group])
            if group not in self.group_mods:
                self.group_mods[group] = engine.make_input(
                    surf_value(self.scene.surfaces[group])
                )
            return self.group_mods[group]

        objs = ConValue("ONil")
        plane_surf = (
            surf_value(self.scene.plane_surface)
            if engine is None
            else engine.make_input(surf_value(self.scene.plane_surface))
        )
        objs = ConValue(
            "OCons",
            (ConValue("Plane", (self.scene.plane[0], self.scene.plane[1], plane_surf)), objs),
        )
        for center, radius, group in reversed(self.scene.spheres):
            sphere = ConValue("Sphere", (center, radius, boxed(group)))
            objs = ConValue("OCons", (sphere, objs))
        self.value = (objs, _lml_lights(self.scene.lights), self.scene.size)

    # -- changes ----------------------------------------------------------

    def set_group(self, group: str, surface: tuple) -> None:
        self.scene.surfaces[group] = surface
        if self.engine is not None:
            self.engine.change(self.group_mods[group], ConValue("Surface", surface))

    def toggle(self, group: str) -> str:
        """Toggle a group between diffuse and mirror; returns the new kind."""
        current = self.scene.surfaces[group]
        color = current[:3]
        if current[5] > 0.0:  # currently reflective -> diffuse
            self.set_group(group, diffuse_surface(color))
            return "diffuse"
        self.set_group(group, mirror_surface(color))
        return "mirror"

    def data(self) -> SceneDescription:
        return self.scene.copy()


# ----------------------------------------------------------------------
# Python reference tracer (Section 4.3 verifier) -- mirrors the LML code
# operation for operation, including float association.

_EPS = 0.0001
_BG = (0.1, 0.1, 0.2)


def _vplus(a, b):
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2])


def _vminus(a, b):
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def _vscale(a, k):
    return (a[0] * k, a[1] * k, a[2] * k)


def _vdot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _vunit(v):
    return _vscale(v, 1.0 / math.sqrt(_vdot(v, v)))


def _isect(obj, orig, direction):
    kind = obj[0]
    if kind == "sphere":
        _, center, radius = obj[:3]
        oc = _vminus(orig, center)
        b = _vdot(oc, direction)
        disc = b * b - (_vdot(oc, oc) - radius * radius)
        if disc < 0.0:
            return -1.0
        sq = math.sqrt(disc)
        t1 = -b - sq
        return t1 if t1 > _EPS else -b + sq
    _, n, d = obj[:3]
    denom = _vdot(n, direction)
    if -1e-8 < denom < 1e-8:
        return -1.0
    return (d - _vdot(n, orig)) / denom


def _nearest(objs, orig, direction):
    best = None
    # Mirror the LML recursion: later objects (deeper recursion) computed
    # first; an earlier object replaces the best only when strictly closer.
    for obj in reversed(objs):
        t = _isect(obj, orig, direction)
        if t < _EPS:
            continue
        if best is None or t < best[0]:
            best = (t, obj)
    return best


def _blocked(objs, orig, direction, maxt):
    return any(
        _EPS < _isect(obj, orig, direction) < maxt for obj in objs
    )


def _lightsum(lights, objs, point, norm, vdir, kd, ks):
    acc = (0.0, 0.0, 0.0)
    for kind, a, intens in reversed(list(lights)):
        if kind == "point":
            d = _vminus(a, point)
            dist = math.sqrt(_vdot(d, d))
            ldir = _vunit(d)
        else:
            ldir = _vunit(_vscale(a, -1.0))
            dist = 1000000.0
        c = _vdot(norm, ldir)
        if c <= 0.0:
            continue
        if _blocked(objs, point, ldir, dist):
            continue
        h = _vunit(_vminus(ldir, vdir))
        spec = _vdot(norm, h)
        sp = ks * math.pow(spec, 8.0) if spec > 0.0 else 0.0
        acc = _vplus(acc, _vplus(_vscale(intens, kd * c), _vscale(intens, sp)))
    return acc


def _trace(objs, lights, surfaces, orig, direction, depth):
    hit = _nearest(objs, orig, direction)
    if hit is None:
        return _BG
    t, obj = hit
    point = _vplus(orig, _vscale(direction, t))
    if obj[0] == "sphere":
        norm = _vunit(_vminus(point, obj[1]))
    else:
        norm = obj[1]
    if _vdot(norm, direction) > 0.0:
        norm = _vscale(norm, -1.0)
    cr, cg, cb, kd, ks, kr, kt = surfaces[obj[3]]
    lr, lg, lb = _lightsum(lights, objs, point, norm, direction, kd, ks)
    base = (cr * (0.1 + lr), cg * (0.1 + lg), cb * (0.1 + lb))
    refl = (0.0, 0.0, 0.0)
    if kr > 0.0 and depth > 0:
        rdir = _vunit(_vminus(direction, _vscale(norm, 2.0 * _vdot(direction, norm))))
        refl = _vscale(_trace(objs, lights, surfaces, point, rdir, depth - 1), kr)
    tran = (0.0, 0.0, 0.0)
    if kt > 0.0 and depth > 0:
        tran = _vscale(
            _trace(
                objs, lights, surfaces,
                _vplus(point, _vscale(direction, 0.001)), direction, depth - 1,
            ),
            kt,
        )
    return (
        base[0] + refl[0] + tran[0],
        base[1] + refl[1] + tran[1],
        base[2] + refl[2] + tran[2],
    )


def reference_render(scene: SceneDescription) -> List[List[tuple]]:
    """Render the scene with the pure-Python reference tracer."""
    objs = [("plane", scene.plane[0], scene.plane[1], "__plane__")]
    for center, radius, group in scene.spheres:
        objs.append(("sphere", center, radius, group))
    # The LML object list is plane first then spheres (construction order).
    surfaces = dict(scene.surfaces)
    surfaces["__plane__"] = scene.plane_surface
    size = scene.size
    image = []
    for py in range(size):
        row = []
        for px in range(size):
            fx = (px + 0.5) / size - 0.5
            fy = 0.5 - (py + 0.5) / size
            direction = _vunit((fx, fy, 1.0))
            row.append(
                _trace(objs, scene.lights, surfaces, (0.0, 0.0, -3.0), direction, 3)
            )
        image.append(row)
    return image


# ----------------------------------------------------------------------
# App wiring


def readback_image(output) -> List[List[tuple]]:
    """Runtime image value -> rows of (r, g, b) tuples."""
    raw = deep_read(output)
    return [[pixel[1] for pixel in row] for row in raw]


def image_diff_fraction(a, b) -> float:
    """Fraction of pixels that differ between two images."""
    total = 0
    changed = 0
    for ra, rb in zip(a, b):
        for pa, pb in zip(ra, rb):
            total += 1
            if any(abs(x - y) > 1e-12 for x, y in zip(pa, pb)):
                changed += 1
    return changed / total if total else 0.0


def _ray_change(handle: SceneInput, rng: random.Random, step: int) -> None:
    handle.toggle(rng.choice(GROUPS))


def make_app() -> App:
    # The app's data is the scene as a plain tuple (``astuple``), which
    # marshal can write into a checkpoint; SceneDescription(*data) builds
    # the object where one is needed.
    def make_data(n: int, rng: random.Random) -> tuple:
        return astuple(standard_scene(n))

    def make_sa_input(engine: Engine, data: tuple):
        handle = SceneInput(engine, SceneDescription(*data))
        return handle.value, handle

    def make_conv_input(data: tuple):
        return SceneInput(None, SceneDescription(*data)).value

    return App(
        name="raytracer",
        source=RAYTRACER_SOURCE,
        make_data=make_data,
        make_sa_input=make_sa_input,
        make_conv_input=make_conv_input,
        apply_change=_ray_change,
        reference=lambda data: reference_render(SceneDescription(*data)),
        readback=readback_image,
        handle_data=lambda handle: astuple(handle.scene),
    )
