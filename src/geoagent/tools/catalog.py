"""The full tool catalog: every toolkit operation registered under its
public name with a strict parameter schema.

Each tool is one `Tool` row naming a kit function, served by one of two
generic handlers (`_raster_handler`, `_batch_handler`); the few rows that do
not fit carry a handler of their own. Each parameter's path kind and row
width are derived from its name once, in `P`. Handlers get their arguments
as the registry converts them (a number array as one float64 array, a list
of number rows as one 2-D array), and each path argument as
`ToolRegistry.call_tool` resolves it by its kind with `Workspace.resolve`,
after `validate_args`, so handlers see resolved paths only. Outputs are
confined to the workspace and reported as "Result saved at <path>".
"""

from __future__ import annotations

import itertools
import os
from dataclasses import asdict, dataclass
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from ..kits import analysis as an
from ..kits import index as ix
from ..kits import inversion as inv
from ..kits import perception as perc
from ..kits import statistics as st
from ..raster import (Raster, like, load_raster, map_rows, require_same_grid, save_raster,
                      temporary_beside)
from ..workspace import Workspace
from ..errors import GeoAgentError, InvalidInputError
from .registry import NOT_FINITE, ParamSpec, ToolRegistry, ToolResult, ToolSpec, ok_result


@dataclass
class ToolContext:
    workspace: Workspace
    perception: perc.ExpertBackend


def _path_kind(name: str, type_: str, items: str | None) -> str | None:
    """The `Workspace.resolve` kind a parameter takes, by the catalog's
    naming rule, or None for a parameter that is not a path."""
    if type_ == "array" and items == "string" and name.endswith("_paths"):
        return "files"
    if type_ != "string":
        return None
    named = {"output_path": "out_file", "output_dir": "out_dir", "directory": "dir"}
    return named.get(name, "file" if "path" in name else None)


# an array of number rows, by parameter name -> the row length
ROW_WIDTHS = {"bboxes": 4, "centroids": 2}


def P(name: str, type_: str, required: bool = True, desc: str = "",
      enum: dict | None = None, items: str | None = None,
      nullable_items: bool = False) -> ParamSpec:
    return ParamSpec(name=name, type=type_, required=required,
                     description=desc, enum=enum, item_type=items,
                     item_nullable=nullable_items,
                     kind=_path_kind(name, type_, items),
                     width=ROW_WIDTHS.get(name) if items == "array" else None)


class Tool(NamedTuple):
    """One catalog row.

    `fn` gets the required arguments positionally in parameter order, each
    `file` or `files` parameter loaded as a raster or list of rasters, a
    `dir` parameter as its resolved path, and the optional arguments that
    were given as keywords: the kit signature owns every default. The value
    is returned, or saved to the `out_file` parameter. With `like` set,
    rasters arrive as float64 bands and the array result takes the
    georeference of that parameter's (first) raster. A `like` row whose `fn`
    is per pixel (each output pixel depends only on the input pixels at the
    same place) sets `per_pixel`, and `fn` then runs over blocks of rows
    (`map_rows`); neighbourhoods, fitted edges and iterations to a
    whole-array tolerance are not per pixel. Without `like` or `prefix`, a
    `files` parameter reaches `fn` as `_Loading`, which loads each raster
    as the iteration reaches it, so a kit that lets go of each image
    before it takes the next holds one at a time. With `prefix` set, the
    tool is a batch (see `_batch_handler`). A row with `handler` bypasses all of
    this, but it too receives its path arguments resolved.
    """

    name: str
    description: str
    params: tuple[ParamSpec, ...]
    fn: Callable | None = None
    like: str | None = None
    per_pixel: bool = False
    prefix: str | None = None
    handler: Callable[[dict], ToolResult] | None = None


def _save(raster: Raster, out: Path) -> ToolResult:
    save_raster(raster, out)
    return ok_result(value=str(out), text=f"Result saved at {out}", files=[str(out)])


class _Loading:
    """The rasters at `paths`, each loaded when an iteration reaches it and
    held by nothing here: what a `files` parameter of a row without `like`
    or `prefix` gives its kit."""

    def __init__(self, paths: list[Path]) -> None:
        self.paths = paths

    def __len__(self) -> int:
        return len(self.paths)

    def __iter__(self):
        for path in self.paths:
            yield load_raster(path)


def _as_list(value: Raster | list[Raster]) -> list[Raster]:
    return value if isinstance(value, list) else [value]


def _bands(value: Raster | list[Raster]):
    return [r.band() for r in value] if isinstance(value, list) else value.band()


def _call(tool: Tool, args: dict):
    """Load the input files in parameter order and call `tool.fn`."""
    inputs, given, loaded = {}, {}, []
    for p in tool.params:
        if not p.required:
            if p.name in args:
                given[p.name] = args[p.name]
        elif p.kind not in ("out_file", "out_dir"):
            value = args[p.name]
            if p.kind == "files" and tool.like is None and tool.prefix is None:
                value = _Loading(value)
            elif p.kind in ("file", "files"):
                value = ([load_raster(v) for v in value] if isinstance(value, list)
                         else load_raster(value))
                loaded.append(p.name)
            inputs[p.name] = value
    if tool.like is None:
        return tool.fn(*inputs.values(), **given)
    # the kit gets bare arrays, so the grids are checked here
    require_same_grid(*(r for name in loaded for r in _as_list(inputs[name])))
    template = _as_list(inputs[tool.like])[0]
    if tool.per_pixel:
        return map_rows(partial(tool.fn, **given), list(inputs.values()), template)
    for name in loaded:
        inputs[name] = _bands(inputs[name])
    return like(template, tool.fn(*inputs.values(), **given))


def _raster_handler(tool: Tool) -> Callable[[dict], object]:
    out = next((p.name for p in tool.params if p.kind == "out_file"), None)

    def handler(args: dict):
        value = _call(tool, args)
        return value if out is None else _save(value, args[out])

    return handler


def _item(i: int, fn: Callable, item):
    """`fn` of batch item i; an error names the item it came from."""
    try:
        return fn(item)
    except GeoAgentError as exc:
        raise type(exc)(f"batch item {i}: {exc}") from exc


def _batch_handler(tool: Tool, resolve: Callable) -> Callable[[dict], ToolResult]:
    """Call `tool.fn` once per item of the equal-length `files` lists and
    save item i as <out_dir>/<prefix>_<stem of its first path>.tif, a path
    that `resolve` checks as an `out_file` like any other. Every item's
    output is named before any kit runs, and two items that would share a
    name are refused.

    Item i is computed and written before item i + 1 is loaded, each to a
    temporary file beside its output. The temporaries replace the outputs
    only once every item has succeeded, so a failed call leaves no output
    (nor a directory it made), and no item reads another item's output."""
    lists = [p.name for p in tool.params if p.kind == "files"]
    out_dir = next(p.name for p in tool.params if p.kind == "out_dir")

    def handler(args: dict) -> ToolResult:
        lengths = {len(args[n]) for n in lists}
        if len(lengths) != 1:
            raise InvalidInputError(
                f"band path lists must have equal lengths, got {sorted(lengths)}")

        def output(item) -> Path:
            return resolve(args[out_dir] / f"{tool.prefix}_{item[0].stem}.tif", "out_file")

        def computed(item) -> Raster:
            return _call(tool, {**args, **dict(zip(lists, item))})

        items = list(zip(*(args[n] for n in lists)))
        outs = [_item(i, output, item) for i, item in enumerate(items)]
        first: dict[Path, int] = {}
        for i, out in enumerate(outs):
            if first.setdefault(out, i) != i:
                raise InvalidInputError(f"batch items {first[out]} and {i} would "
                                        f"both be saved as {out.name}")
        temps = [temporary_beside(out) for out in outs]
        # the directories the first save makes, innermost first
        made = list(itertools.takewhile(lambda d: not d.exists(), outs[0].parents))
        try:
            for i, (item, temp) in enumerate(zip(items, temps)):
                save_raster(_item(i, computed, item), temp)
            for temp, out in zip(temps, outs):
                os.replace(temp, out)
        except BaseException:
            for temp in temps:
                temp.unlink(missing_ok=True)
            for d in made:
                try:
                    d.rmdir()
                except OSError:
                    break
            raise
        names = [str(o) for o in outs]
        return ok_result(value=names, text="\n".join(f"Result saved at {o}" for o in names),
                         files=names)

    return handler


def catalog_rows(ctx: ToolContext) -> list[Tool]:
    """Every catalog row, in registration order."""
    return (_index_tools() + _inversion_tools() + _perception_tools(ctx)
            + _analysis_tools() + _statistics_tools())


def build_registry(ctx: ToolContext) -> ToolRegistry:
    # the rows look kit functions up now, so replacements made before this
    # call (tracing, tests) take effect
    tools = []
    for tool in catalog_rows(ctx):
        if tool.handler is not None:
            handler = tool.handler
        elif tool.prefix is not None:
            handler = _batch_handler(tool, ctx.workspace.resolve)
        else:
            handler = _raster_handler(tool)
        tools.append((ToolSpec(tool.name, tool.description, tool.params), handler))
    return ToolRegistry(tools, ctx.workspace)


def _record(fn: Callable, names: tuple[str, ...] | None = None) -> Callable:
    """`fn` returning a JSON object: a dataclass result by its fields, a
    tuple result keyed by `names`."""
    def call(*args, **kwargs):
        out = fn(*args, **kwargs)
        return dict(zip(names, out)) if names else asdict(out)

    return call


# ---------------------------------------------------------------------------
# Index kit
# ---------------------------------------------------------------------------


def _index_tools() -> list[Tool]:
    ndvi_roles, ndvi = ix.INDICES["ndvi"]
    return [
        *(Tool(f"calculate_batch_{kind}",
               f"Compute {kind.upper()} for each scene in a batch of "
               f"{'/'.join(r.upper() for r in roles)} raster files and "
               "save the results.",
               tuple(P(f"{r}_paths", "array", True, items="string",
                       desc=f"{r.upper()} band raster paths, one per scene")
                     for r in roles)
               + (P("output_dir", "string", True,
                    "directory for the output rasters, relative to the workspace"),),
               partial(ix.compute_index, formula), prefix=kind)
          for kind, (roles, formula) in ix.INDICES.items()),
        Tool("calculate_batch_fvc",
             "Compute fractional vegetation cover from NIR/Red pairs "
             "via squared clamped NDVI scaling and save the results.",
             (*(P(f"{r}_paths", "array", items="string") for r in ndvi_roles),
              P("output_dir", "string"),
              P("ndvi_min", "number", False, "bare-soil NDVI endpoint"),
              P("ndvi_max", "number", False, "full-vegetation NDVI endpoint")),
             lambda *rasters, **kw: ix.compute_fvc(ix.compute_index(ndvi, *rasters), **kw),
             prefix="fvc"),
        Tool("calculate_batch_frp",
             "Build binary fire-radiative-power masks (1 where FRP "
             "exceeds the threshold) for a batch of rasters.",
             (P("frp_paths", "array", items="string"),
              P("threshold", "number", desc="radiance threshold, strict greater"),
              P("output_dir", "string")),
             ix.frp_mask, prefix="frp"),
        Tool("calc_extreme_snow_loss_percentage_from_binary_map",
             "Percentage of 1-pixels in a binary snow/ice loss map.",
             (P("binary_map_path", "string"),),
             ix.extreme_snow_loss_percentage),
        Tool("compute_tvdi",
             "Temperature-vegetation dryness index from NDVI and LST "
             "rasters, using dry/wet edges fitted over NDVI bins.",
             (P("ndvi_path", "string"),
              P("lst_path", "string"),
              P("output_path", "string"),
              P("bins", "integer", False, "NDVI bin count for the edge fit")),
             ix.compute_tvdi, like="ndvi_path"),
    ]


# ---------------------------------------------------------------------------
# Inversion kit
# ---------------------------------------------------------------------------


def _inversion_tools() -> list[Tool]:
    def ttm(args: dict) -> ToolResult:
        rasters = [load_raster(p) for p in args["band_paths"]]
        require_same_grid(*rasters)
        out, failures = inv.ttm_lst([r.band() for r in rasters])
        result = _save(like(rasters[0], out), args["output_path"])
        if failures:
            result.text += f"\n{failures} pixel(s) did not converge and are nodata"
        return result

    return [
        Tool("band_ratio",
             "Precipitable water vapor from the absorption/window "
             "band transmittance ratio.",
             (P("absorption_band_path", "string"),
              P("window_band_path", "string"),
              P("output_path", "string"),
              P("alpha", "number", False),
              P("beta", "number", False)),
             inv.pwv_band_ratio, like="window_band_path", per_pixel=True),
        Tool("lst_single_channel",
             "Land surface temperature by single-channel emissivity "
             "correction, with NDVI-threshold emissivity from red/NIR.",
             (P("bt_path", "string", desc="thermal brightness temperature raster"),
              P("red_path", "string"),
              P("nir_path", "string"),
              P("output_path", "string"),
              P("wavelength", "number", False, "band wavelength in meters")),
             inv.single_channel_lst, like="bt_path", per_pixel=True),
        Tool("lst_multi_channel",
             "Land surface temperature from two thermal bands near "
             "11 and 12 micrometers via the linear two-band correction.",
             (P("band31_path", "string", desc="thermal band near 11 um"),
              P("band32_path", "string", desc="thermal band near 12 um"),
              P("output_path", "string"),
              P("a", "number", False),
              P("b", "number", False),
              P("c", "number", False)),
             inv.multi_channel_lst, like="band31_path", per_pixel=True),
        Tool("split_window",
             "Land surface temperature by the generalized split-window "
             "combination of two thermal bands.",
             (P("band31_path", "string"),
              P("band32_path", "string"),
              P("output_path", "string"),
              P("c0", "number", False),
              P("c1", "number", False),
              P("c2", "number", False)),
             inv.split_window_lst, like="band31_path", per_pixel=True),
        Tool("temperature_emissivity_separation",
             "Land surface temperature by iterative temperature/"
             "emissivity separation over three thermal bands.",
             (P("band_paths", "array", items="string", desc="three thermal band raster paths"),
              P("output_path", "string")),
             inv.tes_lst, like="band_paths"),
        Tool("modis_day_night_lst",
             "Diurnal-mean land surface temperature from day and "
             "night brightness temperatures with a fixed-emissivity "
             "single-channel correction.",
             (P("day_path", "string"),
              P("night_path", "string"),
              P("output_path", "string"),
              P("emissivity", "number", False)),
             inv.modis_day_night_lst, like="day_path", per_pixel=True),
        Tool("ttm_lst",
             "Land surface temperature and emissivity from three "
             "thermal bands, solved per pixel under physical bounds; "
             "non-convergent pixels become nodata.",
             (P("band_paths", "array", items="string", desc="three thermal band raster paths"),
              P("output_path", "string")),
             handler=ttm),
        *(Tool(f"calculate_{stat}_lst_by_ndvi",
               f"{stat.capitalize()} land surface temperature over "
               "pixels whose paired NDVI is above or below a "
               "threshold, pooled across all image pairs.",
               (P("lst_paths", "array", items="string"),
                P("ndvi_paths", "array", items="string"),
                P("threshold", "number"),
                P("direction", "string", False, enum=st.DIRECTIONS)),
               partial(inv.lst_stat_by_ndvi, reduce))
          for stat, reduce in (("mean", np.mean), ("max", np.max))),
        Tool("ATI",
             "Apparent thermal inertia (1 - albedo) / (day - night "
             "temperature); non-positive diurnal range becomes nodata.",
             (P("albedo_path", "string"),
              P("day_temp_path", "string"),
              P("night_temp_path", "string"),
              P("output_path", "string")),
             inv.ati, like="albedo_path", per_pixel=True),
        Tool("dual_polarization_differential",
             "Linear dual-polarization differential inversion: "
             "alpha * (V - H) + beta over brightness temperatures.",
             (P("v_path", "string", desc="vertical polarization raster"),
              P("h_path", "string", desc="horizontal polarization raster"),
              P("output_path", "string"),
              P("alpha", "number", False),
              P("beta", "number", False)),
             inv.linear_difference_model, like="v_path", per_pixel=True),
        Tool("dual_frequency_diff",
             "Linear dual-frequency differential inversion "
             "alpha * (band1 - band2) + beta; the target label "
             "(soil moisture, vegetation index, leaf area index) "
             "only annotates the output.",
             (P("band1_path", "string"),
              P("band2_path", "string"),
              P("output_path", "string"),
              P("alpha", "number", False),
              P("beta", "number", False),
              P("target", "string", False, enum={t: t for t in ("SM", "VI", "LAI")})),
             lambda b1, b2, target=None, **kw: inv.linear_difference_model(b1, b2, **kw),
             like="band1_path", per_pixel=True),
        Tool("multi_freq_bt",
             "Weighted linear combination of multi-frequency "
             "brightness temperatures plus an intercept.",
             (P("band_paths", "array", items="string"),
              P("output_path", "string"),
              P("coefficients", "array", False, items="number"),
              P("intercept", "number", False)),
             inv.multi_freq_bt, like="band_paths", per_pixel=True),
        Tool("chang_single_param_inversion",
             "Snow depth in centimeters from the 18H/37H brightness "
             "temperature difference.",
             (P("tb_18h_path", "string"),
              P("tb_37h_path", "string"),
              P("output_path", "string"),
              P("coefficient", "number", False)),
             inv.chang_snow_depth, like="tb_18h_path", per_pixel=True),
        Tool("nasa_team_sea_ice_concentration",
             "Sea-ice concentration (percent) from 19V/19H/37V "
             "passive microwave brightness temperatures via the "
             "two-ice-type tie-point mixing model.",
             (P("tb_19v_path", "string"),
              P("tb_19h_path", "string"),
              P("tb_37v_path", "string"),
              P("output_path", "string"),
              P("tie_points", "object", False,
                "override tie points: open_water/first_year/multi_year, "
                "each [19V, 19H, 37V]")),
             inv.nasa_team_sic, like="tb_19v_path", per_pixel=True),
        Tool("dual_polarization_ratio",
             "Polarization ratio (V - H) / (V + H) of two "
             "brightness-temperature rasters.",
             (P("v_path", "string"),
              P("h_path", "string"),
              P("output_path", "string")),
             inv.polarization_ratio, like="v_path", per_pixel=True),
        Tool("calculate_water_turbidity_ntu",
             "Water turbidity in nephelometric turbidity units from "
             "red-band reflectance.",
             (P("red_band_path", "string"),
              P("output_path", "string"),
              P("a", "number", False),
              P("c", "number", False)),
             inv.turbidity_ntu, like="red_band_path", per_pixel=True),
    ]


# ---------------------------------------------------------------------------
# Perception kit
# ---------------------------------------------------------------------------


def _perception_tools(ctx: ToolContext) -> list[Tool]:
    def expert(model: str, task: str, image_params: tuple[str, ...]):
        def handler(args: dict) -> ToolResult:
            paths = [args[p] for p in image_params]
            out = ctx.perception.call(model, task, paths, args.get("prompt"))
            return ok_result(value=out, files=[out["mask"]] if "mask" in out else [])

        return handler

    # (tool name, task, image params, has prompt, description)
    experts = (
        ("MSCN", "classify", ("image_path",), False,
         "Scene and land-use classification over a broad label set."),
        ("RemoteCLIP", "classify", ("image_path",), False,
         "Scene and land-use classification over a compact label set."),
        ("SM3Det", "detect", ("image_path",), True,
         "Prompted object detection returning bounding boxes."),
        ("Strip_R_CNN", "detect", ("image_path",), True,
         "Prompted detection specialized for ship and vessel classes."),
        ("RemoteSAM", "ground", ("image_path",), True,
         "Visual grounding: a text prompt selects one bounding box."),
        ("InstructSAM", "count", ("image_path",), True,
         "Prompted instance counting."),
        ("SAM2", "segment", ("image_path",), False,
         "Class-agnostic segmentation returning a mask raster path."),
        ("ChangeOS", "change", ("pre_image_path", "post_image_path"), False,
         "Change detection between two epochs returning a change mask; "
         "passing the same path twice yields a building segmentation."),
    )
    return [
        *(Tool(name, desc,
               tuple(P(p, "string") for p in image_params)
               + ((P("prompt", "string", True, "natural-language target"),)
                  if has_prompt else ()),
               handler=expert(name, task, image_params))
          for name, task, image_params, has_prompt, desc in experts),
        Tool("threshold_segmentation",
             "Binary segmentation of a single-band raster: values "
             "strictly greater than the threshold become 255, the "
             "rest become 0.",
             (P("image_path", "string"),
              P("threshold", "number"),
              P("output_path", "string")),
             perc.threshold_segmentation),
        Tool("bbox_expansion",
             "Expand [x_min, y_min, x_max, y_max] boxes by a radius, "
             "clamped to the image bounds when given.",
             (P("bboxes", "array", items="array"),
              P("radius", "number"),
              P("image_width", "integer", False),
              P("image_height", "integer", False)),
             perc.expand_bboxes),
        Tool("count_above_threshold",
             "Count pixels strictly greater than a threshold in a "
             "single-band raster.",
             (P("image_path", "string"), P("threshold", "number")),
             perc.count_above_threshold),
        Tool("count_skeleton_contours",
             "Erode a binary image, thin it to a skeleton, and count "
             "the connected skeleton pieces.",
             (P("image_path", "string"),),
             perc.count_skeleton_contours),
        Tool("bboxes2centroids",
             "Centers (x, y) of [x_min, y_min, x_max, y_max] boxes.",
             (P("bboxes", "array", items="array"),),
             perc.bbox_centroids),
        Tool("centroid_distance_extremes",
             "Closest and farthest centroid pairs with their indices "
             "and distances.",
             (P("centroids", "array", items="array"),),
             perc.centroid_distance_extremes),
        Tool("calculate_bbox_area",
             "Total area of boxes given in [x, y, width, height] form.",
             (P("bboxes", "array", items="array"),),
             perc.total_bbox_area),
    ]


# ---------------------------------------------------------------------------
# Analysis kit
# ---------------------------------------------------------------------------


def _analysis_tools() -> list[Tool]:
    def stl(args: dict) -> ToolResult:
        dec = an.stl_decompose(args["values"], period=args["period"])
        if not np.isfinite([dec.trend, dec.seasonal, dec.residual]).all():
            raise InvalidInputError(NOT_FINITE)
        return ok_result(value={
            "trend": dec.trend.tolist(),
            "seasonal": dec.seasonal.tolist(),
            "residual": dec.residual.tolist(),
        }, text=f"decomposed {len(dec.trend)} samples at period {args['period']}")

    series = P("values", "array", items="number", nullable_items=True)
    return [
        Tool("compute_linear_trend",
             "Least-squares line fit of a series; null entries are "
             "treated as missing.",
             (series, P("timestamps", "array", False, items="number")),
             _record(an.linear_trend)),
        Tool("mann_kendall_test",
             "Non-parametric monotonic trend test on a series: S "
             "statistic, tie-corrected variance, tau, z-score, "
             "two-sided p-value, and a trend label.",
             (series, P("alpha", "number", False)),
             _record(an.mann_kendall)),
        Tool("sens_slope",
             "Median of all pairwise slopes of a series: a robust "
             "rate-of-change estimate.",
             (series, P("timestamps", "array", False, items="number")),
             an.sens_slope),
        Tool("stl_decompose",
             "Additive seasonal-trend decomposition of a series by "
             "repeated local regression smoothing.",
             (series, P("period", "integer")),
             handler=stl),
        Tool("detect_change_points",
             "Penalized optimal segmentation of a series under a "
             "piecewise-constant-mean cost; returns interior "
             "breakpoint indices.",
             (series, P("penalty", "number")),
             an.detect_change_points),
        Tool("autocorrelation_function",
             "Autocorrelation of a series at lags 0..max_lag.",
             (series, P("max_lag", "integer")),
             an.acf),
        Tool("detect_seasonality_acf",
             "Dominant period detected as the first significant "
             "autocorrelation peak past lag 1, if any.",
             (series, P("max_lag", "integer", False)),
             lambda values, **kw: {"period": an.detect_seasonality_acf(values, **kw)}),
        Tool("getis_ord_gi_star",
             "Local hot/cold-spot z-scores over a raster using a "
             "binary square neighborhood including the center.",
             (P("image_path", "string"),
              P("output_path", "string"),
              P("kernel_radius", "integer", False)),
             an.gi_star_zscores, like="image_path"),
        Tool("analyze_hotspot_direction",
             "Dominant cardinal sector of 1-pixels in a binary map "
             "relative to the map center, with per-direction counts.",
             (P("image_path", "string"),),
             _record(an.hotspot_direction, ("direction", "counts"))),
        Tool("count_spikes_from_values",
             "Count increases between consecutive valid values that "
             "exceed a threshold.",
             (series, P("threshold", "number")),
             an.count_spikes),
    ]


# ---------------------------------------------------------------------------
# Statistics kit
# ---------------------------------------------------------------------------


def _statistics_tools() -> list[Tool]:
    images = P("image_paths", "array", items="string")
    band = P("band", "integer", False)
    a_b_out = (P("image_a_path", "string"), P("image_b_path", "string"),
               P("output_path", "string"))

    def of_images(outer: Callable, inner: str) -> Callable:
        """`outer` over the per-image `inner` statistics of a batch."""
        stat = st.IMAGE_STATS[inner]
        return lambda images, **kw: float(outer(st.batch_image_stat(images, stat, **kw)))

    return [
        *(Tool(name, blurb, (P("data", "array", items="number"),), fn)
          for name, fn, blurb in (
              ("coefficient_of_variation", st.coefficient_of_variation,
               "Standard deviation over mean of a dataset."),
              ("skewness", st.skewness, "Asymmetry of a dataset's distribution."),
              ("kurtosis", st.kurtosis,
               "Excess tailedness of a dataset relative to a normal distribution."),
              ("mean", st.mean, "Arithmetic mean of a dataset."))),
        *(Tool(f"calc_batch_image_{stat}",
               f"Per-image {stat} of valid pixel values over a "
               "batch of rasters, order preserving.",
               (images, band),
               partial(st.batch_image_stat, stat=fn))
          for stat, fn in st.IMAGE_STATS.items()),
        Tool("calc_batch_image_hotspot_percentage",
             "Per-image percentage of pixels strictly above a "
             "threshold.",
             (images, P("threshold", "number"), band),
             st.hotspot_percentages),
        Tool("calc_batch_image_hotspot_tif",
             "Binary hotspot maps where pixels BELOW the threshold "
             "become 1, preserving georeference metadata.",
             (images, P("threshold", "number"), P("output_dir", "string"), band),
             st.hotspot_map, prefix="hotspot"),
        *(Tool(name, blurb, tuple(P(n, "number") for n in argnames), fn)
          for name, argnames, fn, blurb in (
              ("difference", ("a", "b"), st.difference,
               "Absolute difference of two numbers."),
              ("division", ("a", "b"), st.division, "Quotient of two numbers."),
              ("percentage_change", ("old", "new"), st.percentage_change,
               "Relative change from old to new, in percent."),
              ("multiply", ("a", "b"), st.multiply, "Product of two numbers."),
              ("kelvin_to_celsius", ("kelvin",), st.kelvin_to_celsius,
               "Convert Kelvin to Celsius."),
              ("celsius_to_kelvin", ("celsius",), st.celsius_to_kelvin,
               "Convert Celsius to Kelvin."),
              ("ceil_number", ("value",), st.ceil_number,
               "Round a number up to an integer."))),
        Tool("max_value_and_index",
             "Maximum of a list together with its index.",
             (P("values", "array", items="number"),),
             _record(st.max_with_index, ("value", "index"))),
        Tool("min_value_and_index",
             "Minimum of a list together with its index.",
             (P("values", "array", items="number"),),
             _record(st.min_with_index, ("value", "index"))),
        Tool("get_list_object_via_indexes",
             "Select elements of a list by index.",
             (P("items", "array"), P("indexes", "array", items="integer")),
             st.list_select),
        Tool("calculate_threshold_ratio",
             "Average percentage of pixels beyond a threshold across "
             "one or more images, for a chosen band.",
             (images, P("threshold", "number"), band,
              P("comparator", "string", False, enum=st.COMPARATORS)),
             st.threshold_ratio),
        Tool("calc_batch_fire_pixels",
             "Per-image count of pixels strictly above a radiative "
             "power threshold.",
             (images, P("threshold", "number"), band),
             st.fire_pixel_counts),
        Tool("create_fire_increase_map",
             "Binary map of pixels where the after-minus-before "
             "difference exceeds a threshold.",
             (P("before_path", "string"),
              P("after_path", "string"),
              P("threshold", "number"),
              P("output_path", "string")),
             st.fire_increase_map),
        Tool("identify_fire_prone_areas",
             "Binary map of pixels at or above the N-th percentile "
             "of a hotspot-frequency map.",
             (P("hotspot_map_path", "string"),
              P("percentile", "number"),
              P("output_path", "string")),
             st.fire_prone_areas),
        Tool("get_percentile_value_from_image",
             "N-th percentile of valid pixel values, with linear "
             "interpolation between order statistics.",
             (P("image_path", "string"), P("percentile", "number"), band),
             st.percentile_value),
        Tool("image_division_mean",
             "Mean of the pixelwise quotient of two images or two "
             "bands, excluding zero denominators.",
             (P("numerator_path", "string"),
              P("denominator_path", "string"),
              P("numerator_band", "integer", False),
              P("denominator_band", "integer", False)),
             st.image_division_mean),
        Tool("calculate_intersection_percentage",
             "Percentage of pixels simultaneously satisfying a "
             "threshold condition in each of two rasters.",
             (P("image_a_path", "string"),
              P("image_b_path", "string"),
              P("threshold_a", "number"),
              P("threshold_b", "number"),
              P("comparator_a", "string", False, enum=st.COMPARATORS),
              P("comparator_b", "string", False, enum=st.COMPARATORS)),
             st.intersection_percentage),
        Tool("calc_batch_image_mean_mean",
             "Mean of the per-image mean pixel values.",
             (images, band),
             of_images(np.mean, "mean")),
        Tool("calc_batch_image_mean_max",
             "Maximum of the per-image mean pixel values.",
             (images, band),
             of_images(np.max, "mean")),
        Tool("calc_batch_image_mean_max_min",
             "Batch summary: mean of means, maximum of maxima, and "
             "minimum of minima across images.",
             (images, band),
             _record(st.batch_mean_max_min, ("mean_of_means", "max_of_maxes", "min_of_mins"))),
        Tool("calc_batch_image_mean_threshold",
             "Count or percentage of images whose band mean is above "
             "or below a threshold.",
             (images, P("threshold", "number"),
              P("direction", "string", False, enum=st.DIRECTIONS),
              P("mode", "string", False, enum=st.COUNT_MODES),
              band),
             st.images_mean_vs_threshold),
        Tool("calculate_multi_band_threshold_ratio",
             "Percentage of pixels jointly satisfying per-band "
             "threshold conditions of one raster.",
             (P("image_path", "string"),
              P("conditions", "array", items="object",
                desc="objects {band, comparator, value} combined with AND")),
             st.multi_band_threshold_ratio),
        Tool("count_pixels_satisfying_conditions",
             "Count of pixels jointly satisfying per-band threshold "
             "conditions of one raster.",
             (P("image_path", "string"), P("conditions", "array", items="object")),
             st.count_pixels_satisfying),
        Tool("count_images_exceeding_threshold_ratio",
             "Count of images whose percentage of pixels beyond a "
             "threshold exceeds a given ratio.",
             (images, P("threshold", "number"),
              P("ratio", "number", desc="percentage bar the per-image ratio must beat"),
              band, P("comparator", "string", False, enum=st.COMPARATORS)),
             st.count_images_exceeding_ratio),
        Tool("average_ratio_exceeding_threshold",
             "Average per-image exceedance percentage, restricted to "
             "images whose percentage beats a ratio threshold.",
             (images, P("threshold", "number"), P("ratio_threshold", "number"), band),
             st.average_ratio_exceeding),
        Tool("count_images_exceeding_mean_multiplier",
             "Count of images whose mean is above or below a "
             "multiple of the overall mean of image means.",
             (images, P("multiplier", "number"),
              P("direction", "string", False, enum=st.DIRECTIONS), band),
             st.count_images_vs_mean_multiplier),
        Tool("calculate_band_mean_by_condition",
             "Mean of a target raster over pixels where a condition "
             "raster satisfies a threshold.",
             (P("target_path", "string"),
              P("condition_path", "string"),
              P("comparator", "string", enum=st.COMPARATORS),
              P("threshold", "number"),
              P("target_band", "integer", False),
              P("condition_band", "integer", False)),
             st.band_mean_by_condition),
        Tool("calc_threshold_value_mean",
             "Mean of the second raster over pixels where the first "
             "raster exceeds a threshold.",
             (P("path1", "string"), P("path2", "string"), P("threshold", "number")),
             st.threshold_value_mean),
        Tool("calculate_tif_difference",
             "Pixelwise difference image_b - image_a, saved as a "
             "raster.",
             a_b_out, lambda a, b: b - a, like="image_b_path", per_pixel=True),
        Tool("subtract",
             "Pixelwise difference image_a - image_b, saved as a "
             "raster.",
             a_b_out, lambda a, b: a - b, like="image_a_path", per_pixel=True),
        Tool("calculate_area",
             "Count of nonzero valid pixels in an image.",
             (P("image_path", "string"), band),
             st.area_nonzero),
        Tool("grayscale_to_colormap",
             "Render a grayscale band through a fixed 256-entry "
             "color table as a 3-band image.",
             (P("image_path", "string"), P("output_path", "string"), band),
             st.grayscale_to_colormap),
        Tool("get_filelist",
             "Sorted list of file names in a directory, optionally "
             "filtered by a glob pattern.",
             (P("directory", "string"), P("pattern", "string", False)),
             st.get_filelist),
        Tool("radiometric_correction_sr",
             "Scale surface-reflectance digital numbers to "
             "reflectance in [0, 1].",
             (P("band_path", "string"), P("output_path", "string")),
             st.radiometric_correction_sr),
        Tool("apply_cloud_mask",
             "Mask cloud, cirrus, dilated-cloud and shadow pixels of "
             "a band to nodata using the quality band's bit flags.",
             (P("band_path", "string"),
              P("qa_pixel_path", "string"),
              P("output_path", "string")),
             st.apply_cloud_mask),
    ]
