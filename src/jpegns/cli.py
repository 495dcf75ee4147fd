"""Command-line interface.

Subcommands:
    synth         generate a synthetic RAW image (PGM + sidecar)
    develop       develop a RAW image to quantized cover coefficients
    embed         simulated embedding to a stego coefficient plane
    pseudo-embed  add the stego noise at the photo-site level
    capacity      capacity report without keeping the stego plane
    covariance    stationary covariance / operator exports as CSV
    costs         per-coefficient embedding costs
"""

import argparse
import json
import logging
import sys

import numpy as np

from . import analysis, covariance, embedder, jpeg_model, pipeline, raw_io

log = logging.getLogger("jpegns")


def _parse_key(text):
    try:
        return int(text, 16) & ((1 << 64) - 1)
    except ValueError:
        raise embedder.ConfigError(
            f"key must be a hexadecimal number, got {text!r}") from None


def _add_sensor_args(parser):
    parser.add_argument("--a1", type=float, default=0.0)
    parser.add_argument("--b1", type=float, default=0.0)
    parser.add_argument("--a2", type=float, default=1.15)
    parser.add_argument("--b2", type=float, default=-1150.0)
    parser.add_argument("--iso1", type=int, default=100)
    parser.add_argument("--iso2", type=int, default=200)


def _embed_config(args):
    return embedder.EmbedConfig(
        qf=args.qf, K=args.K, key=_parse_key(args.key),
        green_kernel=getattr(args, "green_kernel", "cross"),
        workers=getattr(args, "workers", 1))


def _write_report(report, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report.to_json_dict(), fh, indent=2)
        fh.write("\n")


def cmd_synth(args):
    spec = raw_io.SynthSpec(
        kind="constant" if args.kind == "constant" else "iid_gaussian",
        mu=args.mu, sigma=args.sigma, width=args.w, height=args.h,
        seed=args.seed)
    params = raw_io.SensorParams(a1=args.a1, b1=args.b1, a2=args.a2,
                                 b2=args.b2, iso1=args.iso1, iso2=args.iso2)
    img = raw_io.synthesize_raw(spec, params, bit_depth=args.bit_depth,
                                cfa=args.cfa)
    raw_io.write_raw(img, args.output)
    log.info("wrote %s (%dx%d)", args.output, img.width, img.height)


def cmd_develop(args):
    raw = raw_io.load_raw(args.raw)
    _, cover = jpeg_model.develop_cover(raw, args.qf, args.green_kernel)
    jpeg_model.write_coeffs(cover, args.output)
    log.info("wrote %s (qf %d, %d nzAC)", args.output, args.qf,
             jpeg_model.nzac_count(cover))


def cmd_embed(args):
    raw = raw_io.load_raw(args.raw)
    stego, report = embedder.embed_simulated(raw, _embed_config(args))
    jpeg_model.write_coeffs(stego, args.output)
    if args.report:
        _write_report(report, args.report)
    log.info("wrote %s; %.1f bits total (%.4f bpp) in %.2fs", args.output,
             report.total_bits, report.bits_per_pixel, report.runtime_s)


def cmd_pseudo_embed(args):
    raw = raw_io.load_raw(args.raw)
    noisy = embedder.pseudo_embed(raw, args.seed)
    raw_io.write_raw(noisy, args.output)
    log.info("wrote %s", args.output)


def cmd_capacity(args):
    raw = raw_io.load_raw(args.raw)
    report = embedder.capacity_map(raw, _embed_config(args))
    _write_report(report, args.output)
    log.info("wrote %s; H=%.1f bits (%.4f bits/nzAC)", args.output,
             report.total_bits, report.bits_per_nzac)


def cmd_covariance(args):
    if args.dump_operator:
        kind = args.dump_operator
        side = pipeline.PATCH_SIDE
        if kind in ("demosaic_r", "demosaic_g", "demosaic_b"):
            op = pipeline.build_demosaic(kind[-1], args.cfa, side,
                                         args.green_kernel)
        elif kind == "luminance":
            op = pipeline.build_luminance(args.cfa, side, args.green_kernel)
        elif kind == "selection":
            op = pipeline.build_selection(side, 1)
        elif kind == "permutation":
            op = pipeline.build_permutation(
                [pipeline.GRID_POS[lbl] for lbl in
                 ("C",) + pipeline.NEIGHBOR_LABELS[args.neighborhood]])
        elif kind == "dct":
            nb = args.neighborhood
            op = pipeline.build_dct(len(pipeline.NEIGHBOR_LABELS[nb]) + 1)
        elif kind == "lowpass":
            op = pipeline.build_lowpass(side)
        elif kind == "assembled":
            op = pipeline.assemble(args.neighborhood, args.cfa,
                                   args.green_kernel).m
        else:
            raise SystemExit(f"unknown operator kind {kind!r}")
        with open(args.output, "w") as fh:
            fh.write(f"# operator {kind} ({op.rows}x{op.cols})\n")
            fh.write("row,col,value\n")
            for r, c, v in op.entries():
                fh.write(f"{r},{c},{v!r}\n")
        log.info("wrote %s", args.output)
        return
    mode = {"full": "full", "demosaic": "demosaic_only",
            "lowpass": "lowpass_only"}[args.mode]
    cov, subs = covariance.analysis_covariance(mode, args.cfa,
                                               args.green_kernel)
    labels = ("C",) + pipeline.NEIGHBOR_LABELS[args.neighborhood]
    order = list(subs)  # the block order of the 9-block covariance
    rows = np.concatenate([np.arange(64) + 64 * order.index(lbl)
                           for lbl in labels])
    written = covariance.write_covariance_csv(
        args.output, covariance.CovarianceMatrix(cov.values[np.ix_(rows, rows)]),
        {lbl: subs[lbl] for lbl in labels})
    log.info("wrote %s", ", ".join(written))


def cmd_costs(args):
    raw = raw_io.load_raw(args.raw)
    plane = embedder.export_costs(raw, _embed_config(args), path=args.output)
    finite = plane.costs[np.isfinite(plane.costs)]
    log.info("wrote %s (mean finite cost %.3f)", args.output,
             float(finite.mean()) if finite.size else float("nan"))


def build_parser():
    parser = argparse.ArgumentParser(
        prog="jpegns",
        description="Photon-noise-mimicking simulated embedding for JPEG covers")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic RAW image")
    p.add_argument("--kind", choices=("constant", "iid"), required=True)
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--sigma", type=float, default=0.0)
    p.add_argument("--w", type=int, required=True)
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cfa", choices=raw_io.BAYER_PATTERNS, default="RGGB")
    p.add_argument("--bit-depth", dest="bit_depth", type=int, default=12)
    _add_sensor_args(p)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("develop", help="develop RAW to cover coefficients")
    p.add_argument("raw")
    p.add_argument("--qf", type=int, required=True)
    p.add_argument("--green-kernel", choices=("cross", "corner"),
                   default="cross")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_develop)

    p = sub.add_parser("embed", help="simulated embedding")
    p.add_argument("raw")
    p.add_argument("--qf", type=int, required=True)
    p.add_argument("--K", type=int, default=5)
    p.add_argument("--key", default="0")
    p.add_argument("--green-kernel", choices=("cross", "corner"),
                   default="cross")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--report")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("pseudo-embed", help="photo-site level pseudo embedding")
    p.add_argument("raw")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_pseudo_embed)

    p = sub.add_parser("capacity", help="capacity report")
    p.add_argument("raw")
    p.add_argument("--qf", type=int, required=True)
    p.add_argument("--K", type=int, default=5)
    p.add_argument("--key", default="0")
    p.add_argument("--green-kernel", choices=("cross", "corner"),
                   default="cross")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_capacity)

    p = sub.add_parser("covariance", help="covariance / operator CSV export")
    p.add_argument("--neighborhood", choices=("L1", "L2", "L3", "L4"),
                   default="L4")
    p.add_argument("--mode", choices=("full", "demosaic", "lowpass"),
                   default="full")
    p.add_argument("--cfa", choices=raw_io.BAYER_PATTERNS, default="RGGB")
    p.add_argument("--green-kernel", choices=("cross", "corner"),
                   default="cross")
    p.add_argument("--dump-operator", metavar="KIND",
                   help="emit one operator as (row, col, value) triplets")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_covariance)

    p = sub.add_parser("costs", help="per-coefficient embedding costs")
    p.add_argument("raw")
    p.add_argument("--qf", type=int, required=True)
    p.add_argument("--K", type=int, default=5)
    p.add_argument("--key", default="0")
    p.add_argument("--green-kernel", choices=("cross", "corner"),
                   default="cross")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_costs)

    return parser


def main(argv=None):
    logging.basicConfig(level=logging.INFO, format="%(message)s")
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except (raw_io.RawIoError, jpeg_model.CoefficientsError,
            covariance.CovarianceError, pipeline.PipelineError,
            embedder.ConfigError) as exc:
        log.error("error: %s", exc)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
