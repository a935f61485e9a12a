"""Command line front end.

Every output goes through one _emit (a JSON payload, or else CSV or text
lines built only when asked for) except enumerate --stream's JSON listing,
which is written in blocks.

Exit codes: 0 success, 1 verification mismatch or failed cells audit (in
every format), 2 invalid input, an affine window too short for verify to
decide, an enumerate --stream length that outgrew the memory guard, or a
window whose walk families exceed FAMILY_CAP (series, genfunc length, verify
and walks family).
"""

from __future__ import annotations

import json
import sys
from itertools import chain, islice
from typing import NoReturn

import click

from .cells import cells_report
from .coxeter import (FAMILIES, GroupType, InvalidGroupError, build_graph,
                      normalize_family)
from .enumerator import MemoryGuardError, cross_validate, enumerate_fc, listed_words
from .genfunc import (SERIES_IDS, InconclusiveWindowError, SeriesLimitError,
                      card_involutions, length_genfunc, maj_genfunc,
                      maj_genfunc_by_descents, solve_series)
from .qpoly import TPoly
from .walks import WEIGHT_CHOICES, FamilyLimitError, WalkFamilySpec, family_poly

FORMATS = ("text", "json", "csv")


def _group_type(family: str, rank: int) -> GroupType:
    try:
        return GroupType(normalize_family(family), rank)
    except InvalidGroupError as e:
        raise click.UsageError(str(e))


def _exit_limit(message: str) -> NoReturn:
    """A resource limit: one Error: line on stderr, then exit 2."""
    click.echo(f"Error: {message}", err=True)
    sys.exit(2)


def _emit_json(payload) -> None:
    click.echo(json.dumps(payload, indent=2, sort_keys=True))


def _emit(fmt: str, payload, csv_lines, text_lines) -> None:
    """Write payload as JSON for fmt "json", else echo csv_lines or
    text_lines.  The lines are iterables read only here, so a command that
    passes generators builds only the rendering asked for."""
    if fmt == "json":
        _emit_json(payload)
        return
    for line in csv_lines if fmt == "csv" else text_lines:
        click.echo(line)


def _emit_json_elements(head: dict, elements) -> None:
    """_emit_json of head plus an "elements" list of {"length", "word"}
    records, written a block of records at a time so the listing is never
    held as one string."""
    before, after = json.dumps({**head, "elements": []}, indent=2,
                               sort_keys=True).split('"elements": []', 1)
    records = (f'    {{\n      "length": {length},\n      "word": {json.dumps(word)}\n    }}'
               for length, word in elements)
    sep = "\n"
    click.echo(before + '"elements": [', nl=False)
    while block := list(islice(records, 1024)):
        click.echo(sep + ",\n".join(block), nl=False)
        sep = ",\n"
    click.echo(("]" if sep == "\n" else "\n  ]") + after)


type_option = click.option("--type", "family", required=True,
                           help=f"group family, one of {', '.join(FAMILIES)}")
rank_option = click.option("--rank", type=int, required=True, help="rank parameter")
format_option = click.option("--format", "fmt", type=click.Choice(FORMATS),
                             default="text", show_default=True)


@click.group()
def main() -> None:
    """Fully commutative involutions: enumeration, series, and verification."""


@main.group()
def graph() -> None:
    """Coxeter graph inspection."""


@graph.command("show")
@type_option
@rank_option
@format_option
def graph_show(family: str, rank: int, fmt: str) -> None:
    """Print the generators and bonds of a family graph."""
    t = _group_type(family, rank)
    g = build_graph(t)
    bonds = [(g.names[i], g.names[j], m) for i, j, m in g.edges()]
    _emit(fmt, {
        "type": t.family,
        "rank": t.n,
        "generators": list(g.names),
        "cyclic": g.cyclic,
        "bonds": [{"a": a, "b": b, "m": m} for a, b, m in bonds],
        "forks": [{"branches": [g.names[a], g.names[b]], "joint": g.names[j]}
                  for a, b, j in g.forks],
        "maj_weight": list(g.maj_weight) if g.maj_weight else None,
    }, chain(["a,b,m"], (f"{a},{b},{m}" for a, b, m in bonds)),
          chain([f"group {t.family}:{t.n}  generators {g.size}  "
                 f"{'cyclic' if g.cyclic else 'acyclic'}", "generators: " + " ".join(g.names)],
                (f"bond {a} -- {b}  m={m}" for a, b, m in bonds),
                ("weights: " + " ".join(f"{nm}={w}" for nm, w in zip(g.names, ws))
                 for ws in [g.maj_weight] if ws)))


@main.command("enumerate")
@type_option
@rank_option
@click.option("--max-length", type=int, required=True)
@click.option("--involutions", "mode", flag_value="involutions",
              help="count only self-dual heaps")
@click.option("--alternating", "mode", flag_value="alternating",
              help="count only alternating involutions")
@click.option("--all", "mode", flag_value="all", default=True, hidden=True)
@click.option("--stream", is_flag=True, help="emit canonical words instead of counts")
@format_option
def enumerate_cmd(family: str, rank: int, max_length: int, mode: str,
                  stream: bool, fmt: str) -> None:
    """Count FC heaps by length, optionally filtered or streamed."""
    if max_length < 0:
        raise click.UsageError("--max-length must be >= 0")
    t = _group_type(family, rank)
    g = build_graph(t)
    head = {"type": t.family, "rank": t.n, "max_length": max_length, "filter": mode}
    if stream:
        try:
            words = listed_words(g, max_length, mode)
        except MemoryGuardError as e:
            _exit_limit(f"{e}; lower --max-length")
        elements = ((length, g.spell(word))
                    for length, bucket in enumerate(words) for word in bucket)
        if fmt == "json":
            _emit_json_elements(head, elements)
        else:
            _emit(fmt, None, chain(["length,word"], (f"{l},{w}" for l, w in elements)),
                  (w for _l, w in elements))
        return
    counts = enumerate_fc(g, max_length, mode)
    _emit(fmt, {**head, "counts": counts},
          (f"{length},{c}" for length, c in enumerate(counts)),
          (f"{length}: {c}" for length, c in enumerate(counts)))


@main.command("genfunc")
@click.argument("stat", type=click.Choice(["length", "maj", "card"]))
@type_option
@rank_option
@click.option("--descents", type=int, default=None,
              help="restrict maj to a fixed descent count (family B)")
@format_option
def genfunc_cmd(stat: str, family: str, rank: int, descents: int | None, fmt: str) -> None:
    """Closed-form length/maj polynomials and cardinalities."""
    t = _group_type(family, rank)
    if t.is_affine:
        raise click.UsageError(f"genfunc {stat} needs a finite family, got {t.family}")
    if descents is not None and (stat != "maj" or t.family != "B"):
        raise click.UsageError("--descents applies to 'maj' with --type B only")
    meta = {"type": t.family, "rank": t.n, "stat": stat,
            **({"descents": descents} if descents is not None else {})}
    try:
        if stat == "card":
            value = card_involutions(t.family, t.n)
            _emit(fmt, {**meta, "value": value}, ("value", value), (value,))
            return
        if stat == "maj":
            poly = (maj_genfunc_by_descents(t.n, descents) if descents is not None
                    else maj_genfunc(t.family, t.n))
        else:
            poly = length_genfunc(t.family, t.n)
    except (InvalidGroupError, ValueError) as e:
        raise click.UsageError(str(e))
    except SeriesLimitError as e:
        _exit_limit(f"{e}; lower --rank")
    _emit_poly(poly, "q" if stat == "maj" else "t", fmt, meta)


def _emit_poly(poly: TPoly, var: str, fmt: str, meta: dict) -> None:
    _emit(fmt, {**meta, **poly.to_json_dict(var)},
          chain(["exponent,coefficient"], (f"{k},{c}" for k, c in enumerate(poly.coeffs) if c)),
          map(poly.to_text, [var]))


@main.command("series")
@click.option("--id", "series_id", type=click.Choice(SERIES_IDS), required=True)
@click.option("--xmax", type=int, required=True)
@click.option("--tmax", type=int, required=True)
@format_option
def series_cmd(series_id: str, xmax: int, tmax: int, fmt: str) -> None:
    """Solve a walk functional equation on a truncated window."""
    if xmax < 0 or tmax < 0:
        raise click.UsageError("--xmax and --tmax must be >= 0")
    try:
        s = solve_series(series_id, xmax, tmax)
    except SeriesLimitError as e:
        _exit_limit(f"{e}; lower --xmax or --tmax")
    _emit(fmt, {"id": series_id, "xmax": xmax, "tmax": tmax,
                "coeffs": [[str(c) for c in p.coeffs] for p in s.coeffs]},
          chain(["xpow,tpow,coefficient"], (f"{k},{e},{c}" for k, p in enumerate(s.coeffs)
                                            for e, c in enumerate(p.coeffs) if c)),
          (f"[x^{k}] {p.to_text()}" for k, p in enumerate(s.coeffs)))


@main.group()
def walks() -> None:
    """Weighted walk families."""


def _parse_height(value: str) -> object:
    """An integer height, else the token as given; WalkFamilySpec checks both."""
    return int(value) if value.lstrip("-").isdigit() else value


@walks.command("family")
@click.option("--n", "length", type=int, required=True, help="number of steps")
@click.option("--no-horiz", is_flag=True, help="forbid horizontal steps")
@click.option("--touch", is_flag=True, help="require a zero height somewhere")
@click.option("--start", default="0", show_default=True)
@click.option("--end", default="any", show_default=True)
@click.option("--weight", type=click.Choice(WEIGHT_CHOICES), default="all", show_default=True)
@click.option("--tmax", type=int, required=True)
@format_option
def walks_family(length: int, no_horiz: bool, touch: bool, start: str, end: str,
                 weight: str, tmax: int, fmt: str) -> None:
    """Weight polynomial of a constrained walk family."""
    if length < 0 or tmax < 0:
        raise click.UsageError("--n and --tmax must be >= 0")
    try:
        spec = WalkFamilySpec(n=length, allow_horiz=not no_horiz,
                              start=_parse_height(start), end=_parse_height(end),
                              require_touch=touch, weight=weight)
    except ValueError as e:
        raise click.UsageError(str(e))
    try:
        poly = family_poly(spec, tmax)
    except FamilyLimitError as e:
        _exit_limit(f"{e}; lower --tmax")
    _emit_poly(poly, "t", fmt, {"n": length, "allow_horiz": not no_horiz,
                                "touch": touch, "start": start, "end": end,
                                "weight": weight, "tmax": tmax})


@main.command("verify")
@type_option
@rank_option
@click.option("--max-length", type=int, default=None,
              help="enumeration window for affine families")
@click.option("--format", "fmt", type=click.Choice(("text", "json")),
              default="text", show_default=True)
def verify_cmd(family: str, rank: int, max_length: int | None, fmt: str) -> None:
    """Check enumerated counts against every closed form for the group."""
    t = _group_type(family, rank)
    if max_length is not None and not t.is_affine:
        raise click.UsageError("--max-length applies to affine families only")
    if max_length is not None and max_length < 4:
        raise click.UsageError("--max-length must be >= 4")
    try:
        report = cross_validate(t.family, t.n, max_length)
    except InconclusiveWindowError as e:
        raise click.UsageError(str(e))
    except SeriesLimitError as e:
        _exit_limit(f"{e}; lower --rank")
    p = report.period
    payload = {"type": t.family, "rank": t.n, "ok": report.ok, "checks": report.checks,
               "failures": report.failures, "notes": report.notes}
    if not t.is_affine:
        payload.update(card=report.card, maj=report.maj.to_json_dict("q"),
                       length=report.length.to_json_dict("t"))
    elif p is not None:
        payload.update(remainder=report.remainder.to_json_dict("t"), period={
            "transient_start": p.transient_start, "period": p.period,
            "repeating_block": list(p.repeating_block)})

    def text_lines():
        verdict = "all match" if report.ok else "MISMATCH"
        if not t.is_affine:
            yield (f"card={report.card} maj={report.maj.to_text('q', compact=True)} "
                   f"length={report.length.to_text('t', compact=True)} {verdict}")
        else:
            if p is not None:
                yield f"remainder={report.remainder.to_text('t', compact=True)}"
                yield (f"period={p.period} transient={p.transient_start} "
                       f"block={','.join(map(str, p.repeating_block))}")
            yield verdict
        yield from (f"note: {note}" for note in report.notes)
        yield from (f"failure: {f}" for f in report.failures)

    _emit(fmt, payload, (), text_lines())
    if not report.ok:
        sys.exit(1)


@main.command("cells")
@click.option("--rank", type=int, required=True)
@click.option("--max-length", type=int, required=True)
@format_option
def cells_cmd(rank: int, max_length: int, fmt: str) -> None:
    """Reduce every FC heap of a cycle and report the fibers."""
    if max_length < 0:
        raise click.UsageError("--max-length must be >= 0")
    _group_type("affA", rank)
    report = cells_report(rank, max_length)
    fibers, audits = report["fibers"], report["audits"]
    _emit(fmt, report,
          chain(["representative,members,involution"],
                (f"{r['representative']},{r['members']},{r['involution'] or ''}"
                 for r in fibers)),
          chain([f"rank {report['rank']} max_length {report['max_length']} "
                 f"fibers {report['fiber_count']}"],
                (f"{r['representative']} | members {r['members']} | "
                 f"involution {r['involution'] or '-'}" for r in fibers),
                (f"audit {name}: {'ok' if ok else 'FAILED'}" for name, ok in audits.items())))
    if not all(audits.values()):
        sys.exit(1)


if __name__ == "__main__":
    main()
