"""Loading and dumping the JSON file formats.

Field names are normative and unknown fields are rejected; diagnostics are
collected into `InputFormatError.details` so the CLI can print all problems at
once.  Law checks on the loaded structures raise their own error types.
"""

import json
from pathlib import Path

from .errors import InputFormatError
from .fincat import FiniteCategory, Presheaf
from .normalize import FiniteGroup
from .words import Dfa


def _as_data(source, what):
    if isinstance(source, dict):
        return source
    try:
        text = Path(source).read_text()
    except OSError as exc:
        raise InputFormatError(f"cannot read {what} file {source!r}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputFormatError(
            f"{what} file {source!r} is not valid JSON: {exc}",
            details=[str(exc)]) from exc
    if not isinstance(data, dict):
        raise InputFormatError(f"{what} file {source!r} must hold a JSON object")
    return data


_JSON_TYPE_NAMES = {list: "a list", dict: "an object", str: "a string"}
_NAME = (str, int)  # JSON values usable as names of DFA states


def _check_fields(data, what, required, optional=(), types=None):
    """Reject missing and unknown fields, and fields of the wrong JSON type;
    `types` maps a field to the Python type (or tuple of types) it must have."""
    problems = []
    for field in required:
        if field not in data:
            problems.append(f"missing field {field!r}")
    for field in data:
        if field not in required and field not in optional:
            problems.append(f"unknown field {field!r}")
    for field, kind in (types or {}).items():
        if field in data and not isinstance(data[field], kind):
            kinds = kind if isinstance(kind, tuple) else (kind,)
            problems.append(f"field {field!r} must be "
                            + " or ".join(_JSON_TYPE_NAMES[k] for k in kinds))
    if problems:
        raise InputFormatError(f"malformed {what}: " + "; ".join(problems),
                               details=problems)


def load_category(source):
    data = _as_data(source, "category")
    _check_fields(data, "category file",
                  ("objects", "morphisms", "identities", "composition"),
                  types={"objects": list, "morphisms": list, "identities": dict,
                         "composition": list})
    names = [*data["objects"], *data["identities"].values()]
    for m in data["morphisms"]:
        if not isinstance(m, dict):
            raise InputFormatError(f"morphism entry {m!r} is not an object")
        _check_fields(m, "morphism entry", ("name", "src", "dst"))
        names += m.values()
    for e in data["composition"]:
        if not isinstance(e, dict):
            raise InputFormatError(f"composition entry {e!r} is not an object")
        _check_fields(e, "composition entry", ("g", "f", "result"))
        names += e.values()
    # identities keys are JSON strings, so any other name could never match them
    bad = [x for x in names if not isinstance(x, str)]
    if bad:
        raise InputFormatError("category objects and morphisms must be named by "
                               f"strings, not {bad[0]!r}")
    seen_pairs = set()
    for e in data["composition"]:
        pair = (e["g"], e["f"])
        if pair in seen_pairs:
            raise InputFormatError(f"duplicate composition entry for {pair!r}")
        seen_pairs.add(pair)
    morphisms = [(m["name"], m["src"], m["dst"]) for m in data["morphisms"]]
    composition = {(e["g"], e["f"]): e["result"] for e in data["composition"]}
    return FiniteCategory(data["objects"], morphisms, data["identities"], composition)


def dump_category(cat):
    return {
        "objects": list(cat.objects),
        "morphisms": [{"name": n, "src": s, "dst": d} for n, s, d in cat.morphisms],
        "identities": dict(cat.identities),
        "composition": [{"g": g, "f": f, "result": h}
                        for (g, f), h in sorted(cat.composition.items())],
    }


def load_presheaf(cat, source):
    """Presheaf file: `sets` per object (missing objects mean empty) and
    `actions` per morphism; keys outside the site are rejected."""
    data = _as_data(source, "presheaf")
    _check_fields(data, "presheaf file", ("sets", "actions"),
                  types={"sets": dict, "actions": dict})
    if not all(isinstance(v, list) for v in data["sets"].values()):
        raise InputFormatError("presheaf sets must map objects to lists")
    if not all(isinstance(v, dict) for v in data["actions"].values()):
        raise InputFormatError("presheaf actions must map morphisms to objects")
    bad_objects = [c for c in data["sets"] if c not in cat._obj_index]
    bad_morphisms = [m for m in data["actions"] if m not in cat.src]
    problems = [f"unknown object {c!r} in sets" for c in bad_objects]
    problems += [f"unknown morphism {m!r} in actions" for m in bad_morphisms]
    # an action names elements by JSON object keys, so every element is a string
    for c, xs in data["sets"].items():
        if not all(isinstance(x, str) for x in xs):
            problems.append(f"a non-string among the sets of {c!r}")
        elif len(set(xs)) != len(xs):
            problems.append(f"duplicate elements in sets of {c!r}")
    problems += [f"a non-string among the images of {m!r}"
                 for m, table in data["actions"].items()
                 if not all(isinstance(x, str) for x in table.values())]
    if problems:
        raise InputFormatError("malformed presheaf file: " + "; ".join(problems),
                               details=problems)
    return Presheaf(cat, data["sets"],
                    {m: dict(table) for m, table in data["actions"].items()})


def load_group(source):
    """Group file: elements, row-major index table, and an optional `names`
    map (pretty-print names per element; the "group" key labels the group)."""
    data = _as_data(source, "group")
    _check_fields(data, "group file", ("elements", "table"), optional=("names",),
                  types={"table": list, "names": dict})
    elements = data["elements"]
    if not isinstance(elements, list) or not all(isinstance(e, str) for e in elements):
        raise InputFormatError("group elements must be a list of names")
    if len(set(elements)) != len(elements):
        raise InputFormatError("duplicate group element names")
    # a JSON boolean is no index, though isinstance(True, int) holds
    if not all(isinstance(row, list) and all(type(k) is int for k in row)
               for row in data["table"]):
        raise InputFormatError("group table must be a list of rows of integer indices")
    names = data.get("names", {})
    if not all(isinstance(v, str) for v in names.values()):
        raise InputFormatError("group names must map elements to strings")
    display = {k: v for k, v in names.items() if k != "group"}
    unknown = [k for k in display if k not in elements]
    if unknown:
        raise InputFormatError(f"names given for unknown elements {unknown}")
    return FiniteGroup.from_table(elements, data["table"],
                                  label=names.get("group"), display=display)


def dump_group(G):
    return {"elements": list(G.elements), "table": G.index_table(),
            "names": dict(G.display, group=G.label)}


def load_dfa(source):
    data = _as_data(source, "dfa")
    _check_fields(data, "dfa file",
                  ("alphabet", "states", "initial", "accepting", "transitions"),
                  types={"alphabet": (str, list), "states": list, "accepting": list,
                         "transitions": list})
    states = data["states"]
    names = [*states, *data["accepting"], data["initial"]]
    # a JSON boolean is no state name, though isinstance(True, int) holds
    if not all(type(x) in _NAME for x in names):
        raise InputFormatError("dfa states must be strings or integers")
    for x in data["alphabet"]:
        if not (isinstance(x, str) and len(x) == 1):
            raise InputFormatError(f"dfa symbol {x!r} is not a one-character string")
    if len(set(states)) != len(states):
        raise InputFormatError("duplicate state names")
    alphabet = tuple(data["alphabet"])
    if len(set(alphabet)) != len(alphabet):
        raise InputFormatError("duplicate alphabet symbols")
    number = {s: i for i, s in enumerate(states)}
    if data["initial"] not in number:
        raise InputFormatError(f"initial state {data['initial']!r} is not a state")
    accepting = set()
    for s in data["accepting"]:
        if s not in number:
            raise InputFormatError(f"accepting state {s!r} is not a state")
        accepting.add(number[s])
    letter = {ch: a for a, ch in enumerate(alphabet)}
    delta = [[None] * len(alphabet) for _ in states]
    for entry in data["transitions"]:
        if not (isinstance(entry, list) and len(entry) == 3
                and all(type(x) in _NAME for x in entry)):
            raise InputFormatError(f"transition {entry!r} must be [state, symbol, state]")
        src, sym, dst = entry
        if src not in number or dst not in number:
            raise InputFormatError(f"transition {entry!r} uses an unknown state")
        if sym not in letter:
            raise InputFormatError(f"transition {entry!r} uses a symbol outside the alphabet")
        if delta[number[src]][letter[sym]] is not None:
            raise InputFormatError(f"duplicate transition for ({src!r}, {sym!r})")
        delta[number[src]][letter[sym]] = number[dst]
    holes = [(states[s], alphabet[a])
             for s in range(len(states)) for a in range(len(alphabet))
             if delta[s][a] is None]
    if holes:
        raise InputFormatError(f"transition function is not total; missing {holes[:5]}",
                               details=[str(h) for h in holes])
    return Dfa(alphabet, len(states), number[data["initial"]], accepting, delta)


def dump_dfa(d):
    names = [f"q{i}" for i in range(d.n)]
    return {
        "alphabet": list(d.alphabet),
        "states": names,
        "initial": names[d.initial],
        "accepting": sorted(names[s] for s in d.accepting),
        "transitions": [[names[s], d.alphabet[a], names[d.delta[s][a]]]
                        for s in range(d.n) for a in range(len(d.alphabet))],
    }


def load_regex(source):
    """Regex fixture file: the `regex` and the `alphabet` it is read over."""
    data = _as_data(source, "regex")
    _check_fields(data, "regex file", ("regex", "alphabet"),
                  types={"regex": str, "alphabet": (str, list)})
    return data["regex"], data["alphabet"]


def load_filter_selection(L, source):
    """Selection of congruence indices per object, resolved against Xi.

    The indices refer to the canonical order of the serialized classifier
    report for the same site.
    """
    data = _as_data(source, "filter")
    problems = []
    selection = {}
    for c, idxs in data.items():
        if c not in L.site._obj_index:
            problems.append(f"unknown object {c!r}")
            continue
        if not isinstance(idxs, list):
            problems.append(f"indices at {c!r} must be a list")
            continue
        xi_c = L.elements(c)
        chosen = set()
        for i in idxs:
            if type(i) is not int or not 0 <= i < len(xi_c):
                problems.append(f"index {i!r} out of range at {c!r}")
            else:
                chosen.add(xi_c[i])
        selection[c] = chosen
    if problems:
        raise InputFormatError("malformed filter file: " + "; ".join(problems),
                               details=problems)
    return selection
