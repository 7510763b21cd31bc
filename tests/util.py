"""Shared test helpers: reference enumerators, instance generators, and
stepping utilities. The reference oracle here is deliberately different
from the package oracle (edge-subset enumeration vs node recursion) so
the two check each other."""

from __future__ import annotations

import copy
import json
import random
from fractions import Fraction
from itertools import combinations
from math import lcm

from matchcert.certificates import Verdict, Violation, _family_violations, verify_run
from matchcert.engine import (LABEL_S, LABEL_T, STATUS_NO_PERFECT,
                              STATUS_PERFECT, AlphaResult, BlossomDual,
                              CardinalityCertificate, DualState, EngineState,
                              InfeasibleUpdateError, RunResult, ShrunkenView,
                              apply_dual_update, compute_alpha, lift_matching,
                              shrink_blossom, solve)
from matchcert.graph import (Instance, Matching, SymmetricDifference,
                             alternating_path_difference, matching_weight,
                             normalize_weights)
from matchcert.jsonio import (dumps, rational_to_str, run_result_from_dict,
                              run_result_to_dict)


def naive_min_by_cardinality(inst: Instance) -> dict[int, tuple[Fraction, tuple]]:
    """Brute force over edge subsets; only sensible for small instances.

    Returns k -> (min weight, lexicographically-first witness edge tuple).
    """
    best: dict[int, tuple[Fraction, tuple]] = {0: (Fraction(0), ())}
    m = len(inst.edges)
    for r in range(1, m + 1):
        found = False
        for combo in combinations(range(m), r):
            used: set[int] = set()
            weight = Fraction(0)
            ok = True
            for i in combo:
                e = inst.edges[i]
                if e.u in used or e.v in used:
                    ok = False
                    break
                used.add(e.u)
                used.add(e.v)
                weight += e.weight
            if not ok:
                continue
            found = True
            witness = tuple(sorted((inst.edges[i].u, inst.edges[i].v) for i in combo))
            cand = (weight, witness)
            if r not in best or cand < best[r]:
                best[r] = cand
        if not found:
            break
    return best


def random_instance(rng: random.Random, max_nodes: int = 14,
                    low: int = 0, high: int = 20) -> Instance:
    n = rng.randint(2, max_nodes)
    density = rng.choice([0.3, 0.6, 0.9])
    edges = [(u, v, rng.randint(low, high))
             for u in range(n) for v in range(u + 1, n)
             if rng.random() < density]
    return Instance.from_edges(n, edges)


def advance_to_dual_phase(state: EngineState) -> None:
    """Apply augmentations and shrinks until a dual update is due."""
    while True:
        walk = state.grow_forest()
        if walk is None:
            return
        if walk.is_path():
            state.augment(walk)
        else:
            shrink_blossom(state, walk)


def minimum_perfect_weight(inst: Instance) -> Fraction | None:
    """Minimum perfect-matching weight via the solver, or None if none
    exists. Accepts arbitrary (possibly negative) weights."""
    normalized, record = normalize_weights(inst)
    run = solve(normalized, mode="perfect")
    if run.infeasible:
        return None
    assert 2 * run.final.cardinality == inst.node_count
    return run.final.weight - record.shift * run.final.cardinality


def edge_load(dual: DualState, u: int, v: int) -> Fraction:
    """Cut-form dual load of edge {u, v} in Fractions, from the definition:
    the summed duals of all sets holding exactly one of u, v."""
    total = dual.singleton_pi[u] + dual.singleton_pi[v]
    for b in dual.blossoms:
        if (u in b.nodes) != (v in b.nodes):
            total += b.pi
    return total


def reference_non_edges(inst: Instance, m: Matching) -> list[Violation]:
    """One `matching-edge` violation per matched pair missing from the
    instance's edge list, in ascending pair order: the matching's pairs
    minus the set of (u, v) in `inst.edges`, shared with no package code."""
    edges = {(u, v) for u, v, _ in inst.edges}
    return [Violation("matching-edge", pair, "not an edge", "edge")
            for pair in sorted(m.edges - edges)]


def reference_perfect_check(inst: Instance, m: Matching, dual: DualState) -> Verdict:
    """The cut-form check of a perfect matching m against duals `dual`, in
    Fractions from the definition (`edge_load`): the blossoms form a
    laminar family of odd sets with nonnegative duals (`blossom-nonneg`);
    every matched pair is an edge; no edge's load exceeds its weight
    (`edge-load`); matched edges are tight; and each blossom with positive
    dual is left by exactly one matching edge (`cs-cut-tight`). The
    reference that `reductions.check_perfect_certificate` must agree with."""
    zero = Fraction(0)
    violations = _family_violations(b.nodes for b in dual.blossoms)
    violations += [Violation("blossom-nonneg", b.nodes, b.pi, zero)
                   for b in dual.blossoms if b.pi < 0]
    violations += reference_non_edges(inst, m)
    for u, v, weight in inst.edges:
        load = edge_load(dual, u, v)
        if load > weight:
            violations.append(Violation("edge-load", (u, v), load, weight))
        elif load < weight and (u, v) in m:
            violations.append(Violation("cs-matched-edge-tight", (u, v), load, weight))
    for b in dual.blossoms:
        leaving = sum((u in b.nodes) != (v in b.nodes) for u, v in m.edges)
        if b.pi > 0 and leaving != 1:
            violations.append(Violation("cs-cut-tight", b.nodes, leaving, 1))
    return Verdict(tuple(violations))


def replaced(cert: CardinalityCertificate, **values) -> CardinalityCertificate:
    """cert with some of gamma, y, z and k replaced, the Fraction values
    given as Fractions."""
    fields = {"gamma": cert.gamma, "y": cert.y, "z": cert.z, "k": cert.k, **values}
    return CardinalityCertificate.from_fractions(**fields)


def assert_round_trip(inst: Instance, run: RunResult) -> None:
    """The run read back from its JSON text equals it, with the same
    certificates; on both copies every Fraction view equals its ints over
    their scale; and `verify_run` gives both the same verdict."""
    copy = run_result_from_dict(json.loads(dumps(run_result_to_dict(run))))
    assert copy == run
    for snaps in (run.snapshots, copy.snapshots):
        for snap in snaps:
            dual, cert = snap.dual_state, snap.certificate
            assert dual.singleton_pi == tuple(Fraction(p, dual.scale)
                                              for p in dual.pi_units)
            assert dual.blossoms == tuple(BlossomDual(b.nodes, Fraction(b.pi, dual.scale))
                                          for b in dual.blossom_units)
            assert cert.gamma == Fraction(cert.gamma_units, cert.scale)
            assert cert.y == tuple(Fraction(v, cert.scale) for v in cert.y_units)
            assert cert.z == tuple((nodes, Fraction(zu, cert.scale))
                                   for nodes, zu in cert.z_units)
    assert [s.certificate for s in copy.snapshots] == [s.certificate for s in run.snapshots]
    assert verify_run(inst, copy) == verify_run(inst, run)


def reference_view(state: EngineState) -> ShrunkenView:
    """The shrunken view from its definition: each node's top is the
    smallest node of its maximal set, and every top lists the tight edges
    (zero Fraction slack) joining it to another top, in input order, as
    (edge index, other top)."""
    top = list(range(state.inst.node_count))
    for rec in state.blossoms:
        smallest = min(rec.nodes)
        for v in rec.nodes:
            top[v] = smallest
    dual = state.frozen_duals()
    incident = {k: [] for k in sorted(set(top))}
    for i, e in enumerate(state.inst.edges):
        if top[e.u] != top[e.v] and edge_load(dual, e.u, e.v) == e.weight:
            incident[top[e.u]].append((i, top[e.v]))
            incident[top[e.v]].append((i, top[e.u]))
    return ShrunkenView(top, incident)


def reference_alpha(state: EngineState) -> AlphaResult:
    """`compute_alpha` by the labels of each edge's ends, in Fractions from
    the definition (`edge_load`): (a) pi(U) of each S-labeled maximal
    blossom; (b) the slack of each edge joining a T-node to a free node,
    as `edge-t-free`; (c) half the slack of each edge joining two T-nodes
    in distinct view nodes, as `edge-t-t`. The smallest bound binds, the
    first of equal ones in that order and edges in input order; no bound
    gives alpha None."""
    label = state.forest_labels().label
    top = reference_view(state).top
    dual = state.frozen_duals()
    bounds = [(Fraction(rec.pi, state._scale), ("blossom-nonneg", rec.nodes))
              for rec in state.blossoms if label.get(rec.key) == LABEL_S]
    for i, (u, v, weight) in enumerate(state.inst.edges):
        lu, lv = label.get(top[u]), label.get(top[v])
        slack = weight - edge_load(dual, u, v)
        if lu == lv == LABEL_T and top[u] != top[v]:
            bounds.append((slack / 2, ("edge-t-t", i)))
        elif {lu, lv} == {LABEL_T, None}:
            bounds.append((slack, ("edge-t-free", i)))
    if not bounds:
        return AlphaResult(None, None)
    return AlphaResult(*min(bounds, key=lambda bound: bound[0]))


def assert_view_form(view: ShrunkenView) -> None:
    """The order `reference_view` cannot check by equality, since dict
    equality ignores it: the keys ascend, and each list is in edge-index
    order."""
    assert list(view.incident) == sorted(view.incident)
    for entries in view.incident.values():
        assert [i for i, _ in entries] == sorted(i for i, _ in entries)


def reference_mates(state: EngineState) -> dict[int, tuple[int, int]]:
    """The stored matching from its definition: every edge of the lifted
    matching whose ends lie in distinct maximal sets pairs the two view
    nodes, keyed both ways, with the edge's index."""
    top = reference_view(state).top
    mates: dict[int, tuple[int, int]] = {}
    for u, v in lift_matching(state).edges:
        if top[u] != top[v]:
            i = state.inst.edge_index(u, v)
            mates[top[u]] = (top[v], i)
            mates[top[v]] = (top[u], i)
    return mates


def checked_steps(inst: Instance, phases=(), beta=0, observer=None,
                  policy=None) -> tuple[dict[str, int], RunResult]:
    """Replay `solve(inst, phases=phases, beta=beta)` step by step, and
    check after every augment, shrink and dual update that the engine's
    view equals `reference_view` in the order `assert_view_form` checks,
    that the previous view still equals a deep copy taken before the step
    (no list it may share with the new one was changed), and that its
    mate map equals `reference_mates`; after an augment the view must be
    the very same object. Before every update past `phases`
    `compute_alpha` must equal `reference_alpha`. `observer`, when given,
    is called with the live engine state after every applied dual update.

    `policy`, when given, chooses the updates past `phases`: called with
    the state and alpha when a dual phase starts, it returns the amounts
    of one or more updates, each a value or a map from tree root to
    amount, applied one per dual step. An update it chose that the engine
    refuses (InfeasibleUpdateError) is replaced by alpha and counted as
    `refused`. The replayed snapshots and status must equal solve's run,
    given every applied update as a phase when there is a policy. Returns
    the step counts and the replayed run."""
    state = EngineState(inst, beta)
    assert state.shrunken_view() == reference_view(state)
    assert_view_form(state.shrunken_view())
    assert state.mates == reference_mates(state)
    snapshots = [state.snapshot()]
    script, chosen, applied = list(phases), [], []
    counts = dict.fromkeys(("augment", "shrink", "dual_update", "expansion",
                            "rescale", "refused"), 0)
    status = STATUS_PERFECT
    while state.exposed_view_keys():
        before = state.shrunken_view()
        frozen = copy.deepcopy(before)
        walk = state.grow_forest()
        if walk is not None and walk.is_path():
            state.augment(walk)
            snapshots.append(state.snapshot())
            assert state.shrunken_view() is before
            counts["augment"] += 1
        elif walk is not None:
            shrink_blossom(state, walk)
            counts["shrink"] += 1
        else:
            roots = state.forest_labels().roots
            fallback = None
            if script:
                amounts = dict(zip(roots, script.pop(0)))
            else:
                result = compute_alpha(state)
                assert result == reference_alpha(state)
                if result.alpha is None:
                    status = STATUS_NO_PERFECT
                    break
                if policy is not None and not chosen:
                    chosen = list(policy(state, result.alpha))
                amounts = result.alpha
                if chosen:
                    amounts, fallback = chosen.pop(0), result.alpha
            scale, blossoms = state._scale, set(state.blossoms)
            try:
                apply_dual_update(state, amounts)
            except InfeasibleUpdateError:
                if fallback is None:
                    raise
                amounts = fallback
                apply_dual_update(state, amounts)
                counts["refused"] += 1
            applied.append([amounts.get(r, 0) for r in roots] if isinstance(amounts, dict)
                           else [amounts] * len(roots))
            counts["dual_update"] += 1
            counts["expansion"] += len(blossoms - set(state.blossoms))
            counts["rescale"] += state._scale != scale
            if observer is not None:
                observer(state)
        assert state.shrunken_view() == reference_view(state)
        assert_view_form(state.shrunken_view())
        assert before == frozen
        assert state.mates == reference_mates(state)
    replay = RunResult(tuple(snapshots), status, "maximum", state.beta)
    assert replay == solve(inst, phases=phases if policy is None else applied, beta=beta)
    return counts, replay


def reference_format_instance(inst: Instance) -> str:
    """`graph.format_instance` one edge at a time, from each edge's
    Fraction: the reference for the formatter that writes the scaled ints."""
    out = [f"p edge {inst.node_count} {len(inst.edges)}"]
    for e in inst.edges:
        out.append(f"e {e.u + 1} {e.v + 1} {e.weight}")
    return "\n".join(out) + "\n"


def fresh_scaled_weights(inst: Instance) -> tuple[int, tuple[int, ...]]:
    """`scaled_weights` computed anew from the Fractions, on an uncached
    copy of the instance."""
    return Instance(inst.node_count, inst.edges).scaled_weights


def reference_path_difference(m: Matching, m2: Matching) -> SymmetricDifference:
    """`alternating_path_difference` one component at a time: collect the
    component of each unvisited node in ascending order, then walk it from
    its smallest endpoint (a path) or its smallest node (a cycle), each
    step to the smallest neighbor not just left. The reference that the
    one walk per component must equal."""
    delta = m.edges ^ m2.edges
    if not delta:
        return SymmetricDifference("disconnected", ())

    adj: dict[int, list[int]] = {}
    for u, v in delta:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    for nbrs in adj.values():
        nbrs.sort()

    def walk_from(start: int) -> tuple[int, ...]:
        seq, prev, cur = [start], None, start
        while True:
            nxt = None
            for cand in adj[cur]:
                if cand != prev:
                    nxt = cand
                    break
            if nxt is None or nxt == start:
                return tuple(seq)
            seq.append(nxt)
            prev, cur = cur, nxt

    components: list[tuple[int, ...]] = []
    all_paths = True
    visited: set[int] = set()
    for start in sorted(adj):
        if start in visited:
            continue
        comp: set[int] = set()
        stack = [start]
        while stack:
            x = stack.pop()
            if x in comp:
                continue
            comp.add(x)
            stack.extend(adj[x])
        visited |= comp
        endpoints = sorted(x for x in comp if len(adj[x]) == 1)
        if endpoints:
            seq = walk_from(endpoints[0])
        else:
            all_paths = False
            seq = walk_from(min(comp))
        components.append(seq)

    if len(components) == 1:
        kind = "single-path" if all_paths else "connected-other"
    else:
        kind = "disconnected"
    return SymmetricDifference(kind, tuple(components))


def reference_run_dict(run: RunResult) -> dict:
    """A run's top-level JSON object as plain dicts, lists and strings, the
    way the program built it before its writer rendered the snapshots
    array to text: `json.dumps(reference_run_dict(run), indent=2)` is the
    standard library's text for the run."""
    n = max(len(s.dual_state.singleton_pi) for s in run.snapshots)
    keys = [str(v + 1) for v in range(n)]

    def node_sets(items, label):
        return [{"nodes": [v + 1 for v in sorted(nodes)], label: rational_to_str(x)}
                for nodes, x in items]

    return {
        "status": run.status,
        "mode": run.mode,
        "beta": rational_to_str(run.beta),
        "snapshots": [{
            "k": snap.cardinality,
            "weight": rational_to_str(snap.weight),
            "matching": [[u + 1, v + 1] for u, v in snap.matching.sorted_edges()],
            "duals": {
                "singletons": dict(zip(keys, map(rational_to_str,
                                                 snap.dual_state.singleton_pi))),
                "blossoms": node_sets(((b.nodes, b.pi)
                                       for b in snap.dual_state.blossoms), "pi"),
                "beta": rational_to_str(snap.dual_state.beta),
            },
            "certificate": {
                "gamma": rational_to_str(snap.certificate.gamma),
                "y": dict(zip(keys, map(rational_to_str, snap.certificate.y))),
                "z": node_sets(snap.certificate.z, "value"),
            },
        } for snap in run.snapshots],
    }


def reference_check_certificate(inst: Instance, m: Matching,
                                cert: CardinalityCertificate) -> Verdict:
    """`check_cardinality_certificate` as one pass over every edge and
    every nonzero z set, with no state kept between calls: the reference
    the run checker must equal, violation for violation."""
    zero = Fraction(0)
    violations = _family_violations(nodes for nodes, _ in cert.z_units)
    violations += reference_non_edges(inst, m)
    if len(m) != cert.k:
        violations.append(Violation("cardinality", None, len(m), cert.k))

    weight_scale, weights = inst.scaled_weights
    scale = lcm(weight_scale, cert.scale)
    y, z, gamma = cert.y_units, cert.z_units, cert.gamma_units
    if scale != cert.scale:
        factor = scale // cert.scale
        y = [v * factor for v in y]
        z = [(nodes, zu * factor) for nodes, zu in z]
        gamma *= factor
    if scale != weight_scale:
        factor = scale // weight_scale
        weights = [w * factor for w in weights]

    for v, yv in enumerate(y):
        if yv > 0:
            violations.append(Violation("y-nonpositive", v, Fraction(yv, scale), zero))
    for nodes, zu in z:
        if zu > 0:
            violations.append(Violation("z-nonpositive", nodes, Fraction(zu, scale), zero))

    nonzero = [(nodes, zu) for nodes, zu in z if zu]
    matched = m.edges
    for (u, v, weight), w in zip(inst.edges, weights):
        lhs = y[u] + y[v] + gamma
        for nodes, zu in nonzero:
            if u in nodes and v in nodes:
                lhs += zu
        if lhs > w:
            violations.append(
                Violation("edge-feasibility", (u, v), Fraction(lhs, scale), weight))
        elif lhs != w and (u, v) in matched:
            violations.append(
                Violation("cs-matched-edge-tight", (u, v), Fraction(lhs, scale), weight))

    for v, yv in enumerate(y):
        if yv < 0 and not m.covers(v):
            violations.append(Violation("cs-exposed-zero-y", v, Fraction(yv, scale), zero))
    for nodes, zu in z:
        if zu < 0:
            inside = m.count_inside(nodes)
            expected = (len(nodes) - 1) // 2
            if inside != expected:
                violations.append(Violation("cs-blossom-full", nodes, inside, expected))
    return Verdict(tuple(violations))


def reference_verify_run(inst: Instance, run: RunResult) -> Verdict:
    """`verify_run` as a loop of `reference_check_certificate` calls, one
    per snapshot, with every weight summed afresh (`matching_weight`)."""
    violations: list[Violation] = []
    for i, snap in enumerate(run.snapshots):
        tag = f"k={snap.cardinality}"
        if snap.cardinality != i:
            violations.append(
                Violation(f"snapshot-cardinality-sequence:{tag}", i, snap.cardinality, i))
        if snap.dual_state.beta != run.beta:
            violations.append(
                Violation(f"beta-mismatch:{tag}", None, snap.dual_state.beta, run.beta))
        try:
            actual_weight = matching_weight(inst, snap.matching)
        except ValueError:  # a non-edge, reported as matching-edge
            actual_weight = snap.weight
        if actual_weight != snap.weight:
            violations.append(
                Violation(f"snapshot-weight:{tag}", None, snap.weight, actual_weight))
        sub = reference_check_certificate(inst, snap.matching, snap.certificate)
        violations += [Violation(f"{v.constraint}:{tag}", v.witness, v.lhs, v.rhs)
                       for v in sub.violations]

    first = run.snapshots[0]
    dual, tag = first.dual_state, f"beta-mismatch:k={first.cardinality}"
    initial = run.beta * dual.scale
    for v, p in enumerate(dual.pi_units):
        if p != initial:
            violations.append(Violation(tag, v, Fraction(p, dual.scale), run.beta))
    for b in dual.blossom_units:
        violations.append(Violation(tag, b.nodes, Fraction(b.pi, dual.scale), "no blossom"))

    for prev, nxt in zip(run.snapshots, run.snapshots[1:]):
        diff = alternating_path_difference(prev.matching, nxt.matching)
        if diff.kind != "single-path":
            violations.append(
                Violation(f"consecutive-single-path:k={nxt.cardinality}",
                          diff.components, diff.kind, "single-path"))

    covered = 2 * len(run.final.matching)
    if (covered == inst.node_count) != (run.status == STATUS_PERFECT):
        violations.append(Violation("run-status", run.status, covered, inst.node_count))
    return Verdict(tuple(violations))
