"""Trajectory NN queries: backends, lattice search, anti-monotonicity."""

import gc
import itertools
import json
import math

import numpy as np
import pytest

from uncertain_spatial import (
    CapExceededError,
    ExactTrajectoryBackend,
    SampledTrajectoryBackend,
    TrajectoryDataset,
    UncertainTrajectory,
    ValidationError,
    euclidean_distance,
    loads_trajectory_dataset,
    maximal_timestamp_sets,
    pc_tau_nn,
    pcnn_query,
)

from uncertain_spatial import sampling
from uncertain_spatial.cli import main
from uncertain_spatial.sampling import _branches, _substreams, _uniforms

from conftest import FIXTURES


def traj(tid, spec):
    """Build a trajectory from {timestamp: [(x, y, p), ...]}."""
    return UncertainTrajectory(
        id=tid,
        per_timestamp={
            t: tuple(((float(x), float(y)), float(p)) for x, y, p in alts)
            for t, alts in spec.items()
        },
    )


def random_dataset(rng, max_timestamps=5, max_objects=3, max_alts=2):
    n_t = int(rng.integers(1, max_timestamps + 1))
    timestamps = tuple(range(n_t))

    def random_traj(tid):
        spec = {}
        for t in timestamps:
            m = int(rng.integers(1, max_alts + 1))
            raw = rng.random(m) + 0.1
            probs = raw / raw.sum()
            spec[t] = [(rng.uniform(-10, 10), rng.uniform(-10, 10), probs[j]) for j in range(m)]
        return traj(tid, spec)

    n_obj = int(rng.integers(1, max_objects + 1))
    return TrajectoryDataset(
        timestamps=timestamps,
        query=random_traj("q"),
        objects=tuple(random_traj(f"o{i}") for i in range(n_obj)),
    )


def pin_winner(ds, oid, pinned):
    """A copy where, at the pinned timestamps, the query sits at the origin, ``oid``
    within distance 1.5 of it and every other object about 50 away, so ``oid`` surely
    wins there."""

    def moved(tr):
        per = dict(tr.per_timestamp)
        for t in pinned:
            if tr is ds.query:
                per[t] = (((0.0, 0.0), 1.0),)
            else:
                shift = 0.0 if tr.id == oid else 50.0
                per[t] = tuple(((x / 10 + shift, y / 10), p) for (x, y), p in per[t])
        return UncertainTrajectory(id=tr.id, per_timestamp=per)

    return TrajectoryDataset(
        timestamps=ds.timestamps, query=moved(ds.query), objects=tuple(map(moved, ds.objects))
    )


@pytest.fixture
def demo_dataset():
    with open(FIXTURES / "pcnn_demo.json", "rb") as fh:
        return loads_trajectory_dataset(fh.read())


class TestModel:
    def test_fixture_loads(self, demo_dataset):
        assert demo_dataset.timestamps == (0, 1, 2)
        assert demo_dataset.object_ids == ("o1", "o2")
        assert demo_dataset.query.id == "q"

    def test_per_timestamp_probabilities_must_sum_to_one(self):
        with pytest.raises(ValidationError, match="sum"):
            traj("bad", {0: [(0, 0, 0.5), (1, 0, 0.3)]})

    def test_mismatched_domains_rejected(self):
        q = traj("q", {0: [(0, 0, 1.0)], 1: [(0, 0, 1.0)]})
        o = traj("o", {0: [(1, 0, 1.0)]})
        with pytest.raises(ValidationError, match="domain"):
            TrajectoryDataset(timestamps=(0, 1), query=q, objects=(o,))

    def test_duplicate_ids_rejected(self):
        q = traj("q", {0: [(0, 0, 1.0)]})
        o = traj("q", {0: [(1, 0, 1.0)]})
        with pytest.raises(ValidationError, match="duplicate"):
            TrajectoryDataset(timestamps=(0,), query=q, objects=(o,))


class TestExactBackend:
    def test_fixture_singletons(self, demo_dataset):
        be = ExactTrajectoryBackend(demo_dataset)
        assert be.pfann("o1", [0]) == pytest.approx(0.9, abs=1e-12)
        assert be.pfann("o1", [1]) == pytest.approx(0.8, abs=1e-12)
        assert be.pfann("o2", [2]) == pytest.approx(0.4, abs=1e-12)

    def test_certain_winner_is_exactly_one(self):
        ds = TrajectoryDataset(
            timestamps=(0,),
            query=traj("q", {0: [(0, 0, 0.6), (0.5, 0, 0.4)]}),
            objects=(
                traj("near", {0: [(1, 0, 0.7), (1.5, 0, 0.3)]}),
                traj("far", {0: [(50, 0, 1.0)]}),
            ),
        )
        assert ExactTrajectoryBackend(ds).pfann("near", [0]) == 1.0

    def test_sure_timestamp_factors_out(self):
        """With one certain timestamp, adding it never changes a probability."""
        ds = TrajectoryDataset(
            timestamps=(0, 1),
            query=traj("q", {0: [(0, 0, 1.0)], 1: [(0, 0, 1.0)]}),
            objects=(
                traj("a", {0: [(1, 0, 1.0)], 1: [(1, 0, 0.5), (9, 0, 0.5)]}),
                traj("b", {0: [(5, 0, 1.0)], 1: [(4, 0, 1.0)]}),
            ),
        )
        be = ExactTrajectoryBackend(ds)
        assert be.pfann("a", [0]) == 1.0
        assert be.pfann("a", [0, 1]) == be.pfann("a", [1])

    def test_ties_break_by_object_id(self):
        ds = TrajectoryDataset(
            timestamps=(0,),
            query=traj("q", {0: [(0, 0, 1.0)]}),
            objects=(traj("a", {0: [(1, 0, 1.0)]}), traj("b", {0: [(1, 0, 1.0)]})),
        )
        be = ExactTrajectoryBackend(ds)
        assert be.pfann("a", [0]) == 1.0
        assert be.pfann("b", [0]) == 0.0

    def test_monotone_under_containment(self):
        rng = np.random.default_rng(51)
        for _ in range(20):
            ds = random_dataset(rng)
            be = ExactTrajectoryBackend(ds)
            oid = ds.object_ids[0]
            ts = list(ds.timestamps)
            for size in range(1, len(ts) + 1):
                for sub in itertools.combinations(ts, size):
                    p_sub = be.pfann(oid, sub)
                    for t in ts:
                        if t not in sub:
                            assert be.pfann(oid, sub + (t,)) <= p_sub + 1e-12


class TestSampledBackend:
    def test_within_five_sigma_of_exact(self):
        rng = np.random.default_rng(52)
        n = 20000
        for i in range(10):
            ds = random_dataset(rng, max_timestamps=3, max_objects=2)
            exact = ExactTrajectoryBackend(ds)
            sampled = SampledTrajectoryBackend(ds, n, seed=100 + i)
            for oid in ds.object_ids:
                for size in (1, len(ds.timestamps)):
                    sub = ds.timestamps[:size]
                    p = exact.pfann(oid, sub)
                    sigma = math.sqrt(max(p * (1 - p), 1e-12) / n)
                    assert abs(sampled.pfann(oid, sub) - p) <= 5 * sigma

    def test_shared_sample_monotonicity_is_exact(self):
        rng = np.random.default_rng(53)
        for i in range(10):
            ds = random_dataset(rng)
            sampled = SampledTrajectoryBackend(ds, 500, seed=i)
            ts = ds.timestamps
            for oid in ds.object_ids:
                for size in range(1, len(ts) + 1):
                    for sub in itertools.combinations(ts, size):
                        p_sub = sampled.pfann(oid, sub)
                        for t in ts:
                            if t not in sub:
                                assert sampled.pfann(oid, sub + (t,)) <= p_sub

    def test_exclusive_winner_bits(self):
        """Per timestamp, the objects' tidsets are pairwise disjoint and cover every sample."""
        rng = np.random.default_rng(54)
        ds = random_dataset(rng, max_objects=3)
        sampled = SampledTrajectoryBackend(ds, 200, seed=9)
        for t in ds.timestamps:
            tids = [sampled.tidsets[oid][t] for oid in ds.object_ids]
            assert sum(tid.bit_count() for tid in tids) == 200
            union = 0
            for tid in tids:
                assert union & tid == 0
                union |= tid
            assert union == (1 << 200) - 1

    def test_determinism(self, demo_dataset):
        a = SampledTrajectoryBackend(demo_dataset, 1000, seed=5)
        b = SampledTrajectoryBackend(demo_dataset, 1000, seed=5)
        assert a.tidsets == b.tidsets


def grid_dataset(rng, n_t=4, n_obj=4, max_alts=3, sure=()):
    """Alternatives on a 5x5 integer grid, so equal distances (and id tie-breaks) are common.

    At the timestamps in ``sure`` the query has one alternative and ``o0`` sits on it, so
    ``o0`` surely wins there: an object as near is at distance 0 too and loses on id.
    """

    def grid_spec():
        spec = {}
        for t in range(n_t):
            m = int(rng.integers(1, max_alts + 1))
            spec[t] = [(*rng.integers(0, 5, size=2).tolist(), 1.0 / m) for _ in range(m)]
        return spec

    ids = [f"o{i}" for i in rng.permutation(n_obj)]  # ids out of database order
    specs = {tid: grid_spec() for tid in ["q", *ids]}
    for t in sure:
        x, y, _ = specs["q"][t][0]
        specs["q"][t] = specs["o0"][t] = [(x, y, 1.0)]
    return TrajectoryDataset(
        timestamps=tuple(range(n_t)), query=traj("q", specs["q"]),
        objects=tuple(traj(tid, specs[tid]) for tid in ids),
    )


def pruned_grid_dataset(rng, n_t=4, n_far=6, max_alts=3):
    """A grid query with three objects at the kNN reach bound and others far beyond it.

    ``m`` sits exactly 5 away, so the reach bound is 5.  ``a`` has one alternative exactly
    at the bound (it ties ``m`` there and wins by id) and one far off; ``z`` ties at the
    bound or lies closer.  Objects on a grid 50 away are never nearest, so they are not drawn.
    """
    spec = {tid: {} for tid in ["q", "m", "a", "z"] + [f"f{i}" for i in range(n_far)]}
    for t in range(n_t):
        qx, qy = rng.integers(0, 5, size=2).tolist()
        spec["q"][t] = [(qx, qy, 1.0)]
        spec["m"][t] = [(qx + 3, qy + 4, 1.0)]
        spec["a"][t] = [(qx - 4, qy + 3, 0.5), (qx + 60, qy + 80, 0.5)]
        spec["z"][t] = [(qx, qy - 5, 0.5), (qx + 1, qy + 1, 0.5)]
        for i in range(n_far):
            m = int(rng.integers(1, max_alts + 1))
            spec[f"f{i}"][t] = [(*(50 + rng.integers(0, 5, size=2)).tolist(), 1.0 / m)
                                for _ in range(m)]
    ids = [tid for tid in spec if tid != "q"]
    return TrajectoryDataset(
        timestamps=tuple(range(n_t)), query=traj("q", spec["q"]),
        objects=tuple(traj(ids[i], spec[ids[i]]) for i in rng.permutation(len(ids))),
    )


def reference_bitmap(ds, n, seed):
    """Per object and timestamp, the samples the object wins, from a per-sample loop: row r
    draws timestamp b with counter r * T + b."""
    streams = _substreams(seed, n)
    rows = (ds.query, *ds.objects)
    n_t = len(ds.timestamps)
    won = {o.id: {t: set() for t in ds.timestamps} for o in ds.objects}
    for b, t in enumerate(ds.timestamps):
        picks = []
        for r, tr in enumerate(rows):
            alts = tr.per_timestamp[t]
            u = _uniforms(streams, r * n_t + b)
            idx = np.searchsorted(np.cumsum([p for _, p in alts]), u, side="right")
            picks.append([alts[min(i, len(alts) - 1)][0] for i in idx.tolist()])
        for i in range(n):
            win = min(
                range(len(ds.objects)),
                key=lambda o: (euclidean_distance(picks[0][i], picks[o + 1][i]), ds.objects[o].id),
            )
            won[ds.objects[win].id][t].add(i)
    return won


def samples_of(tidsets):
    """The sample indices of each object's tidset per timestamp."""
    return {oid: {t: {i for i in range(tid.bit_length()) if tid >> i & 1} for t, tid in per.items()}
            for oid, per in tidsets.items()}


class TestSampledBitmap:
    @pytest.mark.parametrize("seed", range(6))
    def test_bitmap_matches_a_per_sample_loop(self, seed):
        ds = grid_dataset(np.random.default_rng(seed))
        got = SampledTrajectoryBackend(ds, 300, seed=seed).tidsets
        assert samples_of(got) == reference_bitmap(ds, 300, seed)

    @pytest.mark.parametrize("seed", range(4))
    def test_rows_beyond_the_reach_bound_are_not_drawn(self, seed, monkeypatch):
        ds = pruned_grid_dataset(np.random.default_rng(seed))
        drawn = []  # (timestamp, trajectory, samples drawn) per draw

        def counting_branches(table, j, u):
            t = next(t for t, tab in ds.tables.items() if tab is table)
            drawn.append((t, (ds.query, *ds.objects)[j], len(u)))
            return _branches(table, j, u)

        monkeypatch.setattr(sampling, "_branches", counting_branches)
        n = 300
        got = SampledTrajectoryBackend(ds, n, seed=seed).tidsets
        assert samples_of(got) == reference_bitmap(ds, n, seed)
        assert any(got["a"].values())  # "a" wins its ties at the bound
        rows = (len(ds.objects) + 1) * len(ds.timestamps)
        assert len(drawn) < rows
        # a certain one-instance row (the query, "m") is 0 in every world: never drawn
        assert all(len(tr.per_timestamp[t]) > 1 for t, tr, _ in drawn)
        # the nearest-first walk draws a row only in the samples it can still win, so some
        # drawn row is drawn in fewer than all n
        assert sum(size for _, _, size in drawn) < len(drawn) * n


def dataset_json(ds):
    """A trajectory dataset in the JSON format ``loads_trajectory_dataset`` reads."""

    def record(tr):
        return {"id": tr.id, "per_timestamp": {
            str(t): [{"x": x, "y": y, "p": p} for (x, y), p in alts]
            for t, alts in tr.per_timestamp.items()}}

    return json.dumps({"timestamps": list(ds.timestamps), "query": record(ds.query),
                       "objects": [record(o) for o in ds.objects]})


def long_dataset():
    """70 grid timestamps, past a 64-bit word; o0 surely wins at 64 and 69."""
    return grid_dataset(np.random.default_rng(70), n_t=70, n_obj=3, sure=(64, 69))


class TestManyTimestamps:
    """The sampled backend takes any number of timestamps."""

    def test_pfann_counts_the_covering_samples(self):
        ds = long_dataset()
        n = 200
        sampled = SampledTrajectoryBackend(ds, n, seed=4)
        won = reference_bitmap(ds, n, 4)
        late = [(63,), (64,), (69,), (0, 63), (62, 63, 64, 65), (64, 69), tuple(range(60, 70)),
                ds.timestamps]
        for oid in ds.object_ids:
            for sub in late:
                covering = set(range(n)).intersection(*(won[oid][t] for t in sub))
                assert sampled.pfann(oid, sub) == len(covering) / n, (oid, sub)
        assert sampled.pfann("o0", (64, 69)) == 1.0

    def test_cli_answers(self, tmp_path, capsys):
        path = tmp_path / "long.json"
        path.write_text(dataset_json(long_dataset()))
        code = main(["pcnn", "--dataset", str(path), "--tau", "0.9", "--backend", "sampled",
                     "--samples", "500", "--object", "o0"])
        out, err = capsys.readouterr()
        assert (code, err) == (0, "")
        sets = json.loads(out)["results"]["o0"]
        assert {"timestamps": [64, 69], "p": 1} in sets


class TestLattice:
    def test_fixture_results(self, demo_dataset):
        be = ExactTrajectoryBackend(demo_dataset)
        res = pc_tau_nn(demo_dataset, "o1", (0, 1, 2), 0.5, be)
        found = {ts.timestamps: ts.probability for ts in res}
        assert set(found) == {(0,), (1,), (2,), (0, 1), (0, 2)}
        assert found[(0, 1)] == pytest.approx(0.72, abs=1e-12)
        assert found[(0, 2)] == pytest.approx(0.54, abs=1e-12)

    def test_only_singletons_when_pairs_fail(self):
        """Stops at level one when every pairwise probability falls below tau."""
        ds = TrajectoryDataset(
            timestamps=(0, 1, 2),
            query=traj("q", {t: [(0, 0, 1.0)] for t in range(3)}),
            objects=(
                traj("a", {t: [(1, 0, 0.55), (9, 0, 0.45)] for t in range(3)}),
                traj("b", {t: [(5, 0, 1.0)] for t in range(3)}),
            ),
        )
        res = pc_tau_nn(ds, "a", (0, 1, 2), 0.5)
        assert {ts.timestamps for ts in res} == {(0,), (1,), (2,)}

    def test_certain_nn_returns_all_subsets(self):
        ds = TrajectoryDataset(
            timestamps=(0, 1, 2),
            query=traj("q", {t: [(0, 0, 1.0)] for t in range(3)}),
            objects=(
                traj("a", {t: [(1, 0, 0.5), (2, 0, 0.5)] for t in range(3)}),
                traj("b", {t: [(5, 0, 1.0)] for t in range(3)}),
            ),
        )
        res = pc_tau_nn(ds, "a", (0, 1, 2), 0.9)
        assert len(res) == 7
        assert all(ts.probability == 1.0 for ts in res)

    def test_matches_brute_force_on_random_instances(self):
        """Each random dataset also runs with some timestamps pinned to a certain win:
        those are searched like any other and must not cost any result."""
        rng, pin_rng = np.random.default_rng(55), np.random.default_rng(56)
        for _ in range(30):
            ds = random_dataset(rng)
            tau = float(rng.uniform(0.05, 0.9))
            oid = str(rng.choice(ds.object_ids))
            pinned = [t for t in ds.timestamps if pin_rng.random() < 0.5] or [ds.timestamps[0]]
            certain = pin_winner(ds, oid, pinned)
            assert all(ExactTrajectoryBackend(certain).pfann(oid, (t,)) == 1.0 for t in pinned)
            for data in (ds, certain):
                be = ExactTrajectoryBackend(data)
                res = pc_tau_nn(data, oid, data.timestamps, tau, be)
                found = {ts.timestamps: ts.probability for ts in res}
                expected = {}
                for size in range(1, len(data.timestamps) + 1):
                    for sub in itertools.combinations(data.timestamps, size):
                        p = be.pfann(oid, sub)
                        if p >= tau:
                            expected[sub] = p
                assert set(found) == set(expected)
                for sub, p in expected.items():
                    assert found[sub] == pytest.approx(p, abs=1e-12)

    def test_matches_brute_force_with_sampled_backend(self):
        """Pruning on shared-sample estimates loses nothing: containment makes
        the estimates exactly anti-monotone.  Each dataset also runs with some
        timestamps pinned to a certain win, whose bits are set in every sample."""
        rng, pin_rng = np.random.default_rng(58), np.random.default_rng(59)
        for i in range(10):
            ds = random_dataset(rng)
            tau = float(rng.uniform(0.05, 0.9))
            oid = str(rng.choice(ds.object_ids))
            pinned = [t for t in ds.timestamps if pin_rng.random() < 0.5] or [ds.timestamps[0]]
            for data in (ds, pin_winner(ds, oid, pinned)):
                be = SampledTrajectoryBackend(data, 300, seed=70 + i)
                if data is not ds:
                    assert all(be.pfann(oid, (t,)) == 1.0 for t in pinned)
                res = pc_tau_nn(data, oid, data.timestamps, tau, be)
                found = {ts.timestamps: ts.probability for ts in res}
                expected = {
                    sub: be.pfann(oid, sub)
                    for size in range(1, len(data.timestamps) + 1)
                    for sub in itertools.combinations(data.timestamps, size)
                    if be.pfann(oid, sub) >= tau
                }
                assert found == expected

    def test_tau_validation(self, demo_dataset):
        with pytest.raises(ValidationError):
            pc_tau_nn(demo_dataset, "o1", (0, 1, 2), 0.0)
        with pytest.raises(ValidationError):
            pc_tau_nn(demo_dataset, "o1", (0, 1, 2), 1.5)

    def test_lattice_cap(self):
        ds = TrajectoryDataset(
            timestamps=tuple(range(8)),
            query=traj("q", {t: [(0, 0, 1.0)] for t in range(8)}),
            objects=(
                traj("a", {t: [(1, 0, 0.95), (9, 0, 0.05)] for t in range(8)}),
                traj("b", {t: [(5, 0, 1.0)] for t in range(8)}),
            ),
        )
        with pytest.raises(CapExceededError, match="lattice"):
            pc_tau_nn(ds, "a", ds.timestamps, 0.05, lattice_cap=50)

    def test_lattice_cap_counts_validated_sets_only(self, demo_dataset):
        """The cap bounds the backend calls, one per validated set; reported
        sets cost nothing more."""

        class Counting(ExactTrajectoryBackend):
            calls = 0

            def pfann(self, object_id, timestamps):
                self.calls += 1
                return super().pfann(object_id, timestamps)

        counting = Counting(demo_dataset)
        res = pc_tau_nn(demo_dataset, "o1", demo_dataset.timestamps, 0.5, counting)
        calls = counting.calls
        assert calls > len(demo_dataset.timestamps) and res
        again = pc_tau_nn(demo_dataset, "o1", demo_dataset.timestamps, 0.5, lattice_cap=calls)
        assert again == res
        with pytest.raises(CapExceededError, match="lattice exceeded"):
            pc_tau_nn(demo_dataset, "o1", demo_dataset.timestamps, 0.5, lattice_cap=calls - 1)

    def test_depth_first_search_validates_the_reference_sequence(self):
        """The search validates the sets a recursive prefix-class walk names, in its order,
        look-aheads included, and the lattice cap fires at the first set past the cap."""

        def reference(backend, oid, domain, tau, maximal):
            """The validated sets in order, each marked when it is a look-ahead."""
            validated = []

            def qualifies(cand, look_ahead=False):
                validated.append((cand, look_ahead))
                return backend.pfann(oid, cand) >= tau

            def visit(prefix, members):
                if maximal and len(members) > 1 and qualifies(prefix + tuple(members), True):
                    return
                for i, u in enumerate(members):
                    s = prefix + (u,)
                    tail = [v for v in members[i + 1:] if qualifies(s + (v,))]
                    if tail:
                        visit(s, tail)

            visit((), [t for t in domain if qualifies((t,))])
            return validated

        class Recording(SampledTrajectoryBackend):
            def pfann(self, object_id, timestamps):
                self.validated.append(tuple(timestamps))
                return super().pfann(object_id, timestamps)

        with open(FIXTURES / "pcnn_shadow.json", "rb") as fh:
            ds = loads_trajectory_dataset(fh.read())
        backend, plain = Recording(ds, 997, seed=42), SampledTrajectoryBackend(ds, 997, seed=42)
        look_aheads = 0
        for tau, maximal in itertools.product((0.05, 0.2), (False, True)):
            for oid in ds.object_ids:
                want = reference(plain, oid, ds.timestamps, tau, maximal)
                backend.validated = []
                pc_tau_nn(ds, oid, ds.timestamps, tau, backend, maximal=maximal)
                assert backend.validated == [cand for cand, _ in want], (oid, tau, maximal)
                look_aheads += sum(flag for _, flag in want)
        assert look_aheads > 0

        # c00 qualifies on hundreds of sets; cap it before, at and after a look-ahead
        want = reference(plain, "c00", ds.timestamps, 0.05, True)
        first = next(i for i, (_, flag) in enumerate(want) if flag and i > len(ds.timestamps))
        for cap in (first, first + 1, len(want) // 2, len(want) - 1):
            backend.validated = []
            with pytest.raises(CapExceededError, match=f"lattice exceeded {cap} candidates"):
                pc_tau_nn(ds, "c00", ds.timestamps, 0.05, backend, lattice_cap=cap, maximal=True)
            assert backend.validated == [cand for cand, _ in want[:cap]], cap
        backend.validated = []
        pc_tau_nn(ds, "c00", ds.timestamps, 0.05, backend, lattice_cap=len(want), maximal=True)
        assert len(backend.validated) == len(want)

    def test_maximal_look_ahead_reports_the_whole_domain_at_the_root(self):
        """When every singleton and the whole domain qualify, the root's look-ahead is the
        second and last validation step: one set, the domain."""
        with open(FIXTURES / "pcnn_certain.json", "rb") as fh:
            ds = loads_trajectory_dataset(fh.read())

        class Counting(ExactTrajectoryBackend):
            calls = 0

            def pfann(self, object_id, timestamps):
                self.calls += 1
                return super().pfann(object_id, timestamps)

        backend = Counting(ds)
        found = pc_tau_nn(ds, "o1", ds.timestamps, 0.3, backend, maximal=True)
        assert [ts.timestamps for ts in found] == [ds.timestamps]
        assert found[0].probability == pytest.approx(0.35, abs=1e-12)
        assert backend.calls == len(ds.timestamps) + 1
        with pytest.raises(CapExceededError):
            pc_tau_nn(ds, "o1", ds.timestamps, 0.3, lattice_cap=len(ds.timestamps), maximal=True)


class TestPcnnQuery:
    def test_single_object_database(self):
        ds = TrajectoryDataset(
            timestamps=(0, 1),
            query=traj("q", {0: [(0, 0, 1.0)], 1: [(0, 0, 1.0)]}),
            objects=(traj("only", {0: [(1, 0, 0.5), (2, 0, 0.5)], 1: [(3, 0, 1.0)]}),),
        )
        res = pcnn_query(ds, (0, 1), 0.5)
        assert set(res) == {"only"}
        assert {ts.timestamps for ts in res["only"]} == {(0,), (1,), (0, 1)}
        assert all(ts.probability == 1.0 for ts in res["only"])

    def test_objects_with_empty_output_omitted(self, demo_dataset):
        res = pcnn_query(demo_dataset, (0, 1, 2), 0.5)
        assert set(res) == {"o1"}

    def test_never_co_nearest_probability_mass(self, demo_dataset):
        be = ExactTrajectoryBackend(demo_dataset)
        for t in demo_dataset.timestamps:
            total = sum(be.pfann(oid, [t]) for oid in demo_dataset.object_ids)
            assert total <= 1.0 + 1e-12

    def test_matches_per_object_brute_force(self):
        rng = np.random.default_rng(57)
        for _ in range(10):
            ds = random_dataset(rng)
            be = ExactTrajectoryBackend(ds)
            tau = float(rng.uniform(0.1, 0.8))
            res = pcnn_query(ds, ds.timestamps, tau, be)
            for oid in ds.object_ids:
                expected = {
                    sub: be.pfann(oid, sub)
                    for size in range(1, len(ds.timestamps) + 1)
                    for sub in itertools.combinations(ds.timestamps, size)
                    if be.pfann(oid, sub) >= tau
                }
                if not expected:
                    assert oid not in res
                else:
                    assert {t.timestamps for t in res[oid]} == set(expected)


    @pytest.mark.parametrize("maximal", [False, True])
    @pytest.mark.parametrize("backend", ["exact", "sampled"])
    def test_queries_leave_no_reference_cycles(self, backend, maximal):
        """Loading and an all-object query leave nothing for the cyclic collector, so their
        memory goes back as soon as the results are dropped."""
        text = (FIXTURES / "pcnn_shadow.json").read_bytes()
        gc.collect()
        enabled = gc.isenabled()
        gc.disable()
        try:
            ds = loads_trajectory_dataset(text)
            engine = (ExactTrajectoryBackend(ds) if backend == "exact"
                      else SampledTrajectoryBackend(ds, 997, seed=42))
            assert pcnn_query(ds, ds.timestamps, 0.05, engine, maximal=maximal)
            del ds, engine
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()


class TestMaximalFilter:
    def test_keeps_only_maximal_sets(self, demo_dataset):
        be = ExactTrajectoryBackend(demo_dataset)
        res = pc_tau_nn(demo_dataset, "o1", (0, 1, 2), 0.5, be)
        maximal = maximal_timestamp_sets(res)
        assert {ts.timestamps for ts in maximal} == {(0, 1), (0, 2)}
