"""The benchmark's four workloads.

Each workload makes its inputs from the seed, defines the operations of one
round, and checks the outputs of the first round.  A run repeats the same
round, so every later round must reproduce the first one's outputs exactly.

ppdiv is imported inside ``build`` (which is timed as set-up), and every
call goes through a module attribute such as ``harness.run_simulation`` so
that the traced run can time it from outside.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable

import numpy as np

import checks
import reference
from tracing import patched


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    # Untimed: turns the raw result into (key, detail).  ``key`` must repeat
    # exactly whenever the operation is repeated; ``detail`` feeds the checks.
    digest: Callable[[Any], tuple]


def derive_seeds(seed: int, n: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n)]


def random_mixture(gen: np.random.Generator, dim: int, n: int, mass: float):
    """n components with distinct random SPD covariances, total weight ``mass``."""
    from ppdiv import gaussmix

    w = gen.uniform(0.2, 1.2, n)
    a = 0.4 * gen.standard_normal((n, dim, dim))
    covs = a @ np.swapaxes(a, -1, -2) + gen.uniform(0.3, 1.3, n)[:, None, None] * np.eye(dim)
    return gaussmix.GaussianMixture(w / w.sum() * mass, gen.uniform(-3.0, 3.0, (n, dim)), covs)


def arrays(mixture) -> tuple:
    return mixture.weights, mixture.means, mixture.covs


def process_sides(model) -> list:
    """A MixturePoissonModel as [(probability, (weights, means, covs))]."""
    return [(p, arrays(m.intensity)) for p, m in model.components]


# ---------------------------------------------------------------------------
# desk scenario


WARM_HORIZON = 3


class StepCapture:
    """Wraps ``harness.select_action`` during one run and keeps, per step, the
    candidates' rewards and positions, plus the predicted intensity and the
    posterior previews at the sampled steps."""

    def __init__(self, sample_steps):
        self.sample_steps = sample_steps
        self.steps: list[SimpleNamespace] = []

    def wrap(self, select_action):
        def capture(predicted, s_prev, cfg):
            position, evaluations = select_action(predicted, s_prev, cfg)
            step = len(self.steps) + 1
            sampled = step in self.sample_steps
            self.steps.append(
                SimpleNamespace(
                    position=np.array(position),
                    rewards=np.array([e.reward for e in evaluations]),
                    positions=np.array([e.candidate_position for e in evaluations]),
                    predicted=arrays(predicted) if sampled else None,
                    previews=(
                        [None if e.posterior_preview is None else arrays(e.posterior_preview) for e in evaluations]
                        if sampled
                        else None
                    ),
                )
            )
            return position, evaluations

        return capture


def _read(path: Path) -> tuple[bytes, bytes]:
    return path.read_bytes(), Path(f"{path}.meta.json").read_bytes()


def _check_steps(what: str, record, cfg) -> None:
    steps = record.steps
    checks.rewards_valid(what, [s.reward for s in steps])
    checks.inside_area(what, [s.sensor for s in steps], cfg.area)
    checks.ospa_in_range(what, [s.ospa for s in steps], cfg.ospa_cutoff)


class DeskCs:
    """Full-horizon desk-scenario runs under the ``cs`` policy, one per seed."""

    name = "desk-cs"
    seeds_per_round = 2
    sample_steps = (10, 20, 30, 40)

    def build(self, seed: int, out: Path):
        from ppdiv import harness, scenario

        return SimpleNamespace(
            harness=harness,
            cfg=scenario.ScenarioConfig(),
            warm_cfg=scenario.ScenarioConfig(horizon=WARM_HORIZON),
            seeds=derive_seeds(seed, self.seeds_per_round),
            out=out,
        )

    def _run(self, inp, cfg, seed: int, path: Path):
        capture = StepCapture(self.sample_steps)
        with patched(inp.harness, "select_action", capture.wrap):
            record = inp.harness.run_simulation(cfg, seed, "cs")
        inp.harness.write_run_csv(record, path)
        return record, capture, path

    @staticmethod
    def _digest(raw):
        record, capture, path = raw
        return _read(path), (record, capture)

    def warm_up(self, inp):
        raw = self._run(inp, inp.warm_cfg, inp.seeds[0], inp.out / "warm-cs.csv")
        return self._digest(raw)[0][0]

    def ops(self, inp) -> list[Op]:
        return [
            Op(f"cs-{seed}", lambda seed=seed: self._run(inp, inp.cfg, seed, inp.out / f"cs-{seed}.csv"), self._digest)
            for seed in inp.seeds
        ]

    def check(self, inp, warm: bytes, outputs) -> None:
        cfg = inp.cfg
        for label, (csv, _), (record, capture) in outputs:
            _check_steps(label, record, cfg)
            if len(capture.steps) != len(record.steps):
                raise checks.CheckFailed(f"{label}: {len(capture.steps)} look-aheads for {len(record.steps)} steps")
            for step, cap in zip(record.steps, capture.steps):
                what = f"{label} step {step.step}"
                checks.candidates_scored(what, cap.rewards, cap.positions, cfg.area)
                checks.earliest_argmax(what, cap.rewards, step.action_index)
                checks.same_outputs(f"{what} reward", step.reward, float(cap.rewards[step.action_index]))
                checks.same_outputs(f"{what} sensor", tuple(step.sensor), tuple(cap.positions[step.action_index]))
                checks.same_outputs(f"{what} chosen position", tuple(cap.position), tuple(step.sensor))
                if cap.predicted is not None:
                    ref, scale = reference.csd(cap.predicted, cap.previews[step.action_index])
                    checks.matches_reference(f"{what} reward vs double sum", step.reward, ref, scale)
        checks.csv_prefix(f"horizon-{WARM_HORIZON} run of {outputs[0][0]}", warm, outputs[0][1][0])


class DeskBaselines:
    """Full-horizon ``random`` and ``stay`` batches through run_montecarlo.

    One operation is a batch of ``runs_per_op`` runs of one policy, as a user
    would run it; the per-run cost of ``random`` depends strongly on where
    the random walk takes the sensor, and a batch averages that out.
    """

    name = "desk-baselines"
    seeds_per_round = 2
    runs_per_op = 3
    policies = ("random", "stay")

    def build(self, seed: int, out: Path):
        from ppdiv import harness, scenario

        return SimpleNamespace(
            harness=harness,
            cfg=scenario.ScenarioConfig(),
            warm_cfg=scenario.ScenarioConfig(horizon=WARM_HORIZON),
            seeds=derive_seeds(seed, self.seeds_per_round),
            out=out,
        )

    def _run(self, inp, cfg, seed: int, policy: str, path: Path):
        records = []

        def record_runs(run_simulation):
            def recorded(*args, **kwargs):
                records.append(run_simulation(*args, **kwargs))
                return records[-1]

            return recorded

        with patched(inp.harness, "run_simulation", record_runs):
            summary = inp.harness.run_montecarlo(cfg, self.runs_per_op, seed, 1, policy)
        inp.harness.write_mc_csv(summary, path)
        return records, path

    @staticmethod
    def _digest(raw):
        records, path = raw
        return _read(path), records

    def warm_up(self, inp):
        return {
            policy: self._run(inp, inp.warm_cfg, inp.seeds[0], policy, inp.out / f"warm-{policy}.csv")[1].read_bytes()
            for policy in self.policies
        }

    def ops(self, inp) -> list[Op]:
        return [
            Op(
                f"{policy}-{seed}",
                lambda seed=seed, policy=policy: self._run(inp, inp.cfg, seed, policy, inp.out / f"{policy}-{seed}.csv"),
                self._digest,
            )
            for seed in inp.seeds
            for policy in self.policies
        ]

    def check(self, inp, warm: dict, outputs) -> None:
        cfg = inp.cfg
        for label, (csv, _), records in outputs:
            checks.same_outputs(f"{label} runs", [r.run_index for r in records], list(range(self.runs_per_op)))
            for record in records:
                what = f"{label} run {record.run_index}"
                _check_steps(what, record, cfg)
                if record.policy == "stay":
                    checks.never_moves(what, [s.sensor for s in record.steps], cfg.sensor_start)
                    checks.same_outputs(f"{what} actions", {s.action_index for s in record.steps}, {0})
            ospa = np.array([[s.ospa for s in r.steps] for r in records])
            rows = [line.split(",") for line in csv.decode().splitlines()[1:]]
            checks.same_outputs(f"{label} batch CSV steps", [int(r[0]) for r in rows], list(range(1, cfg.horizon + 1)))
            checks.same_outputs(f"{label} batch CSV n_runs", {r[3] for r in rows}, {str(self.runs_per_op)})
            for row, mean, std in zip(rows, ospa.mean(axis=0), ospa.std(axis=0, ddof=1)):
                checks.matches_reference(f"{label} step {row[0]} OSPA mean", float(row[1]), mean, cfg.ospa_cutoff)
                checks.matches_reference(f"{label} step {row[0]} OSPA std", float(row[2]), std, cfg.ospa_cutoff)
        for policy in self.policies:
            label, (csv, _), _ = next(o for o in outputs if o[0] == f"{policy}-{inp.seeds[0]}")
            checks.csv_prefix(f"horizon-{WARM_HORIZON} batch of {label}", warm[policy], csv)


# ---------------------------------------------------------------------------
# divergence routes


class CsdClosed:
    """Closed-form D_CS between seeded random intensities, d = 2 and d = 4."""

    name = "csd-closed"
    # (components of u, components of v) per dimension; the smallest pair
    # still takes tens of milliseconds.
    gm_sizes = {
        2: ((160, 150), (280, 260), (400, 380), (520, 500)),
        4: ((120, 110), (220, 200), (350, 330), (500, 480)),
    }
    # Mixtures of processes: (probability, components) per side.
    mix_sides = (((0.35, 120), (0.65, 100)), ((0.6, 110), (0.4, 90)))
    masses = (5.0, 4.0)
    unit_k = 2.5

    def build(self, seed: int, out: Path):
        from ppdiv import divergence, gaussmix

        gen = np.random.default_rng(derive_seeds(seed, 1)[0])
        pm = divergence.PoissonModel
        pairs = {
            d: [
                (pm(random_mixture(gen, d, nu, self.masses[0])), pm(random_mixture(gen, d, nv, self.masses[1])))
                for nu, nv in sizes
            ]
            for d, sizes in self.gm_sizes.items()
        }
        mixes = {
            d: tuple(
                divergence.MixturePoissonModel(
                    tuple((p, pm(random_mixture(gen, d, n, mass))) for p, n in side)
                )
                for side, mass in zip(self.mix_sides, self.masses)
            )
            for d in self.gm_sizes
        }
        return SimpleNamespace(divergence=divergence, gaussmix=gaussmix, pairs=pairs, mixes=mixes, gen=gen)

    def warm_up(self, inp):
        for d in self.gm_sizes:
            a, b = inp.pairs[d][0]
            inp.divergence.csd_poisson_gm(a, b)
        return None

    def ops(self, inp) -> list[Op]:
        ops = []
        for d, pairs in inp.pairs.items():
            for a, b in pairs:
                ops.append(
                    Op(
                        f"gm-d{d}-{len(a.intensity)}x{len(b.intensity)}",
                        lambda a=a, b=b: inp.divergence.csd_poisson_gm(a, b),
                        lambda value, a=a, b=b: (value, (a, b)),
                    )
                )
            fa, fb = inp.mixes[d]
            ops.append(
                Op(
                    f"mix-d{d}",
                    lambda fa=fa, fb=fb: inp.divergence.csd_poisson_mixture(fa, fb),
                    lambda value, fa=fa, fb=fb: (value, (fa, fb)),
                )
            )
        return ops

    def check(self, inp, warm, outputs) -> None:
        div, pm, gm = inp.divergence, inp.divergence.PoissonModel, inp.gaussmix.GaussianMixture
        for label, value, (a, b) in outputs:
            checks.nonnegative(label, value)
            if label.startswith("gm"):
                ref, scale = reference.csd(arrays(a.intensity), arrays(b.intensity))
            else:
                ref, scale = reference.csd_process_mixture(process_sides(a), process_sides(b))
            checks.matches_reference(f"{label} vs double sum", value, ref, scale)
        for d in self.gm_sizes:
            label, value, (a, b) = next(o for o in outputs if o[0].startswith(f"gm-d{d}-"))
            u, v = a.intensity, b.intensity
            _, scale = reference.csd(arrays(u), arrays(v))
            checks.symmetric(label, value, div.csd_poisson_gm(b, a), scale)
            _, self_scale = reference.csd(arrays(u), arrays(u))
            checks.self_divergence_zero(label, div.csd_poisson_gm(a, a), self_scale)
            unit = inp.gaussmix.HyperVolumeUnit(self.unit_k)
            scaled = div.csd_poisson_gm(pm(u, unit), pm(v, unit))
            checks.linear_in_k(label, value, scaled, self.unit_k, scale)
            pu, pv = inp.gen.permutation(len(u)), inp.gen.permutation(len(v))
            permuted = div.csd_poisson_gm(
                pm(gm(u.weights[pu], u.means[pu], u.covs[pu])),
                pm(gm(v.weights[pv], v.means[pv], v.covs[pv])),
            )
            checks.permutation_invariant(label, value, permuted, scale)
            mix = div.MixturePoissonModel
            reduced = div.csd_poisson_mixture(mix(((1.0, a),)), mix(((1.0, b),)))
            checks.matches_reference(
                f"{label} one-component mixture of processes", reduced, value, scale + a.mass + b.mass
            )


class CsdOracles:
    """Quadrature and Monte Carlo routes, and Bhattacharyya vs Hellinger."""

    name = "csd-oracles"
    quad_sizes = ((3, 2), (8, 6), (20, 16))
    quad_masses = (2.0, 1.5)
    mc_samples = 100_000
    coarse_cells = 250

    def build(self, seed: int, out: Path):
        from ppdiv import divergence, gaussmix, pointprocess

        seed_inputs, seed_mc, seed_mix = derive_seeds(seed, 3)
        gen = np.random.default_rng(seed_inputs)
        pm = divergence.PoissonModel
        quad = [
            (random_mixture(gen, 2, nu, self.quad_masses[0]), random_mixture(gen, 2, nv, self.quad_masses[1]))
            for nu, nv in self.quad_sizes
        ]
        mc = (pm(random_mixture(gen, 2, 3, 1.5)), pm(random_mixture(gen, 2, 2, 1.2)))
        mc_mix = tuple(
            divergence.MixturePoissonModel(tuple((p, pm(random_mixture(gen, 2, 2, mass))) for p, mass in side))
            for side in (((0.4, 1.4), (0.6, 0.9)), ((0.7, 1.7), (0.3, 1.1)))
        )
        bhatt = tuple(pm(random_mixture(gen, 2, 1, gen.uniform(0.5, 3.0))) for _ in range(2))
        return SimpleNamespace(
            divergence=divergence,
            gaussmix=gaussmix,
            pointprocess=pointprocess,
            quad=quad,
            mc=mc,
            mc_mix=mc_mix,
            bhatt=bhatt,
            seed_mc=seed_mc,
            seed_mix=seed_mix,
        )

    @staticmethod
    def _quadrature(inp, u, v, cells=None):
        div, gm = inp.divergence, inp.gaussmix
        points, vol = div.intensity_grid([u, v], cells)
        return div.csd_poisson_quadrature(gm.mixture_eval(u, points), gm.mixture_eval(v, points), vol)

    @staticmethod
    def _hellinger(inp, a, b, cells=None):
        div, gm = inp.divergence, inp.gaussmix
        points, vol = div.intensity_grid([a.intensity, b.intensity], cells)
        return div.hellinger_sq_quadrature(
            gm.mixture_eval(a.intensity, points), gm.mixture_eval(b.intensity, points), vol
        )

    def warm_up(self, inp):
        u, v = inp.quad[0]
        self._quadrature(inp, u, v, 100)
        pp = inp.pointprocess
        pp.mc_csd(pp.RngStream(inp.seed_mc), *inp.mc, 1000)
        return None

    def ops(self, inp) -> list[Op]:
        pp, div = inp.pointprocess, inp.divergence
        ops = [
            Op(
                f"quad-{len(u)}x{len(v)}",
                lambda u=u, v=v: self._quadrature(inp, u, v),
                lambda q, u=u, v=v: (q, (u, v)),
            )
            for u, v in inp.quad
        ]
        ops.append(
            Op(
                "mc",
                lambda: pp.mc_csd(pp.RngStream(inp.seed_mc), *inp.mc, self.mc_samples),
                lambda r: (r, inp.mc),
            )
        )
        ops.append(
            Op(
                "mc-mix",
                lambda: pp.mc_csd(pp.RngStream(inp.seed_mix), *inp.mc_mix, self.mc_samples),
                lambda r: (r, inp.mc_mix),
            )
        )
        ops.append(
            Op(
                "bhatt",
                lambda: (div.bhatt_poisson_gaussian(*inp.bhatt), self._hellinger(inp, *inp.bhatt)),
                lambda r: (r, inp.bhatt),
            )
        )
        return ops

    def check(self, inp, warm, outputs) -> None:
        for label, value, models in outputs:
            if label.startswith("quad"):
                u, v = models
                closed, _ = reference.csd(arrays(u), arrays(v))
                coarse = self._quadrature(inp, u, v, self.coarse_cells)
                checks.quadrature_matches(label, value, coarse, closed)
            elif label == "mc":
                a, b = models
                exact, _ = reference.csd(arrays(a.intensity), arrays(b.intensity))
                checks.within_standard_errors(label, *value, exact)
            elif label == "mc-mix":
                exact, _ = reference.csd_process_mixture(*map(process_sides, models))
                checks.within_standard_errors(label, *value, exact)
            else:
                a, b = models
                bhatt, hellinger = value
                coarse = self._hellinger(inp, a, b, self.coarse_cells)
                checks.quadrature_matches(label, hellinger, coarse, bhatt)
                ga, gb = a.intensity, b.intensity
                ref = reference.bhattacharyya_gaussian(
                    ga.weights[0], ga.means[0], ga.covs[0], gb.weights[0], gb.means[0], gb.covs[0]
                )
                checks.matches_reference(f"{label} vs reference formula", bhatt, ref, a.mass + b.mass)


WORKLOADS = {w.name: w for w in (DeskCs(), DeskBaselines(), CsdClosed(), CsdOracles())}
