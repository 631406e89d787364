"""Stacked-ensemble Newton solves over a compiled stamp program.

The synthesis flow keeps re-solving the *same* small MNA system with
slightly perturbed device parameters: Monte-Carlo mismatch samples,
process-corner replicas, warm-started sizing rounds.  PR 1 compiled the
circuit once (:class:`~repro.analysis.stamps.StampProgram`); this module
batches the parameter vectors themselves.  K members share one program:
residuals become ``(K, n)``, Jacobians ``(K, n, n)``, and every Newton
iteration performs **one** stacked ``np.linalg.solve`` plus one batched
device-model evaluation for the whole ensemble.

Design rules (pinned by ``tests/test_ensemble.py`` and
``tests/test_ensemble_kernels.py``):

* **Parity** — member arithmetic is elementwise per row, the stacked
  linear solve runs LAPACK per matrix, and the linear-part residual is
  accumulated with a fixed-order ``einsum`` (never a batch-size-dependent
  GEMM kernel), so a member's trajectory is independent of which other
  members share its batch.  The default ``solve()`` mirrors the scalar
  :class:`~repro.resilience.policy.DirectNewton` rung stage for stage,
  keeping the stacked path sample-for-sample equal to one scalar ladder
  run per member at rtol 1e-9 — and shard partitioning bit-identical.
  ``solve(seed=...)`` mirrors the
  :class:`~repro.resilience.policy.WarmStart` rung instead: the same two
  stages from the seed, then the scalar ladder of
  :func:`~repro.resilience.policy.warm_policy` for a member they cannot
  converge.  Monte-Carlo passes every member one seed (the design's
  nominal operating point), so parity holds there too.
* **Masking** — a member that converges, or is demoted for a
  non-finite residual norm or a singular matrix, leaves the iteration:
  later iterations evaluate the device model, assemble and solve only
  the live rows (:meth:`EnsembleProgram.residual_and_jacobian` takes
  them as ``idx``), so a solve costs the summed member iterations
  (``ensemble.newton_iterations``), not K times the slowest member's.
  Stragglers keep iterating.  A member that exhausts the fast
  batched rung falls back *individually* to the scalar escalation
  ladder a per-sample solve would run
  (:data:`~repro.resilience.policy.COMPILED_POLICY`, or
  :func:`~repro.resilience.policy.warm_policy` of its seed for a seeded
  solve), so one divergent sample cannot poison its batch and failures
  carry the same structured
  :class:`~repro.resilience.policy.ConvergenceReport` (and raise the
  same :class:`~repro.errors.ConvergenceError`) as that solve.
* **Assembly** — the live rows' Jacobians are built directly in one
  contiguous ``(m, size, size)`` block seeded from the program's linear
  stamps (no padded ``(m, size+1, size+1)`` stack to slice).  MOS stamps go
  in through one ``np.add.at`` over flat 1-D indices (numpy's tuple-index
  path is ~8x slower); stamps on the ground row or column land in a
  single trash slot past the block, and the residual is scattered
  through flat indices too.  The indices are rebuilt every iteration:
  there is no swap cache, since the live set shrinks and its swap state
  changes, and a cache keyed on them mostly missed.  Each entry receives
  its adds in the same order as a padded tuple-indexed scatter, so every
  number is bit-identical to that reference, signed zeros included
  (``tests/oracles/analysis.py``, pinned by
  ``tests/test_ensemble_kernels.py``; only the sign of a NaN born of
  ``nan + nan`` may differ, as the flat path orders operands the other
  way).

The per-member reference the tests compare against is plain public
calls: ``[measure_ota(tb) for tb in benches]`` for measurements, and a
``warm_policy(nominal).run(program)`` loop for Monte-Carlo rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import telemetry
from repro.analysis.mna import NodeIndex
from repro.circuit.elements import (
    Capacitor,
    CurrentSource,
    Mos,
    Resistor,
    VoltageSource,
)
from repro.circuit.netlist import Circuit
from repro.errors import AnalysisError, ConvergenceError
from repro.resilience import faults
from repro.resilience.policy import (
    COMPILED_POLICY,
    ConvergenceReport,
    SolverPolicy,
    warm_policy,
)

__all__ = [
    "EnsembleProgram",
    "EnsembleSolution",
    "EnsembleMeasurement",
    "measure_ota_ensemble",
]


_STACKED_FIELDS = ("vto", "gamma", "phi", "kp", "lambda_l")


class _StackedParams:
    """Duck-typed ``MosParams`` whose fields carry a leading ensemble axis.

    ``evaluate_batch`` is purely elementwise, so ``(K, n)`` parameter
    arrays broadcast against ``(K, n)`` bias arrays exactly like the
    per-device ``(n,)`` view the compiled engine already uses — one model
    call evaluates every device of every member.
    """

    def __init__(self, member_devices: Sequence[Sequence[Mos]]):
        first = member_devices[0]
        self.name = "+".join(sorted({m.params.name for m in first}))
        # Polarity is structural: it must not vary across members.
        self.sign = np.array([m.params.sign for m in first])
        for devices in member_devices[1:]:
            if any(
                m.params.sign != s for m, s in zip(devices, self.sign)
            ):
                raise AnalysisError(
                    "ensemble members must agree on device polarity"
                )

        def stack(attr: str) -> np.ndarray:
            return np.array(
                [
                    [getattr(m.params, attr) for m in devices]
                    for devices in member_devices
                ]
            )

        for attr in _STACKED_FIELDS:
            setattr(self, attr, stack(attr))

    def rows(self, idx: np.ndarray) -> "_StackedParams":
        """The same parameters restricted to member rows ``idx``."""
        view = object.__new__(_StackedParams)
        view.name, view.sign = self.name, self.sign
        for attr in _STACKED_FIELDS:
            setattr(view, attr, getattr(self, attr)[idx])
        return view


def _stacked_level1(proto, params: _StackedParams):
    """A level-1 model evaluating stacked members' devices in one batch."""
    merged = object.__new__(type(proto))
    merged.params = params
    merged.temperature = proto.temperature
    merged.vt = proto.vt
    return merged


def _element_signature(element) -> tuple:
    """Structural identity of one element (values that stamp the shared
    linear part must match across members; MOS parameters may differ)."""
    if isinstance(element, Resistor):
        return ("R", element.name, element.a, element.b, element.value)
    if isinstance(element, Capacitor):
        return ("C", element.name, element.a, element.b, element.value)
    if isinstance(element, VoltageSource):
        return ("V", element.name, element.pos, element.neg, element.dc)
    if isinstance(element, CurrentSource):
        return ("I", element.name, element.pos, element.neg, element.dc)
    if isinstance(element, Mos):
        return ("M", element.name, element.d, element.g, element.s, element.b)
    return (type(element).__name__, element.name)


@dataclass
class EnsembleSolution:
    """Per-member outcome of one stacked ensemble solve."""

    voltages: np.ndarray
    """``(K, size)`` solution vectors (rows of failed members hold the
    last iterate of their scalar-ladder fallback)."""
    converged: np.ndarray
    """``(K,)`` bool."""
    iterations: np.ndarray
    """``(K,)`` Newton iterations spent per member (fallback included)."""
    residual_norms: np.ndarray
    """``(K,)`` last max-abs KCL residual evaluated per member."""
    gmin: np.ndarray
    """``(K,)`` achieved gmin per member (0.0 for a fully relaxed solve)."""
    index: NodeIndex
    reports: Dict[int, ConvergenceReport] = field(default_factory=dict)
    """Structured escalation record per member."""
    errors: Dict[int, ConvergenceError] = field(default_factory=dict)
    """The exact error a per-sample solve would have raised, per failed
    member."""

    @property
    def members(self) -> int:
        return int(self.voltages.shape[0])

    def raise_on_failure(self) -> None:
        """Raise the first failed member's :class:`ConvergenceError`
        (what the per-sample loop would have raised at that sample)."""
        if self.errors:
            raise self.errors[min(self.errors)]


class EnsembleProgram:
    """K parameter vectors solved simultaneously over one stamp program.

    Built either from per-member mismatch rows on a shared program
    (:meth:`from_mismatch` — the Monte-Carlo case) or from K structurally
    identical circuit variants whose device parameters differ
    (:meth:`from_variants` — the process-corner case).
    """

    def __init__(
        self,
        program,
        vth: np.ndarray,
        beta: np.ndarray,
        w: Optional[np.ndarray] = None,
        length: Optional[np.ndarray] = None,
        groups: Optional[List[Tuple[object, slice]]] = None,
        member_circuits: Optional[List[Circuit]] = None,
    ):
        self.program = program
        self.index = program.index
        vth = np.asarray(vth, dtype=float)
        beta = np.asarray(beta, dtype=float)
        if vth.ndim != 2 or vth.shape != beta.shape:
            raise AnalysisError(
                "ensemble mismatch stacks must be (members, n_mos) arrays"
            )
        if vth.shape[1] != program._n_mos:
            raise AnalysisError(
                f"ensemble mismatch stacks must have one column per MOS "
                f"({program._n_mos}), got {vth.shape[1]}"
            )
        self.members = int(vth.shape[0])
        self._vth = vth
        self._beta = beta
        self._w = program._mos_w if w is None else np.asarray(w, dtype=float)
        self._l = (
            program._mos_l if length is None
            else np.asarray(length, dtype=float)
        )
        self._groups = program._groups if groups is None else groups
        self._circuits = member_circuits

    # -- Constructors ----------------------------------------------------------

    @classmethod
    def from_mismatch(
        cls, program, vth_rows: np.ndarray, beta_rows: np.ndarray
    ) -> "EnsembleProgram":
        """Members = pre-drawn Pelgrom mismatch rows on a shared program.

        Rows follow ``program.mos_names`` order (the caller applies its
        name permutation first, exactly as with ``set_mismatch``).
        """
        return cls(program, vth_rows, beta_rows)

    @classmethod
    def from_variants(
        cls, circuits: Sequence[Circuit], index: Optional[NodeIndex] = None
    ) -> "EnsembleProgram":
        """Members = structurally identical circuits (process corners).

        Every circuit must stamp the same linear part (same elements,
        nets and R/V/I values); only MOS parameters, geometry and
        mismatch may differ.  All devices must use level-1 models at one
        temperature so the parameter stacks broadcast through a single
        merged model — anything else raises :class:`AnalysisError` and
        the caller falls back to the per-member path.
        """
        from repro.analysis.dcop import model_for
        from repro.analysis.stamps import StampProgram
        from repro.mos.level1 import Level1Model

        circuits = list(circuits)
        if not circuits:
            raise AnalysisError("ensemble needs at least one member circuit")
        base = StampProgram(circuits[0], index)
        signature = [_element_signature(e) for e in circuits[0]]
        for circuit in circuits[1:]:
            circuit.validate()
            if [_element_signature(e) for e in circuit] != signature:
                raise AnalysisError(
                    "ensemble member circuits must be structurally "
                    "identical (same elements, nets and linear values)"
                )
        member_devices: List[List[Mos]] = [
            [circuit.mos(name) for name in base.mos_names]
            for circuit in circuits
        ]
        models = {
            id(model_for(m)): model_for(m)
            for devices in member_devices
            for m in devices
        }
        if not all(type(m) is Level1Model for m in models.values()):
            raise AnalysisError(
                "ensemble variants need level-1 models throughout"
            )
        temperatures = {m.temperature for m in models.values()}
        if len(temperatures) != 1:
            raise AnalysisError(
                "ensemble variants must share one model temperature"
            )
        proto = next(iter(models.values()))
        n = len(base.mos_names)
        stacked_model = _stacked_level1(proto, _StackedParams(member_devices))
        return cls(
            base,
            vth=np.array(
                [[m.mismatch_vth for m in devices]
                 for devices in member_devices]
            ),
            beta=np.array(
                [[m.mismatch_beta for m in devices]
                 for devices in member_devices]
            ),
            w=np.array(
                [[m.w for m in devices] for devices in member_devices]
            ),
            length=np.array(
                [[m.l for m in devices] for devices in member_devices]
            ),
            groups=[(stacked_model, slice(0, n))],
            member_circuits=circuits,
        )

    # -- Assembly --------------------------------------------------------------

    def residual_and_jacobian(
        self,
        voltages: np.ndarray,
        idx: np.ndarray,
        gmin: float,
        source_scale: float = 1.0,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Residuals ``(m, size)`` and Jacobians ``(m, size, size)`` of
        the ``m`` member rows ``idx`` of the ``(K, size)`` ``voltages``.

        Mirrors :meth:`StampProgram.residual_and_jacobian` row for row;
        every operation is elementwise per member (the linear part uses a
        fixed-order einsum), so a row's values do not depend on which or
        how many rows are assembled with it — the property that keeps
        shard partitioning bit-identical and lets converged members drop
        out of the assembly.
        """
        program = self.program
        size = program.size
        pad = size + 1
        m = idx.size
        v_pad = np.zeros((m, pad))
        v_pad[:, :size] = voltages[idx]

        # One contiguous (m, size, size) block plus a trash slot at flat
        # index m*size*size that absorbs every ground-row/column stamp;
        # it is zeroed so those adds never read uninitialized memory.
        block = size * size
        flat = np.empty(m * block + 1)
        flat[-1] = 0.0
        jacobian = flat[:-1].reshape(m, size, size)
        jacobian[:] = program._a_pad[:size, :size]
        # einsum (optimize=False) accumulates j in fixed order per (k, i):
        # deliberately *not* a GEMM, whose blocking may depend on K.
        # ``out`` pins the C layout the flat residual scatter relies on.
        residual = np.einsum(
            "ij,kj->ki", program._a_pad, v_pad, out=np.empty((m, pad))
        )
        residual -= source_scale * program._source_vector

        if program._n_mos:
            vd = v_pad[:, program._mos_d]
            vg = v_pad[:, program._mos_g]
            vs = v_pad[:, program._mos_s]
            vb = v_pad[:, program._mos_b]
            sign = program._mos_sign
            swapped = sign * (vd - vs) < 0.0
            vd_f = np.where(swapped, vs, vd)
            vs_f = np.where(swapped, vd, vs)
            vgs = sign * (vg - vs_f) - self._vth[idx]
            vds = sign * (vd_f - vs_f)
            vsb = sign * (vs_f - vb)

            current = np.empty((m, program._n_mos))
            gm = np.empty((m, program._n_mos))
            gds = np.empty((m, program._n_mos))
            gmb = np.empty((m, program._n_mos))
            w = self._w[idx] if self._w.ndim == 2 else self._w
            length = self._l[idx] if self._l.ndim == 2 else self._l
            for model, members in self._groups:
                if isinstance(model.params, _StackedParams):
                    model = _stacked_level1(model, model.params.rows(idx))
                ids, gms, gdss, gmbs, _regions = model.evaluate_batch(
                    w[..., members],
                    length[..., members],
                    vgs[:, members],
                    vds[:, members],
                    vsb[:, members],
                )
                current[:, members] = ids
                gm[:, members] = gms
                gds[:, members] = gdss
                gmb[:, members] = gmbs
            if faults.active():
                fault = faults.fire("model.eval")
                if fault is not None:
                    if fault.action == "nan":
                        current.fill(np.nan)
                    else:
                        raise fault.exception()
            beta_scale = 1.0 + self._beta[idx]
            current *= beta_scale
            gm *= beta_scale
            gds *= beta_scale
            gmb *= beta_scale
            i_ds = sign * current

            # Flat scatters: one np.add.at over a 1-D index adds in the
            # same per-entry order as the (k, row, col) tuple form, but
            # skips numpy's slow multi-index path.
            drain = np.where(swapped, program._mos_s, program._mos_d)
            source = np.where(swapped, program._mos_d, program._mos_s)
            gate = np.broadcast_to(program._mos_g, drain.shape)
            bulk = np.broadcast_to(program._mos_b, drain.shape)
            member = np.arange(m)[:, None]
            np.add.at(
                residual.reshape(-1),
                (member * pad + np.concatenate((drain, source), axis=1))
                .reshape(-1),
                np.concatenate((i_ds, -i_ds), axis=1).reshape(-1),
            )
            rows = np.concatenate(
                (drain, drain, drain, drain, source, source, source, source),
                axis=1,
            )
            cols = np.concatenate((drain, gate, source, bulk) * 2, axis=1)
            target = member * block + rows * size + cols
            target[(rows == size) | (cols == size)] = m * block
            minus_sum = -(gm + gds + gmb)
            vals = np.concatenate(
                (gds, gm, minus_sum, gmb, -gds, -gm, -minus_sum, -gmb),
                axis=1,
            )
            np.add.at(flat, target.reshape(-1), vals.reshape(-1))

        nodes = program.node_count
        residual[:, :nodes] += gmin * v_pad[:, :nodes]
        diag = np.arange(nodes)
        jacobian[:, diag, diag] += gmin

        return residual[:, :size], jacobian

    # -- Masked batched Newton -------------------------------------------------

    def _newton_masked(
        self,
        voltages: np.ndarray,
        running: np.ndarray,
        gmin: float,
        source_scale: float = 1.0,
        max_iterations: int = 200,
        abs_tolerance: float = 1e-10,
        step_limit: float = 0.6,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Damped Newton on the ``running`` members, updating in place.

        Per-member control flow mirrors :meth:`StampProgram.newton`
        exactly (same damping, same two-part convergence test, same
        treatment of linear-solve failure); each iteration assembles and
        solves only the members still alive.
        Returns ``(converged, iterations, residual_norms)`` arrays (full
        K length; entries meaningful for members that started running).
        """
        K = self.members
        converged = np.zeros(K, dtype=bool)
        iterations = np.zeros(K, dtype=np.intp)
        norms = np.full(K, np.inf)
        alive = running.copy()
        for iteration in range(1, max_iterations + 1):
            idx = np.nonzero(alive)[0]
            if idx.size == 0:
                break
            r, jacobian = self.residual_and_jacobian(
                voltages, idx, gmin, source_scale
            )
            batch_norms = np.max(np.abs(r), axis=1)
            norms[idx] = batch_norms
            iterations[idx] = iteration
            # A member gone non-finite can never pass the convergence
            # test; drop it to the scalar fallback instead of burning
            # the whole iteration cap on NaNs.
            finite = np.isfinite(batch_norms)
            if not finite.all():
                alive[idx[~finite]] = False
                idx = idx[finite]
                r = r[finite]
                jacobian = jacobian[finite]
                if idx.size == 0:
                    continue
            try:
                if faults.active():
                    faults.maybe_raise("solve.linear")
                # The explicit trailing RHS axis keeps NumPy >= 2
                # treating r as a stack of vectors (never a broadcast
                # matrix).
                delta = np.linalg.solve(jacobian, -r[..., None])[..., 0]
            except Exception:
                # Stacked solve failed — LAPACK raises one LinAlgError
                # for the whole (K, n, n) batch even when a single
                # member is singular (or a fault was injected).  Re-solve
                # member-by-member to isolate the offenders: healthy
                # members keep their Newton step, and only the genuinely
                # singular ones demote to the scalar fallback ladder.
                telemetry.count("ensemble.singular_batches")
                delta = np.empty_like(r)
                for row in range(idx.size):
                    try:
                        delta[row] = np.linalg.solve(jacobian[row], -r[row])
                    except np.linalg.LinAlgError:
                        telemetry.count("ensemble.singular_members")
                        delta[row] = np.nan
            usable = np.isfinite(delta).all(axis=1)
            if not usable.all():
                alive[idx[~usable]] = False
                idx = idx[usable]
                delta = delta[usable]
                r = r[usable]
                if idx.size == 0:
                    continue
            batch_norms = np.max(np.abs(r), axis=1)
            max_step = (
                np.max(np.abs(delta), axis=1)
                if delta.shape[1]
                else np.zeros(idx.size)
            )
            over = max_step > step_limit
            if over.any():
                delta[over] *= (step_limit / max_step[over])[:, None]
            voltages[idx] += delta
            done = (
                (batch_norms < abs_tolerance) & (max_step < 1e-9)
            ) | ((max_step < 1e-12) & (batch_norms < 1e-6))
            if done.any():
                converged[idx[done]] = True
                alive[idx[done]] = False
        return converged, iterations, norms

    # -- Scalar fallback -------------------------------------------------------

    def _scalar_solve(
        self, k: int, policy: SolverPolicy, max_iterations: int
    ) -> Tuple[
        Optional[np.ndarray],
        ConvergenceReport,
        Optional[ConvergenceError],
    ]:
        """Run the scalar escalation ladder ``policy`` for member ``k``.

        This reproduces exactly what the per-sample path does for the
        member's parameter vector — including the same
        :class:`ConvergenceError` when the ladder is exhausted.
        """
        telemetry.count("ensemble.fallbacks")
        if self._circuits is not None:
            from repro.analysis.stamps import StampProgram

            backend = StampProgram(self._circuits[k])
        else:
            backend = self.program
            saved = (backend._mos_mvth, backend._mos_mbeta)
            backend.set_mismatch(self._vth[k], self._beta[k])
        try:
            voltages, report = policy.run(
                backend, max_iterations=max_iterations
            )
            return voltages, report, None
        except ConvergenceError as error:
            return error.report.final_voltages, error.report, error
        finally:
            if self._circuits is None:
                backend._mos_mvth, backend._mos_mbeta = saved
                backend._swap_cache = None

    # -- The ladder ------------------------------------------------------------

    def solve(
        self,
        seed: Optional[np.ndarray] = None,
        max_iterations: int = 200,
    ) -> EnsembleSolution:
        """Solve every member; returns an :class:`EnsembleSolution`.

        The fast path mirrors the scalar
        :class:`~repro.resilience.policy.DirectNewton` rung (two stages,
        gmin 1e-12 then 0, 50-iteration caps) batched over all members;
        members it cannot converge fall back individually to the full
        scalar ladder (:data:`~repro.resilience.policy.COMPILED_POLICY`).
        ``seed`` (``(size,)`` shared or ``(K, size)`` per member) replaces
        the standard initial guess; the fast path then mirrors the
        :class:`~repro.resilience.policy.WarmStart` rung (same stages,
        reported as ``warm-start``) and the fallback runs
        :func:`~repro.resilience.policy.warm_policy` — the warm rung,
        then the cold ladder — exactly as a per-sample solve under that
        policy would.
        """
        program = self.program
        size = program.size
        K = self.members
        telemetry.count("ensemble.solves")
        telemetry.count("ensemble.members", K)

        voltages = np.empty((K, size))
        if seed is None:
            seeds = None
            strategy = "direct-newton"
            voltages[:] = program.initial_guess()
        else:
            seeds = np.broadcast_to(np.asarray(seed, dtype=float), (K, size))
            strategy = "warm-start"
            voltages[:] = seeds
        converged = np.zeros(K, dtype=bool)
        iterations = np.zeros(K, dtype=np.intp)
        norms = np.full(K, np.inf)
        gmins = np.zeros(K)
        reports: Dict[int, ConvergenceReport] = {}
        errors: Dict[int, ConvergenceError] = {}

        stages: List[Tuple[str, np.ndarray, np.ndarray, np.ndarray]] = []
        alive = np.ones(K, dtype=bool)
        for stage_gmin in (1e-12, 0.0):
            conv_s, iter_s, norm_s = self._newton_masked(
                voltages, alive, stage_gmin,
                max_iterations=min(max_iterations, 50),
            )
            stages.append((f"gmin={stage_gmin:g}", conv_s, iter_s, norm_s))
            alive = alive & conv_s
        direct = np.nonzero(alive)[0]
        converged[direct] = True
        for k in direct:
            report = ConvergenceReport(circuit=program.circuit_name)
            for stage, conv_s, iter_s, norm_s in stages:
                report.add(
                    strategy, stage, bool(conv_s[k]),
                    int(iter_s[k]), float(norm_s[k]),
                )
            report.converged = True
            report.strategy = strategy
            report.achieved_gmin = 0.0
            reports[int(k)] = report
            iterations[k] = report.iterations
            norms[k] = stages[-1][3][k]
        for k in np.nonzero(~converged)[0]:
            policy = (
                COMPILED_POLICY if seeds is None else warm_policy(seeds[k])
            )
            v, report, error = self._scalar_solve(
                int(k), policy, max_iterations
            )
            reports[int(k)] = report
            iterations[k] = report.iterations
            if report.rungs:
                norms[k] = report.rungs[-1].residual_norm
            if error is None:
                voltages[k] = v
                converged[k] = True
                gmins[k] = report.achieved_gmin
            else:
                errors[int(k)] = error
                if v is not None:
                    voltages[k] = v

        telemetry.count("ensemble.newton_iterations", int(iterations.sum()))
        return EnsembleSolution(
            voltages=voltages,
            converged=converged,
            iterations=iterations,
            residual_norms=norms,
            gmin=gmins,
            index=self.index,
            reports=reports,
            errors=errors,
        )


# -- Ensemble measurement (process corners) ---------------------------------------


@dataclass
class EnsembleMeasurement:
    """One member's Table-1 measurement, or why it failed."""

    metrics: Optional[object]
    error: Optional[str] = None


def _measure_single(tb, f_start, f_stop, points_per_decade):
    from repro.analysis.metrics import measure_ota

    try:
        return EnsembleMeasurement(
            metrics=measure_ota(tb, f_start, f_stop, points_per_decade)
        )
    except (AnalysisError, ConvergenceError) as error:
        return EnsembleMeasurement(metrics=None, error=str(error))


def measure_ota_ensemble(
    benches,
    f_start: float = 1.0,
    f_stop: float = 3.0e9,
    points_per_decade: int = 24,
) -> List[EnsembleMeasurement]:
    """Table-1 measurement of K structurally identical testbenches.

    The stacked path shares one compiled program: one batched feedback DC
    solve biases every member, then all members' small-signal questions
    (drives, impedance probe, noise injections) are answered by a single
    ``(K, F, n, n)`` solve.  Members that are not stackable (different
    structure, non-level-1 models) are measured one ``measure_ota`` call
    each instead.
    """
    benches = list(benches)
    if not benches:
        return []

    from repro.analysis.ac import logspace_frequencies
    from repro.analysis.dcop import _package_solution
    from repro.analysis.metrics import _metrics_from_sweeps
    from repro.analysis.noise import NoiseAnalysis
    from repro.analysis.stamps import LinearSystem, solve_stacked_systems
    from repro.analysis.transfer import TransferFunction

    feedbacks = []
    for tb in benches:
        clone = tb.circuit.clone(tb.circuit.name + "_fb")
        clone.remove(tb.source_neg)
        clone.add_vsource("_fb", tb.input_neg_net, tb.output_net, dc=0.0)
        feedbacks.append(clone)
    try:
        ensemble = EnsembleProgram.from_variants(feedbacks)
    except AnalysisError:
        return [
            _measure_single(tb, f_start, f_stop, points_per_decade)
            for tb in benches
        ]

    with telemetry.span(
        "analysis.measure_ensemble",
        members=len(benches),
        circuit=benches[0].circuit.name,
    ):
        solution = ensemble.solve()
        frequencies = logspace_frequencies(f_start, f_stop, points_per_decade)
        results: List[Optional[EnsembleMeasurement]] = [None] * len(benches)
        ac_members: List[tuple] = []
        index_ol = NodeIndex(benches[0].circuit)
        for k, tb in enumerate(benches):
            if not solution.converged[k]:
                error = solution.errors.get(k)
                results[k] = EnsembleMeasurement(
                    metrics=None,
                    error=str(error) if error is not None
                    else "ensemble member did not converge",
                )
                continue
            dc = _package_solution(
                feedbacks[k],
                ensemble.index,
                solution.voltages[k],
                int(solution.iterations[k]),
                float(solution.gmin[k]),
                report=solution.reports.get(k),
            )
            offset = dc.voltage(tb.output_net) - tb.common_mode_voltage()
            try:
                system = LinearSystem(tb.circuit, dc, index=index_ol)
                out_node = index_ol.node(tb.output_net)
                if out_node < 0:
                    raise AnalysisError(
                        "OTA output cannot be the ground net"
                    )
                diff_drive = {tb.source_pos: 0.5, tb.source_neg: -0.5}
                cm_drive = {tb.source_pos: 1.0, tb.source_neg: 1.0}
                silence = {
                    name: 0.0
                    for name in (
                        s.name for s in tb.circuit
                        if isinstance(s, VoltageSource)
                    )
                    if name not in (tb.source_pos, tb.source_neg)
                }
                supply_drive = {
                    **{name: 0.0 for name in silence},
                    tb.source_pos: 0.0,
                    tb.source_neg: 0.0,
                }
                for supply in tb.supply_sources:
                    supply_drive[supply] = 1.0
                noise_analysis = NoiseAnalysis(
                    tb.circuit, dc, tb.output_net,
                    {**silence, **diff_drive},
                    system=system,
                )
                zout_column = system.injection_columns(
                    [(-1, out_node)]
                )[:, 0]
                columns = np.concatenate(
                    [
                        np.stack(
                            [
                                system.rhs({**silence, **diff_drive}),
                                system.rhs({**silence, **cm_drive}),
                                system.rhs(supply_drive),
                                zout_column,
                            ],
                            axis=1,
                        ),
                        noise_analysis.rhs_columns,
                    ],
                    axis=1,
                )
            except (AnalysisError, ConvergenceError) as error:
                results[k] = EnsembleMeasurement(
                    metrics=None, error=str(error)
                )
                continue
            ac_members.append(
                (k, dc, offset, noise_analysis, columns, system)
            )

        if ac_members:
            systems = [entry[5] for entry in ac_members]
            rhs_stack = np.stack([entry[4] for entry in ac_members])
            solved = solve_stacked_systems(systems, frequencies, rhs_stack)
            for row, (k, dc, offset, noise_analysis, _cols, _sys) in (
                enumerate(ac_members)
            ):
                tb = benches[k]
                out_node = index_ol.node(tb.output_net)
                transfers = solved[row][:, out_node, :]
                dm = TransferFunction(
                    frequencies.copy(), transfers[:, 0].copy()
                )
                cm = TransferFunction(
                    frequencies.copy(), transfers[:, 1].copy()
                )
                ps = TransferFunction(
                    frequencies.copy(), transfers[:, 2].copy()
                )
                output_resistance = float(abs(transfers[0, 3]))
                try:
                    noise = noise_analysis.result_from_output_transfers(
                        frequencies, transfers[:, 4:]
                    )
                    metrics = _metrics_from_sweeps(
                        tb, dc, offset, dm, cm, ps,
                        output_resistance, noise,
                    )
                    results[k] = EnsembleMeasurement(metrics=metrics)
                except (AnalysisError, ConvergenceError) as error:
                    results[k] = EnsembleMeasurement(
                        metrics=None, error=str(error)
                    )
        return [
            entry if entry is not None
            else EnsembleMeasurement(metrics=None, error="not measured")
            for entry in results
        ]
