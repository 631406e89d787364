"""Compiled-stamp MNA engine.

Re-stamping the MNA matrices element by element in pure Python on every
Newton iteration, and factorizing ``(G + j omega C)`` one frequency at a
time, is all interpreter overhead, not linear algebra — and the coupled
synthesis loop calls the simulator thousands of times.

This module walks a :class:`~repro.circuit.netlist.Circuit` **once** and
compiles it into a *stamp program* of flat numpy index/value arrays:

* :class:`StampProgram` — the nonlinear DC/transient program.  The linear
  part (resistors, voltage-source incidence) is pre-assembled into a dense
  matrix; each Newton iteration then only evaluates the MOS devices
  *batched per model* (:meth:`~repro.mos.model.MosModel.evaluate_batch`)
  and scatter-adds their stamps with ``np.add.at``.
* :class:`LinearSystem` — the linearised small-signal program.  ``G`` and
  ``C`` are built once from scatter triplets; a sweep stacks the complex
  system for *all* frequencies into one ``(F, n, n)`` tensor and calls a
  single broadcasted ``np.linalg.solve`` against any number of right-hand
  sides (signal drives, impedance probes, noise injections).

Ground (and any dangling reference) is mapped to one extra *trash*
row/column which is sliced away after assembly, so no per-stamp index
checks are needed.  The arithmetic mirrors textbook per-element stamping
term for term; equivalence tests pin it to the dense per-element oracle
in ``tests/oracles/analysis.py`` at rtol 1e-9.
"""

from __future__ import annotations

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
    ramp_policy,
)


def _padded(index: NodeIndex, net: str) -> int:
    """Matrix row of ``net`` with ground mapped to the trash slot."""
    node = index.node(net)
    return index.size if node < 0 else node


class _VectorParams:
    """Duck-typed :class:`~repro.technology.process.MosParams` view whose
    fields are per-device arrays.

    The base ``evaluate_batch`` formulas are purely elementwise, so a
    single call with this view evaluates devices from *different*
    parameter sets (NMOS and PMOS) at once — halving the per-iteration
    numpy dispatch cost on small circuits.
    """

    def __init__(self, devices: Sequence[Mos]):
        self.name = "+".join(sorted({m.params.name for m in devices}))
        self.sign = np.array([m.params.sign for m in devices])
        self.vto = np.array([m.params.vto for m in devices])
        self.gamma = np.array([m.params.gamma for m in devices])
        self.phi = np.array([m.params.phi for m in devices])
        self.kp = np.array([m.params.kp for m in devices])
        self.lambda_l = np.array([m.params.lambda_l for m in devices])


def _merged_level1(proto, devices: Sequence[Mos]):
    """A level-1 model instance evaluating all ``devices`` in one batch.

    Only valid when every device uses a level-1 model at one temperature:
    the level-1 hooks are parameter-free, so the only per-group state is
    ``params``, replaced here by the array view.
    """
    merged = object.__new__(type(proto))
    merged.params = _VectorParams(devices)
    merged.temperature = proto.temperature
    merged.vt = proto.vt
    return merged


class StampProgram:
    """A circuit compiled for repeated nonlinear (DC/transient) solves.

    The program holds padded ``(size+1, size+1)`` linear stamps plus flat
    per-device index/value arrays for the MOS devices, grouped by shared
    model instance so each Newton iteration evaluates every group with one
    vectorized call.
    """

    def __init__(self, circuit: Circuit, index: Optional[NodeIndex] = None):
        circuit.validate()
        self.circuit = circuit
        self.index = index if index is not None else NodeIndex(circuit)
        self.size = self.index.size
        self.node_count = self.index.node_count
        pad = self.size + 1

        a_pad = np.zeros((pad, pad))
        self._source_vector = np.zeros(pad)
        self._vsource_rows: List[Tuple[VoltageSource, int]] = []
        self._isource_rows: List[Tuple[CurrentSource, int, int]] = []

        mos_elements: List[Mos] = []
        for element in circuit:
            if isinstance(element, Resistor):
                i = _padded(self.index, element.a)
                j = _padded(self.index, element.b)
                conductance = 1.0 / element.value
                a_pad[i, i] += conductance
                a_pad[i, j] -= conductance
                a_pad[j, j] += conductance
                a_pad[j, i] -= conductance
            elif isinstance(element, Capacitor):
                continue  # open at DC; transient adds companion stamps
            elif isinstance(element, VoltageSource):
                pos = _padded(self.index, element.pos)
                neg = _padded(self.index, element.neg)
                branch = self.index.branch(element.name)
                a_pad[pos, branch] += 1.0
                a_pad[neg, branch] -= 1.0
                a_pad[branch, pos] += 1.0
                a_pad[branch, neg] -= 1.0
                self._vsource_rows.append((element, branch))
            elif isinstance(element, CurrentSource):
                pos = _padded(self.index, element.pos)
                neg = _padded(self.index, element.neg)
                self._isource_rows.append((element, pos, neg))
            elif isinstance(element, Mos):
                mos_elements.append(element)
            else:  # pragma: no cover - future element types
                raise NotImplementedError(
                    f"DC stamp for {type(element).__name__}"
                )
        # The trash row/column must not feed back into real unknowns.
        a_pad[pad - 1, :] = 0.0
        a_pad[:, pad - 1] = 0.0
        self._a_pad = a_pad
        self.refresh_sources()

        # -- MOS stamp arrays, grouped by shared model instance --------------
        from repro.analysis.dcop import model_for

        groups: Dict[int, Tuple[object, List[Mos]]] = {}
        for mos in mos_elements:
            model = model_for(mos)
            groups.setdefault(id(model), (model, []))[1].append(mos)
        ordered: List[Mos] = []
        self._groups: List[Tuple[object, slice]] = []
        offset = 0
        for model, members in groups.values():
            self._groups.append((model, slice(offset, offset + len(members))))
            ordered.extend(members)
            offset += len(members)
        from repro.mos.level1 import Level1Model

        models = [model for model, _members in self._groups]
        if (
            len(self._groups) > 1
            and all(type(model) is Level1Model for model in models)
            and len({model.temperature for model in models}) == 1
        ):
            self._groups = [
                (_merged_level1(models[0], ordered), slice(0, len(ordered)))
            ]
        self.mos_names: List[str] = [m.name for m in ordered]
        self._mos = ordered
        n = len(ordered)
        self._mos_d = np.array(
            [_padded(self.index, m.d) for m in ordered], dtype=np.intp
        )
        self._mos_g = np.array(
            [_padded(self.index, m.g) for m in ordered], dtype=np.intp
        )
        self._mos_s = np.array(
            [_padded(self.index, m.s) for m in ordered], dtype=np.intp
        )
        self._mos_b = np.array(
            [_padded(self.index, m.b) for m in ordered], dtype=np.intp
        )
        self._mos_sign = np.array(
            [m.params.sign for m in ordered], dtype=float
        )
        self._mos_w = np.array([m.w for m in ordered], dtype=float)
        self._mos_l = np.array([m.l for m in ordered], dtype=float)
        self._mos_mvth = np.array([m.mismatch_vth for m in ordered], dtype=float)
        self._mos_mbeta = np.array(
            [m.mismatch_beta for m in ordered], dtype=float
        )
        self._n_mos = n
        self._swap_cache: Optional[Tuple[np.ndarray, ...]] = None
        #: Escalation record of the most recent :meth:`solve_voltages`.
        self.last_convergence: Optional[ConvergenceReport] = None
        if telemetry.enabled():
            telemetry.count("stamps.programs_compiled")

    # -- Escalation-policy backend surface -------------------------------------

    @property
    def circuit_name(self) -> str:
        return self.circuit.name

    def initial_guess(self) -> np.ndarray:
        from repro.analysis.dcop import _initial_guess

        return _initial_guess(self.circuit, self.index)

    def zeros(self) -> np.ndarray:
        return np.zeros(self.size)

    def worst_residual_nodes(
        self, voltages: np.ndarray, count: int = 5
    ) -> List[Tuple[str, float]]:
        from repro.analysis.dcop import worst_nodes_from_residual

        residual, _jacobian = self.residual_and_jacobian(voltages, gmin=0.0)
        return worst_nodes_from_residual(self.index, residual, count)

    # -- Program state ---------------------------------------------------------

    def refresh_sources(self) -> None:
        """Re-read source DC values from the elements (transient steps
        mutate voltage-source values between solves)."""
        s = self._source_vector
        s[:] = 0.0
        for element, branch in self._vsource_rows:
            s[branch] += element.dc
        for element, pos, neg in self._isource_rows:
            s[pos] -= element.dc
            s[neg] += element.dc
        s[self.size] = 0.0

    def set_mismatch(
        self, vth: Sequence[float], beta: Sequence[float]
    ) -> None:
        """Overwrite the per-device Pelgrom mismatch arrays (Monte-Carlo
        re-biases the compiled program instead of re-cloning the circuit).
        Values follow :attr:`mos_names` order."""
        self._mos_mvth = np.asarray(vth, dtype=float)
        self._mos_mbeta = np.asarray(beta, dtype=float)
        if self._mos_mvth.shape != (self._n_mos,) or self._mos_mbeta.shape != (
            self._n_mos,
        ):
            raise AnalysisError("mismatch arrays must have one entry per MOS")

    # -- Assembly ---------------------------------------------------------------

    def residual_and_jacobian(
        self,
        voltages: np.ndarray,
        gmin: float,
        source_scale: float = 1.0,
        companion: Optional[
            Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
        ] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Residual f(v) and Jacobian J(v) at the current iterate.

        ``companion`` is the transient backward-Euler capacitor model:
        padded index arrays ``(node_a, node_b, c_over_dt, previous_padded)``.
        """
        size = self.size
        pad = size + 1
        v_pad = np.empty(pad)
        v_pad[:size] = voltages
        v_pad[size] = 0.0

        jacobian = self._a_pad.copy()
        residual = self._a_pad @ v_pad
        residual -= source_scale * self._source_vector

        if self._n_mos:
            vd = v_pad[self._mos_d]
            vg = v_pad[self._mos_g]
            vs = v_pad[self._mos_s]
            vb = v_pad[self._mos_b]
            swapped = self._mos_sign * (vd - vs) < 0.0
            vd_f = np.where(swapped, vs, vd)
            vs_f = np.where(swapped, vd, vs)
            vgs = self._mos_sign * (vg - vs_f) - self._mos_mvth
            vds = self._mos_sign * (vd_f - vs_f)
            vsb = self._mos_sign * (vs_f - vb)

            current = np.empty(self._n_mos)
            gm = np.empty(self._n_mos)
            gds = np.empty(self._n_mos)
            gmb = np.empty(self._n_mos)
            for model, members in self._groups:
                ids, gms, gdss, gmbs, _regions = model.evaluate_batch(
                    self._mos_w[members],
                    self._mos_l[members],
                    vgs[members],
                    vds[members],
                    vsb[members],
                )
                current[members] = ids
                gm[members] = gms
                gds[members] = gdss
                gmb[members] = gmbs
            if faults.active():
                fault = faults.fire("model.eval")
                if fault is not None:
                    if fault.action == "nan":
                        current.fill(np.nan)
                    else:
                        raise fault.exception()
            beta_scale = 1.0 + self._mos_mbeta
            current *= beta_scale
            gm *= beta_scale
            gds *= beta_scale
            gmb *= beta_scale
            i_ds = self._mos_sign * current

            # Which terminal acts as the drain only changes when a device
            # crosses vds = 0, so the scatter index arrays are cached
            # across Newton iterations and rebuilt on a swap-state change.
            cache = self._swap_cache
            if cache is None or not np.array_equal(cache[0], swapped):
                drain = np.where(swapped, self._mos_s, self._mos_d)
                source = np.where(swapped, self._mos_d, self._mos_s)
                rows = np.concatenate(
                    (drain, drain, drain, drain,
                     source, source, source, source)
                )
                cols = np.concatenate(
                    (drain, self._mos_g, source, self._mos_b) * 2
                )
                cache = (swapped.copy(), drain, source, rows, cols)
                self._swap_cache = cache
            _swapped, drain, source, rows, cols = cache
            np.add.at(residual, drain, i_ds)
            np.add.at(residual, source, -i_ds)

            minus_sum = -(gm + gds + gmb)
            vals = np.concatenate(
                (gds, gm, minus_sum, gmb, -gds, -gm, -minus_sum, -gmb)
            )
            np.add.at(jacobian, (rows, cols), vals)

        if companion is not None:
            node_a, node_b, c_over_dt, previous_pad = companion
            dv = (v_pad[node_a] - previous_pad[node_a]) - (
                v_pad[node_b] - previous_pad[node_b]
            )
            cap_current = c_over_dt * dv
            np.add.at(residual, node_a, cap_current)
            np.add.at(residual, node_b, -cap_current)
            np.add.at(jacobian, (node_a, node_a), c_over_dt)
            np.add.at(jacobian, (node_a, node_b), -c_over_dt)
            np.add.at(jacobian, (node_b, node_b), c_over_dt)
            np.add.at(jacobian, (node_b, node_a), -c_over_dt)

        # gmin shunts on every node.
        nodes = self.node_count
        residual[:nodes] += gmin * v_pad[:nodes]
        jacobian[:nodes, :nodes][np.diag_indices(nodes)] += gmin

        return residual[:size], jacobian[:size, :size]

    # -- Newton ----------------------------------------------------------------

    def newton(
        self,
        start: np.ndarray,
        gmin: float,
        source_scale: float = 1.0,
        max_iterations: int = 200,
        abs_tolerance: float = 1e-10,
        step_limit: float = 0.6,
        companion: Optional[
            Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
        ] = None,
    ) -> Tuple[np.ndarray, bool, int, float]:
        """Damped Newton from ``start``.

        Returns ``(solution, converged, iterations, residual_norm)``; the
        norm is the last max-abs KCL residual evaluated, recorded by the
        escalation policy.  Control flow mirrors ``dcop._newton`` exactly.
        """
        voltages = start.copy()
        residual_norm = float("inf")
        for iteration in range(1, max_iterations + 1):
            residual, jacobian = self.residual_and_jacobian(
                voltages, gmin, source_scale, companion
            )
            residual_norm = float(np.max(np.abs(residual)))
            try:
                if faults.active():
                    faults.maybe_raise("solve.linear")
                delta = np.linalg.solve(jacobian, -residual)
            except Exception:
                return voltages, False, iteration, residual_norm
            max_step = float(np.max(np.abs(delta))) if delta.size else 0.0
            if max_step > step_limit:
                delta *= step_limit / max_step
            voltages += delta
            if residual_norm < abs_tolerance and max_step < 1e-9:
                return voltages, True, iteration, residual_norm
            if max_step < 1e-12 and residual_norm < 1e-6:
                # Stalled but electrically negligible residual.
                return voltages, True, iteration, residual_norm
        return voltages, False, max_iterations, residual_norm

    def solve_voltages(
        self,
        gmin_sequence: Optional[Tuple[float, ...]] = None,
        max_iterations: int = 200,
    ) -> Tuple[np.ndarray, int, float]:
        """Find the DC operating point; returns (voltages, iterations, gmin).

        The solve runs a declarative escalation ladder
        (:data:`~repro.resilience.policy.COMPILED_POLICY`: direct two-stage
        Newton, then the gmin continuation, then source stepping); callers
        that pin ``gmin_sequence`` get a ladder without the direct fast
        path.  The structured per-rung record is left on
        :attr:`last_convergence` and raised inside
        :class:`~repro.errors.ConvergenceError` when every rung fails.
        """
        from repro.analysis import warmstart
        from repro.analysis.dcop import GMIN_SEQUENCE

        default_ladder = gmin_sequence is None or gmin_sequence is GMIN_SEQUENCE
        warm_key = None
        if default_ladder:
            policy = COMPILED_POLICY
            if warmstart.active():
                # An open warm-start session (the synthesis loop) may hold
                # the previous round's converged voltages for this exact
                # node/branch layout; seed Newton from them.  A failed warm
                # rung falls through to the standard ladder, so the solution
                # is unchanged either way.
                warm_key = (
                    tuple(self.index.nets),
                    tuple(s.name for s in self.index.sources),
                )
                seed = warmstart.lookup(warm_key)
                if seed is not None and seed.shape == (self.size,):
                    from repro.resilience.policy import warm_policy

                    policy = warm_policy(seed)
                    telemetry.count("dc.warm_start")
        else:
            policy = ramp_policy(tuple(gmin_sequence))
        try:
            voltages, report = policy.run(self, max_iterations=max_iterations)
        except ConvergenceError as error:
            self.last_convergence = error.report
            raise
        self.last_convergence = report
        if warm_key is not None:
            warmstart.record(warm_key, voltages)
        return voltages, report.iterations, report.achieved_gmin

    def solve_dc(
        self,
        gmin_sequence: Optional[Tuple[float, ...]] = None,
        max_iterations: int = 200,
    ):
        """Full DC solve returning a packaged
        :class:`~repro.analysis.dcop.DcSolution`."""
        from repro.analysis.dcop import _package_solution

        voltages, iterations, gmin = self.solve_voltages(
            gmin_sequence, max_iterations
        )
        return _package_solution(
            self.circuit, self.index, voltages, iterations, gmin,
            report=self.last_convergence,
        )


class LinearSystem:
    """A circuit linearised at a DC solution, compiled for batched solves.

    ``G`` and ``C`` are assembled once from scatter triplets; every small-
    signal question (AC sweep, output impedance, noise transfer) is then a
    right-hand-side choice against the same stacked ``(F, n, n)`` tensor.
    """

    def __init__(
        self,
        circuit: Circuit,
        dc,
        index: Optional[NodeIndex] = None,
    ):
        self.circuit = circuit
        self.dc = dc
        self.index = index if index is not None else NodeIndex(circuit)
        self.size = self.index.size
        pad = self.size + 1

        g_rows: List[int] = []
        g_cols: List[int] = []
        g_vals: List[float] = []
        c_rows: List[int] = []
        c_cols: List[int] = []
        c_vals: List[float] = []
        self._vsource_entries: List[Tuple[str, int, float]] = []
        self._isource_entries: List[Tuple[str, int, int, float]] = []

        def two_terminal(
            rows: List[int], cols: List[int], vals: List[float],
            i: int, j: int, value: float,
        ) -> None:
            rows.extend((i, i, j, j))
            cols.extend((i, j, j, i))
            vals.extend((value, -value, value, -value))

        def vccs(
            out_pos: int, out_neg: int, ctrl_pos: int, ctrl_neg: int,
            gm: float,
        ) -> None:
            g_rows.extend((out_pos, out_pos, out_neg, out_neg))
            g_cols.extend((ctrl_pos, ctrl_neg, ctrl_pos, ctrl_neg))
            g_vals.extend((gm, -gm, -gm, gm))

        for element in circuit:
            if isinstance(element, Resistor):
                two_terminal(
                    g_rows, g_cols, g_vals,
                    _padded(self.index, element.a),
                    _padded(self.index, element.b),
                    1.0 / element.value,
                )
            elif isinstance(element, Capacitor):
                two_terminal(
                    c_rows, c_cols, c_vals,
                    _padded(self.index, element.a),
                    _padded(self.index, element.b),
                    element.value,
                )
            elif isinstance(element, VoltageSource):
                pos = _padded(self.index, element.pos)
                neg = _padded(self.index, element.neg)
                branch = self.index.branch(element.name)
                g_rows.extend((pos, branch, neg, branch))
                g_cols.extend((branch, pos, branch, neg))
                g_vals.extend((1.0, 1.0, -1.0, -1.0))
                self._vsource_entries.append(
                    (element.name, branch, element.ac)
                )
            elif isinstance(element, CurrentSource):
                self._isource_entries.append(
                    (
                        element.name,
                        _padded(self.index, element.pos),
                        _padded(self.index, element.neg),
                        element.ac,
                    )
                )
            elif isinstance(element, Mos):
                try:
                    solution = dc.devices[element.name]
                except KeyError:
                    raise AnalysisError(
                        f"DC solution has no device {element.name!r}; "
                        "AC analysis needs a matching operating point"
                    ) from None
                op = solution.op
                drain = _padded(self.index, solution.eff_drain)
                source = _padded(self.index, solution.eff_source)
                gate = _padded(self.index, element.g)
                bulk = _padded(self.index, element.b)
                two_terminal(g_rows, g_cols, g_vals, drain, source, op.gds)
                vccs(drain, source, gate, source, op.gm)
                vccs(drain, source, bulk, source, op.gmb)
                two_terminal(c_rows, c_cols, c_vals, gate, source, op.cgs)
                two_terminal(c_rows, c_cols, c_vals, gate, drain, op.cgd)
                two_terminal(c_rows, c_cols, c_vals, gate, bulk, op.cgb)
                two_terminal(c_rows, c_cols, c_vals, drain, bulk, op.cdb)
                two_terminal(c_rows, c_cols, c_vals, source, bulk, op.csb)
            else:  # pragma: no cover - future element types
                raise NotImplementedError(
                    f"AC stamp for {type(element).__name__}"
                )

        g_pad = np.zeros((pad, pad))
        np.add.at(
            g_pad,
            (np.asarray(g_rows, dtype=np.intp), np.asarray(g_cols, dtype=np.intp)),
            np.asarray(g_vals),
        )
        c_pad = np.zeros((pad, pad))
        np.add.at(
            c_pad,
            (np.asarray(c_rows, dtype=np.intp), np.asarray(c_cols, dtype=np.intp)),
            np.asarray(c_vals),
        )
        self.conductance = np.ascontiguousarray(g_pad[: self.size, : self.size])
        self.capacitance = np.ascontiguousarray(c_pad[: self.size, : self.size])

    # -- Right-hand sides --------------------------------------------------------

    def rhs(self, overrides: Optional[Dict[str, complex]] = None) -> np.ndarray:
        """AC excitation vector from each source's ``ac`` field, with
        optional per-source amplitude ``overrides``."""
        overrides = overrides or {}
        rhs_pad = np.zeros(self.size + 1, dtype=complex)
        for name, branch, ac in self._vsource_entries:
            rhs_pad[branch] += overrides.get(name, ac)
        for name, pos, neg, ac in self._isource_entries:
            amplitude = overrides.get(name, ac)
            if amplitude:
                rhs_pad[pos] -= amplitude
                rhs_pad[neg] += amplitude
        return rhs_pad[: self.size]

    def injection_columns(
        self, pairs: Sequence[Tuple[int, int]]
    ) -> np.ndarray:
        """Unit-current injection columns, one per ``(node_a, node_b)``
        pair (current flows node_a -> node_b; -1 indexes ground)."""
        columns = np.zeros((self.size + 1, len(pairs)), dtype=complex)
        for k, (node_a, node_b) in enumerate(pairs):
            columns[node_a if node_a >= 0 else self.size, k] -= 1.0
            columns[node_b if node_b >= 0 else self.size, k] += 1.0
        return columns[: self.size]

    # -- Batched solves ----------------------------------------------------------

    def solve_batch(
        self, frequencies: np.ndarray, rhs: np.ndarray
    ) -> np.ndarray:
        """Solve ``(G + j 2 pi f C) X = rhs`` for every frequency at once.

        ``rhs`` is ``(size,)`` or ``(size, k)``; the result is
        ``(F, size, k)`` complex.
        """
        freq = np.asarray(frequencies, dtype=float)
        columns = np.asarray(rhs, dtype=complex)
        if columns.ndim == 1:
            columns = columns[:, None]
        omega = 2.0 * np.pi * freq
        # Assemble G + j*omega*C by writing the real and imaginary planes
        # directly — same values as the complex expression, without three
        # (F, n, n) complex temporaries.
        matrices = np.empty(
            (freq.size, self.size, self.size), dtype=complex
        )
        matrices.real[:] = self.conductance
        matrices.imag[:] = omega[:, None, None] * self.capacitance
        stacked = np.broadcast_to(
            columns[None, :, :], (freq.size,) + columns.shape
        )
        try:
            return np.linalg.solve(matrices, stacked)
        except np.linalg.LinAlgError as error:
            raise AnalysisError(f"singular MNA matrix: {error}") from error


def solve_stacked_systems(
    systems: Sequence["LinearSystem"],
    frequencies: np.ndarray,
    rhs_stack: np.ndarray,
) -> np.ndarray:
    """One ``(K, F, n, n)`` solve over K same-sized linear systems.

    ``rhs_stack`` is ``(K, size, cols)`` complex, one right-hand-side block
    per member; the result is ``(K, F, size, cols)``.  Each member's block
    is assembled exactly like :meth:`LinearSystem.solve_batch` (real and
    imaginary planes written directly, LAPACK invoked per matrix), so the
    stacked result matches K independent ``solve_batch`` calls bit for bit
    — this is what makes the ensemble measurement path equal to K
    independent ``measure_ota`` calls.
    """
    freq = np.asarray(frequencies, dtype=float)
    members = len(systems)
    if members == 0:
        raise AnalysisError("stacked solve needs at least one system")
    size = systems[0].size
    rhs_stack = np.asarray(rhs_stack, dtype=complex)
    if rhs_stack.shape[:2] != (members, size):
        raise AnalysisError(
            "rhs_stack must be (members, size, cols) matching the systems"
        )
    omega = 2.0 * np.pi * freq
    matrices = np.empty((members, freq.size, size, size), dtype=complex)
    matrices.real[:] = np.stack(
        [system.conductance for system in systems]
    )[:, None]
    matrices.imag[:] = omega[None, :, None, None] * np.stack(
        [system.capacitance for system in systems]
    )[:, None]
    stacked = np.broadcast_to(
        rhs_stack[:, None], (members, freq.size) + rhs_stack.shape[1:]
    )
    try:
        return np.linalg.solve(matrices, stacked)
    except np.linalg.LinAlgError as error:
        raise AnalysisError(f"singular MNA matrix: {error}") from error
