"""MOS model base class and operating-point record.

Models work in *forward NMOS convention*: ``vgs``, ``vds`` (>= 0) and
``vsb`` (reverse body bias, >= 0 normally) are magnitudes after the circuit
layer has applied the polarity sign and, when needed, swapped drain and
source.  This keeps a single implementation for both device polarities and
both conduction directions.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Tuple

import numpy as np

from repro.errors import ModelError
from repro.mos.junction import DiffusionGeometry, junction_capacitance
from repro.technology.process import MosParams
from repro.units import BOLTZMANN, ROOM_TEMPERATURE, thermal_voltage


class Region(Enum):
    """DC operating region."""

    CUTOFF = "cutoff"
    """Weak inversion / subthreshold."""
    TRIODE = "triode"
    SATURATION = "saturation"


@dataclass
class OperatingPoint:
    """Full DC + small-signal description of one biased device.

    All quantities in forward convention (positive for a conducting
    device); the circuit layer re-applies signs when stamping.
    """

    # Bias ---------------------------------------------------------------
    id: float
    vgs: float
    vds: float
    vsb: float
    vth: float
    veff: float
    vdsat: float
    region: Region
    # Geometry -------------------------------------------------------------
    width: float
    length: float
    # Small-signal -----------------------------------------------------------
    gm: float
    gds: float
    gmb: float
    # Capacitances -------------------------------------------------------------
    cgs: float
    cgd: float
    cgb: float
    cdb: float
    csb: float

    @property
    def gm_over_id(self) -> float:
        """Transconductance efficiency, 1/V."""
        if self.id == 0.0:
            return 0.0
        return self.gm / abs(self.id)

    @property
    def intrinsic_gain(self) -> float:
        """Self gain gm/gds."""
        if self.gds == 0.0:
            return math.inf
        return self.gm / self.gds

    @property
    def ro(self) -> float:
        """Small-signal output resistance 1/gds, ohm."""
        if self.gds == 0.0:
            return math.inf
        return 1.0 / self.gds

    @property
    def total_gate_capacitance(self) -> float:
        return self.cgs + self.cgd + self.cgb


class MosModel(ABC):
    """Common behaviour of the level-1 and level-3 models."""

    def __init__(self, params: MosParams, temperature: float = ROOM_TEMPERATURE):
        params.validate()
        self.params = params
        self.temperature = temperature
        self.vt = thermal_voltage(temperature)

    # -- DC core (implemented by subclasses) --------------------------------

    @abstractmethod
    def _saturation_current_factor(self, veff: float, length: float) -> float:
        """Return f(veff) such that Idsat = 0.5*kp*(W/L)*f(veff).

        Level 1: ``f = veff^2``.  Level 3 folds mobility degradation and
        velocity saturation into ``f``.
        """

    @abstractmethod
    def _saturation_current_factor_derivative(
        self, veff: float, length: float
    ) -> float:
        """d f / d veff, used for gm."""

    # -- Threshold and slope factor -----------------------------------------

    def threshold(self, vsb: float) -> float:
        """Body-effect-adjusted threshold magnitude at reverse bias ``vsb``."""
        phi = self.params.phi
        arg = phi + vsb
        if arg < 0.01:
            # Strong forward body bias: clamp to keep sqrt real; devices are
            # never intentionally biased here.
            arg = 0.01
        vto_mag = self.params.sign * self.params.vto
        return vto_mag + self.params.gamma * (math.sqrt(arg) - math.sqrt(phi))

    def slope_factor(self, vsb: float) -> float:
        """Subthreshold slope factor n = 1 + gamma / (2 sqrt(phi + vsb))."""
        arg = max(self.params.phi + vsb, 0.01)
        return 1.0 + self.params.gamma / (2.0 * math.sqrt(arg))

    def _weak_inversion_onset(self, vsb: float) -> float:
        """Effective overdrive below which the exponential tail applies.

        Chosen as ``2 n Vt`` so current *and* transconductance are continuous
        at the transition (value and slope of the square law match the
        exponential there).
        """
        return 2.0 * self.slope_factor(vsb) * self.vt

    # -- Current and small-signal parameters ---------------------------------

    def evaluate(
        self, width: float, length: float, vgs: float, vds: float, vsb: float
    ) -> Tuple[float, float, float, float, Region]:
        """Return ``(id, gm, gds, gmb, region)`` in forward convention.

        ``vds`` must be >= 0 (callers swap terminals first).
        """
        if width <= 0.0 or length <= 0.0:
            raise ModelError(
                f"{self.params.name}: device geometry must be positive "
                f"(W={width}, L={length})"
            )
        if vds < 0.0:
            raise ModelError("evaluate() requires vds >= 0; swap terminals first")
        params = self.params
        vth = self.threshold(vsb)
        veff = vgs - vth
        n = self.slope_factor(vsb)
        veff_t = self._weak_inversion_onset(vsb)
        beta = params.kp * width / length
        lam = params.lambda_l / length

        if veff < veff_t:
            region = Region.CUTOFF
            # Exponential matched in value and slope to the strong-inversion
            # expression at veff = veff_t.
            f_t = self._saturation_current_factor(veff_t, length)
            i_t = 0.5 * beta * f_t
            exp_arg = (veff - veff_t) / (n * self.vt)
            if exp_arg < -80.0:
                exp_term = 0.0
            else:
                exp_term = math.exp(exp_arg)
            sat_shape = 1.0 - math.exp(-vds / self.vt) if vds < 5 * self.vt else 1.0
            id_core = i_t * exp_term * sat_shape
            current = id_core * (1.0 + lam * vds)
            gm = current / (n * self.vt) if exp_term > 0.0 else 0.0
            # d(current)/d(vds): CLM term plus the (1-exp) shape term.
            gds = id_core * lam
            if vds < 5 * self.vt:
                gds += (
                    i_t * exp_term * math.exp(-vds / self.vt) / self.vt
                ) * (1.0 + lam * vds)
        elif vds >= veff:
            region = Region.SATURATION
            f = self._saturation_current_factor(veff, length)
            df = self._saturation_current_factor_derivative(veff, length)
            current = 0.5 * beta * f * (1.0 + lam * vds)
            gm = 0.5 * beta * df * (1.0 + lam * vds)
            gds = 0.5 * beta * f * lam
        else:
            region = Region.TRIODE
            # Degradation factor carried over from the saturation expression
            # so the two regions meet continuously at vds = veff.
            degradation = self._triode_degradation(veff, length)
            id_core = beta * (veff - 0.5 * vds) * vds / degradation
            current = id_core * (1.0 + lam * vds)
            gm = beta * vds * (1.0 + lam * vds) / degradation
            gm -= id_core * (1.0 + lam * vds) * self._triode_degradation_derivative(
                veff, length
            ) / degradation
            gds = (
                beta * (veff - vds) / degradation * (1.0 + lam * vds)
                + id_core * lam
            )

        gmb = gm * self._body_transconductance_ratio(vsb)
        return current, gm, gds, gmb, region

    def evaluate_batch(self, width, length, vgs, vds, vsb):
        """Vectorized :meth:`evaluate` over numpy arrays of devices.

        Mirrors the scalar implementation branch-for-branch (weak
        inversion, saturation, triode selected per element with masks) so
        the compiled-stamp engine reproduces per-device evaluation to
        floating-point round-off.  Returns ``(id, gm, gds, gmb, region)``
        arrays where ``region`` holds :class:`Region` codes
        (0 = cutoff, 1 = triode, 2 = saturation).

        Regions are gated: the weak-inversion and triode formulas run only
        when some element is in that region (an all-saturated batch pays
        for the saturation formulas alone).  Every selected value keeps
        its formula, so gating never changes a result bit.

        ``vds`` must be element-wise >= 0 (callers swap terminals first).
        The subclass hooks (``_saturation_current_factor`` and friends) are
        pure arithmetic in both provided models, so they broadcast as-is.
        """
        width = np.asarray(width, dtype=float)
        length = np.asarray(length, dtype=float)
        vgs = np.asarray(vgs, dtype=float)
        vds = np.asarray(vds, dtype=float)
        vsb = np.asarray(vsb, dtype=float)
        if np.any(width <= 0.0) or np.any(length <= 0.0):
            raise ModelError(
                f"{self.params.name}: device geometry must be positive"
            )
        if np.any(vds < 0.0):
            raise ModelError("evaluate_batch() requires vds >= 0")
        params = self.params

        arg = np.maximum(params.phi + vsb, 0.01)
        sqrt_arg = np.sqrt(arg)
        vth = params.sign * params.vto + params.gamma * (
            sqrt_arg - np.sqrt(params.phi)
        )
        n = 1.0 + params.gamma / (2.0 * sqrt_arg)
        veff = vgs - vth
        veff_t = 2.0 * n * self.vt
        beta = params.kp * width / length
        lam = params.lambda_l / length

        weak = veff < veff_t
        saturated = ~weak & (vds >= veff)
        triode = ~weak & ~saturated
        clm = 1.0 + lam * vds

        # Saturation ----------------------------------------------------------
        f = self._saturation_current_factor(veff, length)
        df = self._saturation_current_factor_derivative(veff, length)
        current_s = 0.5 * beta * f * clm
        gm_s = 0.5 * beta * df * clm
        gds_s = 0.5 * beta * f * lam

        # A region no element is in is never selected by np.where below,
        # so its formulas are skipped and 0.0 stands in.  NaN biases fail
        # every comparison and land in triode, which stays computed.
        current_w = gm_w = gds_w = 0.0
        current_t = gm_t = gds_t = 0.0

        # Weak inversion ------------------------------------------------------
        if weak.any():
            f_t = self._saturation_current_factor(veff_t, length)
            i_t = 0.5 * beta * f_t
            exp_arg = np.where(weak, (veff - veff_t) / (n * self.vt), -np.inf)
            exp_term = np.where(exp_arg < -80.0, 0.0, np.exp(exp_arg))
            shaped = vds < 5.0 * self.vt
            decay = np.exp(np.where(shaped, -vds / self.vt, 0.0))
            sat_shape = np.where(shaped, 1.0 - decay, 1.0)
            id_core_w = i_t * exp_term * sat_shape
            current_w = id_core_w * clm
            gm_w = np.where(exp_term > 0.0, current_w / (n * self.vt), 0.0)
            gds_w = id_core_w * lam + np.where(
                shaped, (i_t * exp_term * decay / self.vt) * clm, 0.0
            )

        # Triode --------------------------------------------------------------
        if triode.any():
            # Scalars (level 1 returns plain 1.0 / 0.0) broadcast in the
            # arithmetic below without materialising full arrays.
            degradation = self._triode_degradation(veff, length)
            d_degradation = self._triode_degradation_derivative(veff, length)
            id_core_t = beta * (veff - 0.5 * vds) * vds / degradation
            current_t = id_core_t * clm
            gm_t = (
                beta * vds * clm / degradation
                - id_core_t * clm * d_degradation / degradation
            )
            gds_t = beta * (veff - vds) / degradation * clm + id_core_t * lam

        current = np.where(weak, current_w, np.where(saturated, current_s, current_t))
        gm = np.where(weak, gm_w, np.where(saturated, gm_s, gm_t))
        gds = np.where(weak, gds_w, np.where(saturated, gds_s, gds_t))
        gmb = gm * (params.gamma / (2.0 * sqrt_arg))
        region = np.where(weak, 0, np.where(triode, 1, 2))
        return current, gm, gds, gmb, region

    def _triode_degradation(self, veff: float, length: float) -> float:
        """Mobility degradation factor used in triode; 1.0 for level 1."""
        return 1.0

    def _triode_degradation_derivative(self, veff: float, length: float) -> float:
        """d(degradation)/d(veff) / 1; 0 for level 1."""
        return 0.0

    def _body_transconductance_ratio(self, vsb: float) -> float:
        """gmb/gm = gamma / (2 sqrt(phi + vsb))."""
        arg = max(self.params.phi + vsb, 0.01)
        return self.params.gamma / (2.0 * math.sqrt(arg))

    # -- Capacitances -----------------------------------------------------------

    def gate_capacitances(
        self, width: float, length: float, region: Region
    ) -> Tuple[float, float, float]:
        """Meyer gate capacitances ``(cgs, cgd, cgb)`` including overlaps."""
        params = self.params
        c_channel = params.cox * width * length
        c_ov_s = params.cgso * width
        c_ov_d = params.cgdo * width
        c_ov_b = params.cgbo * length
        if region is Region.SATURATION:
            return (2.0 / 3.0) * c_channel + c_ov_s, c_ov_d, c_ov_b
        if region is Region.TRIODE:
            return 0.5 * c_channel + c_ov_s, 0.5 * c_channel + c_ov_d, c_ov_b
        # Cutoff / weak inversion: channel charge couples to the bulk.
        return c_ov_s, c_ov_d, c_channel + c_ov_b

    def operating_point(
        self,
        width: float,
        length: float,
        vgs: float,
        vds: float,
        vsb: float,
        geometry: Optional[DiffusionGeometry] = None,
    ) -> OperatingPoint:
        """Full operating point including capacitances.

        ``geometry`` defaults to an unfolded device with the technology-rule
        diffusion extension encoded in the parameter set's caller; here a
        conservative ``ldif = 4*length`` placeholder is used only if nothing
        better is supplied.
        """
        current, gm, gds, gmb, region = self.evaluate(width, length, vgs, vds, vsb)
        cgs, cgd, cgb = self.gate_capacitances(width, length, region)
        if geometry is None:
            geometry = DiffusionGeometry.single_fold(width, 4.0 * length)
        vdb = vds + vsb
        cdb = junction_capacitance(self.params, geometry.ad, geometry.pd, vdb)
        csb = junction_capacitance(self.params, geometry.as_, geometry.ps, vsb)
        vth = self.threshold(vsb)
        return OperatingPoint(
            id=current,
            vgs=vgs,
            vds=vds,
            vsb=vsb,
            vth=vth,
            veff=vgs - vth,
            vdsat=max(vgs - vth, 0.0),
            region=region,
            width=width,
            length=length,
            gm=gm,
            gds=gds,
            gmb=gmb,
            cgs=cgs,
            cgd=cgd,
            cgb=cgb,
            cdb=cdb,
            csb=csb,
        )

    def bias_saturated(
        self,
        width: float,
        length: float,
        veff: float,
        vds: Optional[float] = None,
        vsb: float = 0.0,
        geometry: Optional[DiffusionGeometry] = None,
    ) -> OperatingPoint:
        """Operating point at a given overdrive, guaranteed saturated.

        ``vds`` defaults to ``veff + 0.3 V`` which keeps the device safely
        in saturation; this is the sizing tool's workhorse entry point.
        """
        if veff <= 0.0:
            raise ModelError("bias_saturated needs a positive overdrive")
        vth = self.threshold(vsb)
        vgs = vth + veff
        if vds is None:
            vds = veff + 0.3
        return self.operating_point(width, length, vgs, vds, vsb, geometry)

    # -- Noise ---------------------------------------------------------------------

    def thermal_noise_current_psd(self, op: OperatingPoint) -> float:
        """Channel thermal noise PSD, A^2/Hz (4kT * 2/3 * gm in saturation)."""
        gamma_noise = 2.0 / 3.0 if op.region is Region.SATURATION else 1.0
        return 4.0 * BOLTZMANN * self.temperature * gamma_noise * max(op.gm, 0.0)

    def flicker_noise_current_psd(self, op: OperatingPoint, frequency: float) -> float:
        """Flicker noise PSD at ``frequency``, A^2/Hz.

        SPICE2 form: ``KF * Id^AF / (Cox * Leff^2 * f)``.
        """
        if frequency <= 0.0:
            raise ValueError("flicker noise needs a positive frequency")
        params = self.params
        if op.id <= 0.0:
            return 0.0
        return (
            params.kf
            * abs(op.id) ** params.af
            / (params.cox * op.length**2 * frequency)
        )

    def flicker_corner(self, op: OperatingPoint) -> float:
        """Frequency where flicker equals thermal noise, Hz."""
        thermal = self.thermal_noise_current_psd(op)
        if thermal <= 0.0:
            return 0.0
        return self.flicker_noise_current_psd(op, 1.0) / thermal
